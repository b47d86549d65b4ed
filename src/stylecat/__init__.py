"""Decoupled style/category encoders over a frozen backbone, with a toy
guided diffusion model and a gradient-checked autodiff core."""

from .tensor import Tensor, ShapeError, backward, finite_diff_grad, no_grad
from .backbone import FrozenWeights, Vocab, embed_captions, embed_image, embed_text
from .encoders import AdapterParams, EncoderBundle, adapt, blend
from .losses import (
    category_labeled_loss,
    category_triplet_loss,
    ce_loss,
    class_logits,
    confusion_loss,
    style_labeled_loss,
    style_triplet_loss,
    triplet_hinge,
)
from .captions import CategoryLexicon, DecomposedCaption, batch_decompose, decompose
from .datagen import SyntheticSpec, generate_classification_dataset, generate_diffusion_dataset
from .diffusion import (
    DenoiserParams,
    DiffusionSchedule,
    GuidanceCondition,
    condition_for_caption,
    ddpm_train_step,
    oracle_classify_batch,
    sample,
)
from .train import TrainConfig, evaluate_classification, gradcheck_suite, train_encoders

__version__ = "0.1.0"
