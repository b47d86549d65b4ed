"""Decoupled style/category encoders over a frozen backbone, with a toy
guided diffusion model and a gradient-checked autodiff core."""

from .tensor import Tensor, ShapeError, backward, finite_diff_grad, no_grad
from .backbone import FrozenWeights, Vocab, embed_captions, embed_image, embed_text
from .encoders import AdapterParams, EncoderBundle, blend
from .losses import (
    category_triplet_loss,
    class_logits,
    style_labeled_loss,
    style_triplet_loss,
)
from .captions import CategoryLexicon, decompose
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
