"""Training objectives: cross-entropy / confusion pairs for labeled data
and the two triplet hinges for caption-only data, plus the cosine logits
head shared by all of them."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .backbone import embed_image
from .encoders import EncoderBundle
from .tensor import Tensor

ADVERSARIAL_MODES = ("uniform-kl", "negated-ce")


class ConfigError(ValueError):
    """Invalid hyperparameter or mode configuration."""


@dataclass
class LossConfig:
    """Hyperparameters for the four labeled/unlabeled objectives."""

    lambda1: float = 0.2   # style encoder: weight of its category-confusion term
    lambda2: float = 0.3   # category encoder: weight of its style-confusion term
    margin1: float = 0.3
    margin2: float = 0.3
    adversarial_mode: str = "uniform-kl"
    logit_scale: float = 20.0

    def __post_init__(self):
        if self.lambda1 < 0 or self.lambda2 < 0:
            raise ConfigError("lambda weights must be >= 0")
        if self.margin1 < 0 or self.margin2 < 0:
            raise ConfigError("margins must be >= 0")
        if self.adversarial_mode not in ADVERSARIAL_MODES:
            raise ConfigError(f"adversarial_mode must be one of {ADVERSARIAL_MODES}")
        if self.logit_scale <= 0:
            raise ConfigError("logit_scale must be > 0")


def _as_matrix(f: Tensor) -> Tensor:
    return T.reshape(f, (1, f.shape[0])) if f.data.ndim == 1 else f


def class_logits(f: Tensor, prototypes, scale: float = 20.0) -> Tensor:
    """Scaled cosine similarity of features against class prototypes.

    ``f`` is (D,) or (n, D); ``prototypes`` a (K, D) tensor or a list of
    (D,) tensors. Output is (n, K) ((K,) for a single feature).
    """
    single = f.data.ndim == 1
    fm = T.normalize(_as_matrix(f))
    if isinstance(prototypes, (list, tuple)):
        prototypes = T.stack_rows(list(prototypes))
    pm = T.normalize(prototypes)
    logits = T.scale(T.matmul(fm, T.transpose(pm)), scale)
    return T.reshape(logits, (logits.shape[1],)) if single else logits


def _labels_array(labels, n: int, k: int) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(labels, dtype=np.int64))
    if arr.shape != (n,):
        raise T.ShapeError(f"labels shape {arr.shape} does not match batch size {n}")
    if np.any(arr < 0) or np.any(arr >= k):
        raise ValueError(f"labels must lie in [0, {k})")
    return arr


def ce_loss(logits: Tensor, labels) -> Tensor:
    """Mean cross-entropy of softmax(logits) against integer labels."""
    lm = _as_matrix(logits)
    n, k = lm.shape
    arr = _labels_array(labels, n, k)
    picked = T.pick_rows(T.log_softmax(lm, axis=1), arr)
    return T.scale(T.tensor_mean(picked), -1.0)


def confusion_loss(logits: Tensor, labels, mode: str = "uniform-kl") -> Tensor:
    """Adversarial term for the opposing attribute.

    uniform-kl: cross-entropy of predictions against the uniform
    distribution (minimized exactly when predictions are uniform).
    negated-ce: the literal sign-flipped cross-entropy (unbounded below).
    """
    if mode == "uniform-kl":
        lm = _as_matrix(logits)
        n, k = lm.shape
        _labels_array(labels, n, k)
        return T.scale(T.tensor_sum(T.log_softmax(lm, axis=1)), -1.0 / (n * k))
    if mode == "negated-ce":
        return T.scale(ce_loss(logits, labels), -1.0)
    raise ConfigError(f"unknown adversarial mode: {mode!r}")


def _image_features(batch, encoders: EncoderBundle) -> Tensor:
    rows = [embed_image(s.grid, encoders.backbone).data for s in batch]
    return Tensor(np.stack(rows))


def _labeled_loss(batch, encoders: EncoderBundle, cfg: LossConfig, kind: str) -> Tensor:
    """Objective of the ``kind`` encoder on labeled samples.

    Cross-entropy on its own factor plus lambda times the confusion term on
    the other factor, both scored through the ``kind`` adapter; lambda is
    lambda1 for style and lambda2 for category. With lambda == 0 this is
    exactly the plain cross-entropy term.
    """
    other = "category" if kind == "style" else "style"
    lam = cfg.lambda1 if kind == "style" else cfg.lambda2
    f_i = _image_features(batch, encoders)
    base = ce_loss(
        class_logits(f_i, encoders.adapted_prototypes(kind, kind), cfg.logit_scale),
        [getattr(s, kind) for s in batch],
    )
    if lam == 0:
        return base
    conf = confusion_loss(
        class_logits(f_i, encoders.adapted_prototypes(kind, other), cfg.logit_scale),
        [getattr(s, other) for s in batch],
        cfg.adversarial_mode,
    )
    return T.add(base, T.scale(conf, lam))


def style_labeled_loss(batch, encoders: EncoderBundle, cfg: LossConfig) -> Tensor:
    """Style-encoder objective on labeled samples (lambda1)."""
    return _labeled_loss(batch, encoders, cfg, "style")


def category_labeled_loss(batch, encoders: EncoderBundle, cfg: LossConfig) -> Tensor:
    """Mirror objective for the category encoder (swap roles, lambda2)."""
    return _labeled_loss(batch, encoders, cfg, "category")


def _triplet(anchor: Tensor, positive: Tensor, negative: Tensor, margin: float) -> Tensor:
    a, p, n = _as_matrix(anchor), _as_matrix(positive), _as_matrix(negative)
    d_pos = T.row_l2_distance(a, p)
    d_neg = T.row_l2_distance(a, n)
    hinge = T.relu(T.add(T.sub(d_pos, d_neg), Tensor(float(margin))))
    return T.tensor_mean(hinge)


def style_triplet_loss(f_s: Tensor, f_i: Tensor, f_c: Tensor, margin: float = 0.3) -> Tensor:
    """Hinge pulling f_s toward the image anchor and away from f_c.

    f_c is treated as a constant here: the opposing encoder is not trained
    through this loss.
    """
    return _triplet(f_s, f_i, f_c.detach(), margin)


def category_triplet_loss(f_c: Tensor, f_i: Tensor, f_s: Tensor, margin: float = 0.3) -> Tensor:
    """Mirror hinge for the category encoder; f_s held constant."""
    return _triplet(f_c, f_i, f_s.detach(), margin)
