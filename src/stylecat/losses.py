"""Training objectives: cross-entropy / confusion pairs for labeled data
and the two triplet hinges for caption-only data, plus the cosine logits
head shared by all of them."""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from . import tensor as T
from .encoders import EncoderBundle
from .tensor import Tensor

if TYPE_CHECKING:
    from .train import TrainConfig

ADVERSARIAL_MODES = ("uniform-kl", "negated-ce")


class ConfigError(ValueError):
    """Invalid hyperparameter or mode configuration."""


def class_logits(f: Tensor, prototypes: Tensor, scale: float = 1.0) -> Tensor:
    """Cosine similarity of (n, D) feature rows against (K, D) prototypes, times ``scale``: (n, K)."""
    return T.scale(T.matmul(T.normalize(f), T.transpose(T.normalize(prototypes))), scale)


def _labels_array(labels, n: int, k: int) -> np.ndarray:
    arr = np.asarray(labels, dtype=np.int64)
    if arr.shape != (n,):
        raise T.ShapeError(f"labels shape {arr.shape} does not match batch size {n}")
    if np.any(arr < 0) or np.any(arr >= k):
        raise ValueError(f"labels must lie in [0, {k})")
    return arr


def ce_loss(logits: Tensor, labels) -> Tensor:
    """Mean cross-entropy of softmax over (n, K) logits against n integer labels."""
    n, k = logits.shape
    arr = _labels_array(labels, n, k)
    picked = T.pick_rows(T.log_softmax(logits, axis=1), arr)
    return T.scale(T.tensor_mean(picked), -1.0)


def confusion_loss(logits: Tensor, labels, mode: str) -> Tensor:
    """Adversarial term for the opposing attribute.

    uniform-kl: cross-entropy of predictions against the uniform
    distribution (minimized exactly when predictions are uniform).
    negated-ce: the literal sign-flipped cross-entropy (unbounded below).
    """
    if mode == "uniform-kl":
        n, k = logits.shape
        _labels_array(labels, n, k)
        return T.scale(T.tensor_sum(T.log_softmax(logits, axis=1)), -1.0 / (n * k))
    if mode == "negated-ce":
        return T.scale(ce_loss(logits, labels), -1.0)
    raise ConfigError(f"unknown adversarial mode: {mode!r}")


def _labeled_loss(f_i: Tensor, labels: dict[str, np.ndarray], encoders: EncoderBundle, cfg: TrainConfig,
                  kind: str) -> Tensor:
    """Objective of the ``kind`` encoder on (n, D) image feature rows.

    ``labels`` maps "style" and "category" to (n,) label arrays.
    Cross-entropy on its own factor plus lambda times the confusion term on
    the other factor, both scored through the ``kind`` adapter; lambda is
    lambda1 for style and lambda2 for category. With lambda == 0 this is
    exactly the plain cross-entropy term.
    """
    other = "category" if kind == "style" else "style"
    lam = cfg.lambda1 if kind == "style" else cfg.lambda2
    base = ce_loss(class_logits(f_i, encoders.adapted_prototypes(kind, kind), cfg.logit_scale), labels[kind])
    if lam == 0:
        return base
    conf = confusion_loss(
        class_logits(f_i, encoders.adapted_prototypes(kind, other), cfg.logit_scale),
        labels[other],
        cfg.adversarial_mode,
    )
    return T.add(base, T.scale(conf, lam))


def style_labeled_loss(f_i: Tensor, labels: dict[str, np.ndarray], encoders: EncoderBundle,
                       cfg: TrainConfig) -> Tensor:
    """Style-encoder objective on labeled image features (lambda1)."""
    return _labeled_loss(f_i, labels, encoders, cfg, "style")


def category_labeled_loss(f_i: Tensor, labels: dict[str, np.ndarray], encoders: EncoderBundle,
                          cfg: TrainConfig) -> Tensor:
    """Mirror objective for the category encoder (swap roles, lambda2)."""
    return _labeled_loss(f_i, labels, encoders, cfg, "category")


def _triplet(anchor: Tensor, positive: Tensor, negative: Tensor, margin: float) -> Tensor:
    d_pos = T.row_l2_distance(anchor, positive)
    d_neg = T.row_l2_distance(anchor, negative)
    hinge = T.relu(T.add(T.sub(d_pos, d_neg), Tensor(float(margin))))
    return T.tensor_mean(hinge)


def style_triplet_loss(f_s: Tensor, f_i: Tensor, f_c: Tensor, margin: float) -> Tensor:
    """Hinge pulling f_s toward the image anchor and away from f_c.

    f_c is treated as a constant here: the opposing encoder is not trained
    through this loss.
    """
    return _triplet(f_s, f_i, f_c.detach(), margin)


def category_triplet_loss(f_c: Tensor, f_i: Tensor, f_s: Tensor, margin: float) -> Tensor:
    """Mirror hinge for the category encoder; f_s held constant."""
    return _triplet(f_c, f_i, f_s.detach(), margin)
