"""Training objectives: cross-entropy / confusion pairs for labeled data
and the two triplet hinges for caption-only data, plus the cosine logits
head shared by all of them. The cosine head and each objective are one
tape node with a hand-written backward."""

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


def _cosine(f: Tensor, prototypes: Tensor) -> Tensor:
    """Cosine similarity of (n, D) feature rows against (K, D) prototype rows: (n, K); one tape node."""
    if f.data.ndim != 2 or prototypes.data.ndim != 2 or f.shape[1] != prototypes.shape[1]:
        raise T.ShapeError(f"class_logits: features {f.shape} and prototypes {prototypes.shape} "
                           "must be rows of one width")
    fn, f_norm = T._unit_rows(f.data)
    pn, p_norm = T._unit_rows(prototypes.data)
    pn_t = pn.T.copy()

    def grad_fn(g):  # training features are constants: skip their gradient
        g_f = T._unit_rows_grad(g @ pn_t.T, fn, f_norm) if f.requires_grad else None
        return g_f, T._unit_rows_grad((fn.T @ g).T, pn, p_norm)

    return T._node(fn @ pn_t, (f, prototypes), grad_fn)


def class_logits(f: Tensor, prototypes: Tensor, scale: float = 1.0) -> Tensor:
    """Cosine similarity of (n, D) feature rows against (K, D) prototypes, times ``scale``: (n, K)."""
    return T.scale(_cosine(f, prototypes), scale)


def _labels_array(labels, n: int, k: int) -> np.ndarray:
    arr = np.asarray(labels, dtype=np.int64)
    if arr.shape != (n,):
        raise T.ShapeError(f"labels shape {arr.shape} does not match batch size {n}")
    if np.any(arr < 0) or np.any(arr >= k):
        raise ValueError(f"labels must lie in [0, {k})")
    return arr


def _log_softmax(x: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax of (n, K) logits, shifted by each row's maximum."""
    shifted = x - x.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _log_softmax_grad(g: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Gradient at the logits of ``g``, the gradient at their log-softmax ``y``."""
    return g - np.exp(y) * g.sum(axis=1, keepdims=True)


def ce_loss(logits: Tensor, labels) -> Tensor:
    """Mean cross-entropy of softmax over (n, K) logits against n integer labels; one tape node."""
    n, k = logits.shape
    rows, arr = np.arange(n), _labels_array(labels, n, k)
    y = _log_softmax(logits.data)

    def grad_fn(g):
        g_picked = np.zeros_like(y)
        g_picked[rows, arr] = float(g * -1.0) / n
        return (_log_softmax_grad(g_picked, y),)

    return T._node(np.asarray(y[rows, arr].mean()) * -1.0, (logits,), grad_fn)


def confusion_loss(logits: Tensor, labels, mode: str) -> Tensor:
    """Adversarial term for the opposing attribute.

    uniform-kl: cross-entropy of predictions against the uniform
    distribution (minimized exactly when predictions are uniform).
    negated-ce: the literal sign-flipped cross-entropy (unbounded below).
    """
    if mode == "uniform-kl":
        n, k = logits.shape
        _labels_array(labels, n, k)
        c = -1.0 / (n * k)
        y = _log_softmax(logits.data)

        def grad_fn(g):
            return (_log_softmax_grad(np.full(y.shape, float(g * c)), y),)

        return T._node(np.asarray(y.sum()) * c, (logits,), grad_fn)
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
    """Mean over rows of relu(|anchor - positive| - |anchor - negative| + margin); one tape node.

    ``negative`` is a constant. A distance of zero passes no gradient.
    """
    if not anchor.shape == positive.shape == negative.shape or anchor.data.ndim != 2:
        raise T.ShapeError(f"triplet: need (n, D) rows of one shape, got {anchor.shape}, "
                           f"{positive.shape} and {negative.shape}")
    n = anchor.shape[0]
    diff_pos = anchor.data - positive.data
    diff_neg = anchor.data - negative.data
    d_pos = np.sqrt((diff_pos * diff_pos).sum(axis=1))
    d_neg = np.sqrt((diff_neg * diff_neg).sum(axis=1))
    pre = (d_pos - d_neg) + margin
    mask = pre > 0

    def grad_fn(g):
        g_pre = np.full(n, float(g) / n) * mask
        u_pos = diff_pos / np.where(d_pos > 0, d_pos, 1.0)[:, None] * np.where(d_pos > 0, g_pre, 0.0)[:, None]
        u_neg = diff_neg / np.where(d_neg > 0, d_neg, 1.0)[:, None] * np.where(d_neg > 0, -g_pre, 0.0)[:, None]
        return u_pos + u_neg, -u_pos

    return T._node(np.asarray(np.where(mask, pre, 0.0).mean()), (anchor, positive), grad_fn)


def style_triplet_loss(f_s: Tensor, f_i: Tensor, f_c: Tensor, margin: float) -> Tensor:
    """Hinge pulling f_s toward the image anchor and away from f_c.

    f_c is treated as a constant here: the opposing encoder is not trained
    through this loss.
    """
    return _triplet(f_s, f_i, f_c, margin)


def category_triplet_loss(f_c: Tensor, f_i: Tensor, f_s: Tensor, margin: float) -> Tensor:
    """Mirror hinge for the category encoder; f_s held constant."""
    return _triplet(f_c, f_i, f_s, margin)
