"""Training objectives of the two adapters and the loss heads they are made of.

Every encoder optimiser step records one tape node, whose parents are the
four tensors of the adapter being stepped. ``style_labeled_loss`` and
``category_labeled_loss`` run the adapter over both factors' prompt
features, the cosine logits, and cross-entropy plus lambda times the
confusion term. ``style_triplet_loss`` and ``category_triplet_loss`` run
the adapter over the anchor's frozen text rows and the hinge. Their
forward and hand-written backward are put together from the numpy helpers
below, which also make the single-layer ops ``class_logits``, ``ce_loss``,
``confusion_loss`` and ``triplet_hinge``; so an objective gives the same
bits as the composition of those ops.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from . import tensor as T
from .encoders import AdapterParams, EncoderBundle, adapt_array
from .tensor import Tensor

if TYPE_CHECKING:
    from .train import TrainConfig

ADVERSARIAL_MODES = ("uniform-kl", "negated-ce")


class ConfigError(ValueError):
    """Invalid hyperparameter or mode configuration."""


# numpy helpers: each returns a forward value and its backward


def _cosine(f: np.ndarray, prototypes: np.ndarray, f_unit=None):
    """Cosine similarity of (n, D) rows against (K, D) prototype rows: (n, K), and its backward.

    The backward maps the gradient at the similarities to the gradients of
    ``f`` (None unless ``need_f``) and of ``prototypes``. ``f_unit`` is
    ``T._unit_rows(f)``, passed by a caller that scores the same rows
    against several prototype sets; it is computed here when omitted.
    """
    if f.ndim != 2 or prototypes.ndim != 2 or f.shape[1] != prototypes.shape[1]:
        raise T.ShapeError(f"class_logits: features {f.shape} and prototypes {prototypes.shape} "
                           "must be rows of one width")
    fn, f_norm = T._unit_rows(f) if f_unit is None else f_unit
    pn, p_norm = T._unit_rows(prototypes)
    pn_t = pn.T.copy()

    def grad(g, need_f=True):
        g_f = T._unit_rows_grad(g @ pn_t.T, fn, f_norm) if need_f else None
        return g_f, T._unit_rows_grad((fn.T @ g).T, pn, p_norm)

    return fn @ pn_t, grad


def _labels_array(labels, n: int, k: int) -> np.ndarray:
    arr = np.asarray(labels, dtype=np.int64)
    if arr.shape != (n,):
        raise T.ShapeError(f"labels shape {arr.shape} does not match batch size {n}")
    if (arr.view(np.uint64) >= k).any():  # a negative label views as at least 2**63
        raise ValueError(f"labels must lie in [0, {k})")
    return arr


def _log_softmax(x: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax of (n, K) logits, shifted by each row's maximum."""
    shifted = x - x.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _log_softmax_grad(g: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Gradient at the logits of ``g``, the gradient at their log-softmax ``y``."""
    return g - np.exp(y) * g.sum(axis=1, keepdims=True)


def _ce(logits: np.ndarray, labels):
    """Mean cross-entropy of softmax over (n, K) logits against n labels, and its backward."""
    n, k = logits.shape
    rows, arr = np.arange(n), _labels_array(labels, n, k)
    y = _log_softmax(logits)

    def grad(g):
        g_picked = np.zeros_like(y)
        g_picked[rows, arr] = float(g * -1.0) / n
        return _log_softmax_grad(g_picked, y)

    return np.asarray(y[rows, arr].mean()) * -1.0, grad


def _confusion(logits: np.ndarray, labels, mode: str):
    """The ``confusion_loss`` of (n, K) logits, and its backward."""
    if mode == "uniform-kl":
        n, k = logits.shape
        _labels_array(labels, n, k)
        c = -1.0 / (n * k)
        y = _log_softmax(logits)

        def grad(g):
            return _log_softmax_grad(np.full(y.shape, float(g * c)), y)

        return np.asarray(y.sum()) * c, grad
    if mode == "negated-ce":
        value, ce_grad = _ce(logits, labels)
        return value * -1.0, lambda g: ce_grad(g * -1.0)
    raise ConfigError(f"unknown adversarial mode: {mode!r}")


def _hinge(anchor: np.ndarray, positive: np.ndarray, negative: np.ndarray, margin: float):
    """Mean over rows of relu(|anchor - positive| - |anchor - negative| + margin), and its backward.

    The backward returns the gradients of ``anchor`` and ``positive``;
    ``negative`` is a constant. A distance of zero passes no gradient.
    """
    if not anchor.shape == positive.shape == negative.shape or anchor.ndim != 2:
        raise T.ShapeError(f"triplet: need (n, D) rows of one shape, got {anchor.shape}, "
                           f"{positive.shape} and {negative.shape}")
    n = anchor.shape[0]
    diff_pos = anchor - positive
    diff_neg = anchor - negative
    d_pos = np.sqrt((diff_pos * diff_pos).sum(axis=1))
    d_neg = np.sqrt((diff_neg * diff_neg).sum(axis=1))
    pre = (d_pos - d_neg) + margin
    mask = pre > 0

    def grad(g):
        g_pre = np.full(n, float(g) / n) * mask
        u_pos = diff_pos / np.where(d_pos > 0, d_pos, 1.0)[:, None] * np.where(d_pos > 0, g_pre, 0.0)[:, None]
        u_neg = diff_neg / np.where(d_neg > 0, d_neg, 1.0)[:, None] * np.where(d_neg > 0, -g_pre, 0.0)[:, None]
        return u_pos + u_neg, -u_pos

    return np.asarray(np.where(mask, pre, 0.0).mean()), grad


# single-layer ops


def class_logits(f: Tensor, prototypes: Tensor, scale: float = 1.0) -> Tensor:
    """Cosine similarity of (n, D) feature rows against (K, D) prototypes, times ``scale``: (n, K)."""
    cos, grad = _cosine(f.data, prototypes.data)
    return T.scale(T._node(cos, (f, prototypes), lambda g: grad(g, f.requires_grad)), scale)


def ce_loss(logits: Tensor, labels) -> Tensor:
    """Mean cross-entropy of softmax over (n, K) logits against n integer labels; one tape node."""
    value, grad = _ce(logits.data, labels)
    return T._node(value, (logits,), lambda g: (grad(g),))


def confusion_loss(logits: Tensor, labels, mode: str) -> Tensor:
    """Adversarial term for the opposing attribute; one tape node.

    uniform-kl: cross-entropy of predictions against the uniform
    distribution (minimized exactly when predictions are uniform).
    negated-ce: the literal sign-flipped cross-entropy (unbounded below).
    """
    value, grad = _confusion(logits.data, labels, mode)
    return T._node(value, (logits,), lambda g: (grad(g),))


def triplet_hinge(anchor: Tensor, positive: Tensor, negative: Tensor, margin: float) -> Tensor:
    """The triplet hinge of ``_hinge`` on (n, D) rows; one tape node, ``negative`` held constant."""
    value, grad = _hinge(anchor.data, positive.data, negative.data, margin)
    return T._node(value, (anchor, positive), grad)


# objectives: one tape node per optimiser step


def _labeled_loss(f_i: np.ndarray, labels: dict[str, np.ndarray], encoders: EncoderBundle, cfg: TrainConfig,
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
    p = encoders.adapter(kind)
    scale = float(cfg.logit_scale)
    f_unit = T._unit_rows(f_i)  # shared by both heads

    def term(prompt_kind, loss, weight):
        protos, adapt_grad = adapt_array(encoders.prompt_features[prompt_kind].data, p)
        cos, cos_grad = _cosine(f_i, protos, f_unit)
        value, loss_grad = loss(cos * scale)

        def grad(g):  # the gradients of w1, b1, w2 and b2
            return adapt_grad(cos_grad(loss_grad(g * weight) * scale, need_f=False)[1], need_x=False)[1:]

        return value, grad

    params = (p.w1, p.b1, p.w2, p.b2)
    value, ce_grad = term(kind, lambda z: _ce(z, labels[kind]), 1.0)
    if lam == 0:
        return T._node(value, params, ce_grad)
    conf, conf_grad = term(other, lambda z: _confusion(z, labels[other], cfg.adversarial_mode), lam)
    # Two terms per tensor: their sum is the same in either order, so this matches the layered tape.
    return T._node(value + conf * lam, params, lambda g: tuple(a + b for a, b in zip(ce_grad(g), conf_grad(g))))


def style_labeled_loss(f_i: np.ndarray, labels: dict[str, np.ndarray], encoders: EncoderBundle,
                       cfg: TrainConfig) -> Tensor:
    """Style-encoder objective on labeled image features (lambda1)."""
    return _labeled_loss(f_i, labels, encoders, cfg, "style")


def category_labeled_loss(f_i: np.ndarray, labels: dict[str, np.ndarray], encoders: EncoderBundle,
                          cfg: TrainConfig) -> Tensor:
    """Mirror objective for the category encoder (swap roles, lambda2)."""
    return _labeled_loss(f_i, labels, encoders, cfg, "category")


def _triplet_loss(text: np.ndarray, p: AdapterParams, positive: np.ndarray, negative: np.ndarray,
                  margin: float) -> Tensor:
    """The hinge with anchor ``adapt(text, p)``; one tape node over the adapter's four tensors."""
    anchor, adapt_grad = adapt_array(text, p)
    value, hinge_grad = _hinge(anchor, positive, negative, margin)
    return T._node(value, (p.w1, p.b1, p.w2, p.b2), lambda g: adapt_grad(hinge_grad(g)[0], need_x=False)[1:])


def style_triplet_loss(t_s: np.ndarray, p: AdapterParams, f_i: np.ndarray, f_c: np.ndarray,
                       margin: float) -> Tensor:
    """Hinge pulling the style-adapted text rows ``t_s`` toward the image rows f_i and away from f_c.

    ``p`` is the style adapter. f_c, the category-adapted rows, is a
    constant here: the opposing encoder is not trained through this loss.
    """
    return _triplet_loss(t_s, p, f_i, f_c, margin)


def category_triplet_loss(t_c: np.ndarray, p: AdapterParams, f_i: np.ndarray, f_s: np.ndarray,
                          margin: float) -> Tensor:
    """Mirror hinge for the category adapter ``p`` on text rows ``t_c``; f_s held constant."""
    return _triplet_loss(t_c, p, f_i, f_s, margin)
