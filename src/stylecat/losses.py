"""Training objectives of the two adapters and the loss heads they are made of.

Every encoder optimiser step records one tape node, whose parents are the
four tensors of the adapter being stepped. Each objective takes ``(run,
cfg)``, the run's constants, checked once, and the config that holds its
weights or margin, and scores the batch the run's ``select`` chose. The
labeled objectives (a ``_LabeledRun``) run the adapter once over both
factors' prompt features stacked, then the cosine logits of each factor and
cross-entropy plus lambda times the confusion term. The triplet objectives
(a ``_TripletRun``) run the adapter over the anchor's frozen text rows, or
take that pass from the other kind's step, and the hinge; when no triplet of
the batch is active their loss is the exact 0.0 with no parents, so that
step's ``backward`` runs no backward at all. Their forward and hand-written
backward are put together from the numpy helpers below; the tests build
single-layer nodes (the adapter, ``class_logits``, cross-entropy, the
confusion term and the hinge) from the same helpers, and an objective gives
the same bits as the composition of those nodes. ``train.gradcheck_suite``
audits the objectives themselves.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from . import tensor as T
from .checkpoint import ConfigError
from .encoders import _KINDS, _OTHER, EncoderBundle, adapt_array
from .tensor import Tensor

if TYPE_CHECKING:
    from .train import TrainConfig

ADVERSARIAL_MODES = ("uniform-kl", "negated-ce")


# numpy helpers: each returns a forward value and its backward


def _cosine(f: np.ndarray, prototypes: np.ndarray):
    """Cosine similarity of (n, D) rows against (K, D) prototype rows: (n, K), and its backward.

    The backward maps the gradient at the similarities to the gradients of
    ``f`` (None unless ``need_f``) and of ``prototypes``.
    """
    if f.ndim != 2 or prototypes.ndim != 2 or f.shape[1] != prototypes.shape[1]:
        raise T.ShapeError(f"class_logits: features {f.shape} and prototypes {prototypes.shape} "
                           "must be rows of one width")
    fn, f_norm = T._unit_rows(f)
    pn, p_norm = T._unit_rows(prototypes)
    pn_t = pn.T.copy()

    def grad(g, need_f=True):
        g_f = T._unit_rows_grad(g @ pn_t.T, fn, f_norm) if need_f else None
        return g_f, T._unit_rows_grad((fn.T @ g).T, pn, p_norm)

    return fn @ pn_t, grad


def _labels_array(labels, shape: tuple[int, int]) -> np.ndarray:
    """``labels`` as an int64 array, checked against the (n, K) ``shape`` of their logits."""
    n, k = shape
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


def _ce(logits: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy of softmax over (n, K) logits against n checked labels, and its backward."""
    n, rows, y = len(labels), np.arange(len(labels)), _log_softmax(logits)

    def grad(g):
        g_picked = np.zeros_like(y)
        g_picked[rows, labels] = float(g * -1.0) / n
        return _log_softmax_grad(g_picked, y)

    return np.asarray(y[rows, labels].sum() / n) * -1.0, grad  # the mean's bits, without its wrapper


def _confusion(logits: np.ndarray, labels: np.ndarray, mode: str):
    """Adversarial term for the opposing attribute on (n, K) logits against n checked labels, and its backward.

    uniform-kl: cross-entropy of predictions against the uniform
    distribution (minimized exactly when predictions are uniform).
    negated-ce: the literal sign-flipped cross-entropy (unbounded below).
    ``ConfigError`` for another mode.
    """
    if mode == "uniform-kl":
        n, k = logits.shape
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
    """Mean over rows of relu(|anchor - positive| - |anchor - negative| + margin), its backward,
    and whether any row is active (its hinge argument above zero).

    The backward returns the gradients of ``anchor`` and ``positive``;
    ``negative`` is a constant. A distance of zero passes no gradient. With
    no active row the value is exactly 0.0 and, on finite rows, the backward
    returns signed zeros.
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

    active = bool(mask.any())  # with none, the mean is exactly 0.0: no need to take it
    return (np.asarray(np.where(mask, pre, 0.0).sum() / n) if active else np.asarray(0.0)), grad, active


# single-layer op


def class_logits(f: Tensor, prototypes: Tensor, scale: float = 1.0) -> Tensor:
    """Cosine similarity of (n, D) feature rows against (K, D) prototypes, times ``scale``: (n, K)."""
    cos, grad = _cosine(f.data, prototypes.data)
    return T.scale(T._node(cos, (f, prototypes), lambda g: grad(g, f.requires_grad)), scale)


# objectives: one tape node per optimiser step


class _LabeledRun:
    """The constants of a labeled run, which its objectives read on every step.

    Built once per ``train_encoders`` run from all (N, D) image feature
    rows ``f_all``, their labels by kind and the ``encoders`` being trained,
    which it keeps. It checks, once, that ``f_all`` and each kind's prompt
    features are rows of the adapters' width D (``ShapeError``), that no row
    of ``f_all`` has (near-)zero norm and that each kind's labels are an
    (N,) array in [0, K) (``ValueError``). It holds the unit rows of
    ``f_all``, the checked labels, and per kind that kind's prompt rows
    stacked over the other kind's. ``select(idx)`` makes rows ``idx`` the
    batch the objectives score; until then every row is. Rows are
    normalized one by one, so a selected row has the bits of the same row
    normalized within its batch.
    """

    def __init__(self, f_all: np.ndarray, labels: dict[str, np.ndarray], encoders: EncoderBundle):
        dim = encoders.adapter("style").w1.shape[0]
        prompts = encoders.prompt_features
        for name, rows in (("image features", f_all), *prompts.items()):
            if rows.ndim != 2 or rows.shape[1] != dim:
                raise T.ShapeError(f"labeled objective: {name} {rows.shape} must be rows of width {dim}")
        self.encoders = encoders
        self.unit = T._unit_rows(f_all)[0]
        self.labels = {kind: _labels_array(labels[kind], (len(f_all), len(prompts[kind]))) for kind in _KINDS}
        self.prompts = {kind: np.concatenate([prompts[kind], prompts[other]]) for kind, other in _OTHER.items()}
        self.fn, self.batch = self.unit, self.labels

    def select(self, idx: np.ndarray) -> None:
        """Make rows ``idx`` the batch."""
        self.fn = self.unit[idx]
        self.batch = {kind: arr[idx] for kind, arr in self.labels.items()}


def _labeled_loss(run: _LabeledRun, cfg: TrainConfig, kind: str) -> Tensor:
    """Objective of the ``kind`` adapter of ``run.encoders`` on the batch ``run.select`` chose.

    Cross-entropy on its own factor plus lambda times the confusion term on
    the other factor, both scored through the ``kind`` adapter; lambda is
    lambda1 for style and lambda2 for category. With lambda == 0 the value
    is exactly the plain cross-entropy term's. The image rows and labels are
    the run's, checked when it was built.

    One adapter pass covers both factors' prompt rows, and the backward
    takes the two heads' gradients through it together; each parameter
    gradient is still the sum of one product per head, as on the layered tape.
    """
    lam = cfg.lambda1 if kind == "style" else cfg.lambda2
    scale = float(cfg.logit_scale)
    p, k, fn = run.encoders.adapter(kind), len(run.encoders.prompt_features[kind]), run.fn
    protos, adapt_grad = adapt_array(run.prompts[kind], p)
    pn, p_norm = T._unit_rows(protos)

    def head(rows, loss):  # one cosine GEMM per head: one GEMM over both heads' rows gives other bits
        value, loss_grad = loss((fn @ pn[rows].T) * scale)
        return value, lambda g: (fn.T @ (loss_grad(g) * scale)).T  # the gradient at pn[rows]

    value, ce_grad = head(np.s_[:k], lambda z: _ce(z, run.batch[kind]))
    conf, conf_grad = head(np.s_[k:], lambda z: _confusion(z, run.batch[_OTHER[kind]], cfg.adversarial_mode))

    def grad(g):  # the gradients of w1, b1, w2 and b2
        g_pn = np.concatenate([ce_grad(g), conf_grad(g * lam)])
        return adapt_grad(T._unit_rows_grad(g_pn, pn, p_norm), need_x=False, split=k)[1:]

    return T._node(value + conf * lam, (p.w1, p.b1, p.w2, p.b2), grad)


def style_labeled_loss(run: _LabeledRun, cfg: TrainConfig) -> Tensor:
    """Style-encoder objective on the run's labeled batch (lambda1)."""
    return _labeled_loss(run, cfg, "style")


def category_labeled_loss(run: _LabeledRun, cfg: TrainConfig) -> Tensor:
    """Mirror objective for the category encoder (swap roles, lambda2)."""
    return _labeled_loss(run, cfg, "category")


class _TripletRun:
    """The constants of an unlabeled run: all (N, D) image feature rows ``f_all``, each kind's (N, D)
    frozen half-caption rows ``text`` and the ``encoders``, checked once to be N rows of the adapters'
    width D (``ShapeError``). ``select(idx)`` makes rows ``idx`` the batch. A kind's step adapts the
    other kind's rows for its negative and keeps them, rows and backward: the other kind's step, next,
    takes them as its anchor, since their adapter has not been stepped in between."""

    def __init__(self, f_all: np.ndarray, text: dict[str, np.ndarray], encoders: EncoderBundle):
        dim = encoders.adapter("style").w1.shape[0]
        for name, rows in (("image features", f_all), *((f"{kind} text", text[kind]) for kind in _KINDS)):
            if rows.shape != (len(f_all), dim):
                raise T.ShapeError(f"triplet objective: {name} {rows.shape} must be {len(f_all)} rows of width {dim}")
        self.encoders, self.f_all, self.text = encoders, f_all, text
        self.select(np.s_[:])

    def select(self, idx: np.ndarray) -> None:
        """Make rows ``idx`` the batch."""
        self.positive = self.f_all[idx]
        self.batch = {kind: rows[idx] for kind, rows in self.text.items()}
        self.kept = {}

    def rows(self, kind: str):
        """The ``kind`` step's anchor, ``adapt_array`` of its text rows, and its negative rows."""
        other = _OTHER[kind]
        anchor = self.kept.get(kind) or adapt_array(self.batch[kind], self.encoders.adapter(kind))
        self.kept = {other: adapt_array(self.batch[other], self.encoders.adapter(other))}
        return anchor, self.kept[other][0]


def _triplet_loss(run: _TripletRun, cfg: TrainConfig, kind: str) -> Tensor:
    """Hinge of the ``kind`` adapter on the batch ``run.select`` chose (margin1 for style, margin2
    for category): anchor its adapted text rows, positive the image rows, negative the other
    adapter's rows, a constant. One tape node over the adapter's four tensors, or a parentless 0.0
    when no row is active, as decided on the rows: a mean of active rows can underflow to 0.0."""
    (anchor, adapt_grad), negative = run.rows(kind)
    value, hinge_grad, active = _hinge(anchor, run.positive, negative, cfg.margin1 if kind == "style" else cfg.margin2)
    if not active:
        return Tensor(value)
    p = run.encoders.adapter(kind)
    return T._node(value, (p.w1, p.b1, p.w2, p.b2), lambda g: adapt_grad(hinge_grad(g)[0], need_x=False)[1:])


def style_triplet_loss(run: _TripletRun, cfg: TrainConfig) -> Tensor:
    """Style-adapter hinge on the run's unlabeled batch (margin1); the category rows are held constant."""
    return _triplet_loss(run, cfg, "style")


def category_triplet_loss(run: _TripletRun, cfg: TrainConfig) -> Tensor:
    """Mirror hinge for the category adapter (margin2); the style rows are held constant."""
    return _triplet_loss(run, cfg, "category")
