"""Training objectives of the two adapters and the loss heads they are made of.

Every objective is one encoder optimiser step over both adapters, the four
(2, …) tensors of ``EncoderBundle.adapters``, as ``diffusion.ddpm_train_step``
is the denoiser's: a forward that returns each kind's value and a backward
that writes the gradients into the stacked ``flat_grad``, overwriting what
it held, so training takes no ``zero_grad`` or ``backward``; the step
returns the sum of the values as a float and leaves each kind's value in
``run.values``. Each takes ``(run, cfg)``, the run's constants, checked
once, and the config that holds its weights or margins, and scores the
batch the run's ``select`` chose. A labeled step (a ``_LabeledRun``,
``_labeled_forward``) runs one stacked adapter pass over both kinds' prompt
rows, then per factor one head through both adapters, its own adapter's
cross-entropy and the other's confusion term, each kind's value being its
cross-entropy plus lambda times its confusion term; it records no tape
node. An unlabeled step (a ``_TripletRun``, ``_triplet_forward``) runs one
stacked adapter pass over both kinds' half-caption rows and both hinges,
each kind's anchor being its own adapted rows and its negative the other
kind's, all as the adapters stood before the step; it zeroes the stacked
gradients and, when a row of either kind is active, records one tape node
over the four tensors and walks it with ``backward``. Their forwards and
hand-written backwards are put together from the numpy helpers below; the
tests build single-layer nodes (the adapter, ``class_logits``,
cross-entropy, the confusion term and the hinge) from the same helpers, and
each kind's value and gradient are the bits that ``zero_grad`` and
``backward`` through the composition of those nodes leave.
``train.gradcheck_suite`` audits each step's gradients against the central
differences of its forward.
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

    def grad(g, need_f=True):
        g_f = T._unit_rows_grad(g @ pn, fn, f_norm) if need_f else None
        return g_f, T._unit_rows_grad((fn.T @ g).T, pn, p_norm)

    return fn @ pn.T, grad  # the GEMM of the labeled step's heads


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
    """Log-softmax over the last axis of logits, (n, K) or stacked (2, n, K), shifted by each row's maximum."""
    shifted = x - x.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _log_softmax_grad(g: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Gradient at the logits of ``g``, the gradient at their log-softmax ``y``."""
    return g - np.exp(y) * g.sum(axis=-1, keepdims=True)


def _ce(y: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy of n checked labels under (n, K) log-probabilities ``y`` (a log-softmax), and
    its backward, which maps the gradient at the value to the gradient at ``y``."""
    n, rows = len(labels), np.arange(len(labels))

    def grad(g):
        g_picked = np.zeros_like(y)
        g_picked[rows, labels] = float(g * -1.0) / n
        return g_picked

    return np.asarray(y[rows, labels].sum() / n) * -1.0, grad  # the mean's bits, without its wrapper


def _confusion(y: np.ndarray, labels: np.ndarray, mode: str):
    """Adversarial term for the opposing attribute under (n, K) log-probabilities ``y`` against n checked
    labels, and its backward to ``y``.

    uniform-kl: cross-entropy of predictions against the uniform
    distribution (minimized exactly when predictions are uniform).
    negated-ce: the literal sign-flipped cross-entropy (unbounded below).
    ``ConfigError`` for another mode.
    """
    if mode == "uniform-kl":
        n, k = y.shape
        c = -1.0 / (n * k)
        return np.asarray(y.sum()) * c, lambda g: np.full(y.shape, float(g * c))
    if mode == "negated-ce":
        value, ce_grad = _ce(y, labels)
        return value * -1.0, lambda g: ce_grad(g * -1.0)
    raise ConfigError(f"unknown adversarial mode: {mode!r}")


def _hinge(anchor: np.ndarray, positive: np.ndarray, negative: np.ndarray, margin):
    """Mean over rows of relu(|anchor - positive| - |anchor - negative| + margin), its backward,
    and whether any row is active (its hinge argument above zero), per kind.

    ``anchor`` and ``negative`` are one kind's (n, D) rows, or k kinds' stacked (k, n, D) rows with
    ``margin`` (k, 1), one per kind; ``positive`` is (n, D) rows that every kind shares. The value and
    the activity have one entry per kind, and each kind's are the bits of its rows alone. The backward
    maps the gradient at each kind's value to the gradients of ``anchor`` and ``positive`` (of the
    anchor's shape); ``negative`` is a constant. A distance of zero passes no gradient. A kind with no
    active row has the value exactly 0.0 and, on finite rows, the backward gives it signed zeros.
    """
    if anchor.ndim not in (2, 3) or anchor.shape != negative.shape or positive.shape != anchor.shape[-2:]:
        raise T.ShapeError(f"triplet: need (n, D) or stacked (k, n, D) anchor and negative rows over (n, D) "
                           f"positive rows, got {anchor.shape}, {positive.shape} and {negative.shape}")
    n = anchor.shape[-2]
    diff_pos = anchor - positive
    diff_neg = anchor - negative
    d_pos = np.sqrt((diff_pos * diff_pos).sum(axis=-1))
    d_neg = np.sqrt((diff_neg * diff_neg).sum(axis=-1))
    pre = (d_pos - d_neg) + margin
    mask = pre > 0

    def grad(g):
        g_pre = np.asarray(g)[..., None] / n * mask
        u_pos = diff_pos / np.where(d_pos > 0, d_pos, 1.0)[..., None] * np.where(d_pos > 0, g_pre, 0.0)[..., None]
        u_neg = diff_neg / np.where(d_neg > 0, d_neg, 1.0)[..., None] * np.where(d_neg > 0, -g_pre, 0.0)[..., None]
        return u_pos + u_neg, -u_pos

    return np.where(mask, pre, 0.0).sum(axis=-1) / n, grad, mask.any(axis=-1)


# single-layer op


def class_logits(f: Tensor, prototypes: Tensor, scale: float = 1.0) -> Tensor:
    """Cosine similarity of (n, D) feature rows against (K, D) prototypes, times ``scale``: (n, K)."""
    cos, grad = _cosine(f.data, prototypes.data)
    return T.scale(T._node(cos, (f, prototypes), lambda g: grad(g, f.requires_grad)), scale)


# objectives: one optimiser step's gradients each


class _LabeledRun:
    """The constants of a labeled run, which its objective reads on every step.

    Built once per ``train_encoders`` run from all (N, D) image feature
    rows ``f_all``, their labels by kind and the ``encoders`` being trained,
    which it keeps. It checks, once, that ``f_all`` and each kind's prompt
    features are rows of the adapters' width D (``ShapeError``), that no row
    of ``f_all`` has (near-)zero norm and that each kind's labels are an
    (N,) array in [0, K) (``ValueError``). It holds the unit rows of
    ``f_all``, the checked labels, the (2, K_style + K_category, D) prompt
    rows of the stacked adapter pass, slice k being kind k's own prompt rows
    over the other kind's, and ``order``, the indices that put each slice's
    rows style first, as rows of one (2 (K_style + K_category), D) array.
    ``select(idx)`` makes rows ``idx`` the batch the objective scores; until
    then every row is. Rows are normalized one by one, so a selected row has
    the bits of the same row normalized within its batch.
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
        self.prompts = np.stack([np.concatenate([prompts[kind], prompts[_OTHER[kind]]]) for kind in _KINDS])
        ks, kc = len(prompts["style"]), len(prompts["category"])
        self.order = np.arange(2 * (ks + kc)).reshape(2, -1)
        self.order[1] = np.roll(self.order[1], ks)  # the category slice holds its own rows first
        self.fn, self.batch, self.values = self.unit, self.labels, {}

    def select(self, idx: np.ndarray) -> None:
        """Make rows ``idx`` the batch."""
        self.fn = self.unit[idx]
        self.batch = {kind: arr[idx] for kind, arr in self.labels.items()}


def _labeled_forward(run: _LabeledRun, cfg: TrainConfig):
    """Both adapters' labeled objectives on the batch ``run.select`` chose: their values, style first,
    and the backward that writes their gradients into ``run.encoders.adapters``.

    Adapter k's objective is cross-entropy on its own factor plus lambda
    times the confusion term on the other factor, both scored through
    adapter k; lambda is lambda1 for style and lambda2 for category. With
    lambda == 0 its value is exactly the plain cross-entropy term's. The
    image rows and labels are the run's, checked when it was built.

    One stacked adapter pass covers both kinds' prompt rows, each slice in
    its kind's own row order. Its rows are then put style first in both
    slices (``run.order``), so that per factor the logits through both
    adapters are one (2, n, K) product and one log-softmax, slice k being
    adapter k's. The backward writes the four gradients into the (2, …)
    ``grad`` views, overwriting their ``flat_grad``, with the bits that
    ``zero_grad`` and ``backward`` through a node of the values' sum would
    leave there, +0.0 for -0.0 included. Each parameter gradient is still
    the sum of one product per factor's rows, as on the layered tape; a
    slice's products and reductions are those of its kind stepped alone.
    """
    lam, scale, p = (cfg.lambda1, cfg.lambda2), float(cfg.logit_scale), run.encoders.adapters
    protos, adapt_grad = adapt_array(run.prompts, p)
    dim, split = protos.shape[-1], len(run.encoders.prompt_features["style"])
    pn, p_norm = T._unit_rows(protos.reshape(-1, dim)[run.order])
    heads, ce, conf = {}, {}, {}
    for i, (factor, rows) in enumerate(zip(_KINDS, (np.s_[:, :split], np.s_[:, split:]))):
        y = _log_softmax(np.matmul(run.fn, pn[rows].swapaxes(-1, -2)) * scale)
        ce[factor] = _ce(y[i], run.batch[factor])  # adapter i's own factor: its cross-entropy, the other's confusion
        conf[_OTHER[factor]] = _confusion(y[1 - i], run.batch[factor], cfg.adversarial_mode)
        heads[factor] = rows, y

    def write_grads():
        g_pn = np.empty_like(pn)
        for i, (factor, (rows, y)) in enumerate(heads.items()):
            g_y = np.empty_like(y)
            g_y[i], g_y[1 - i] = ce[factor][1](1.0), conf[_OTHER[factor]][1](lam[1 - i])
            g_pn[rows] = np.matmul(run.fn.T, _log_softmax_grad(g_y, y) * scale).swapaxes(-1, -2)
        g_protos = np.empty_like(protos)
        g_protos.reshape(-1, dim)[run.order] = T._unit_rows_grad(g_pn, pn, p_norm)
        for t, g in zip(p.tensors(), adapt_grad(g_protos, need_x=False, split=split, order=run.order)[1:]):
            t.grad[...] = g
        p.flat_grad += 0.0  # -0.0 to +0.0, as backward's add into a zeroed buffer gives

    return [ce[kind][0] + conf[kind][0] * lam[i] for i, kind in enumerate(_KINDS)], write_grads


def _leave(run, values) -> float:
    """Leave each kind's value in ``run.values``, style first, and return their sum as a float."""
    run.values = dict(zip(_KINDS, map(float, values)))
    return float(values[0] + values[1])


def style_labeled_loss(run: _LabeledRun, cfg: TrainConfig) -> float:
    """Both adapters' labeled objectives (``_labeled_forward``) on the batch ``run.select`` chose, as one
    step over the four (2, …) tensors of ``run.encoders.adapters``; the benchmark's step probe enters
    it by this name.

    Leaves each kind's value in ``run.values`` and returns their sum; as the
    adapters share no parameter, its gradient at each adapter is that
    adapter's own objective's. Records no tape node: it writes the
    gradients, under ``no_grad`` too.
    """
    values, write_grads = _labeled_forward(run, cfg)
    write_grads()
    return _leave(run, values)


class _TripletRun:
    """The constants of an unlabeled run: all (N, D) image feature rows ``f_all``, the frozen
    half-caption rows ``text``, one kind-major (2, N, D) array, style first, and the ``encoders``,
    checked once to be rows of the adapters' width D, the text N rows per kind (``ShapeError``).
    ``select(idx)`` makes rows ``idx`` the batch: the image rows, the positive that both kinds share,
    and the (2, n, D) text rows, a C-contiguous ``take``; until then every row is."""

    def __init__(self, f_all: np.ndarray, text: np.ndarray, encoders: EncoderBundle):
        dim = encoders.adapters.w1.shape[-2]
        if f_all.ndim != 2 or f_all.shape[1] != dim:
            raise T.ShapeError(f"triplet objective: image features {f_all.shape} must be rows of width {dim}")
        if text.shape != (2, len(f_all), dim):
            raise T.ShapeError(f"triplet objective: text {text.shape} must be {len(f_all)} rows of width {dim} "
                               "per kind, (2, N, D)")
        self.encoders, self.f_all, self.text, self.values = encoders, f_all, text, {}
        self.positive, self.batch = f_all, text

    def select(self, idx: np.ndarray) -> None:
        """Make rows ``idx`` the batch."""
        self.positive = self.f_all[idx]
        self.batch = self.text.take(idx, axis=1)


def _triplet_forward(run: _TripletRun, cfg: TrainConfig):
    """Both kinds' hinges on the batch ``run.select`` chose, from one stacked adapter pass over its
    (2, n, D) text rows: their (2,) values, style first, whether each has an active row, and the
    backward that maps the gradient at the values to the four (2, …) adapter gradients.

    The hinge of kind k anchors the adapted text rows y[k] at the image rows, the positive, and takes
    the other kind's y[1 - k] as its negative, a constant; its margin is margin1 for style and margin2
    for category. Activity is decided on the rows: a mean of active rows can underflow to 0.0.
    """
    y, adapt_grad = adapt_array(run.batch, run.encoders.adapters)
    values, hinge_grad, active = _hinge(y, run.positive, y[::-1], np.array([[cfg.margin1], [cfg.margin2]]))
    return values, active, lambda g: adapt_grad(hinge_grad(g)[0], need_x=False)[1:]


def style_triplet_loss(run: _TripletRun, cfg: TrainConfig) -> float:
    """Both adapters' hinges (``_triplet_forward``) on the batch ``run.select`` chose, as one step over the
    four (2, …) tensors of ``run.encoders.adapters``; the benchmark's step probe enters it by this name.

    Both hinges read the adapters as they stood before the step. Zeroes the stacked ``flat_grad``; when
    a row of either kind is active, records one tape node over the four tensors and runs ``backward``
    on it, which adds each kind's gradients into its half. A kind with no active row keeps +0.0 there.
    Leaves each kind's value in ``run.values`` and returns their sum as a float.
    """
    values, active, grad = _triplet_forward(run, cfg)
    p = run.encoders.adapters
    p.zero_grad()
    if active.any():
        T.backward(T._node(np.asarray(values[0] + values[1]), p.tensors(), grad))
    return _leave(run, values)
