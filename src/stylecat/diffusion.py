"""Toy conditional denoising diffusion on 2-D points.

A caption is decomposed into its style text and its category text; the
style adapter reads the one and the category adapter the other, each
blended with its frozen feature. The denoiser adds two value paths to its
hidden state, ``tau_style @ ws + tau_category @ wv``, and a small MLP head
predicts the injected noise. This is decoupled cross-attention (IP-Adapter,
Ye et al. 2023) with one token per path: a softmax over one key is 1, so
each attention path reduces to its value projection.

The denoiser has two forward bodies. ``predict_noise`` and
``ddpm_train_step`` run the layered one, ``_LayeredBuffers``, with its
hand-written backward: ``predict_noise`` runs its forward alone and records
no tape node, and ``ddpm_train_step`` runs forward, loss and backward in one
call on the run's ``_TrainBuffers``, which holds the run's points and
checked them once, when it was built; the step draws its own batch, checks
nothing, writes the gradients into the denoiser's ``flat_grad`` and returns
the loss as a float. The layered body takes one input form, n timesteps and
n condition indices; ``predict_noise`` gives a one-row condition's missing
indices as zeros. Its first layer and that layer's gradient are one GEMM
over ``[z | 1]``, equal to the bias added apart to the bit where a test pins
it on the BLAS in use: D in {8, 32, 64}, n in {1, 2, 7, 256, 1000, 4096};
elsewhere untested. ``sample`` runs the folded one, ``_ReverseBuffers``,
which composes the input layer into the first MLP layer. The fold
reassociates sums, so the two agree to within a few ulps of the magnitudes
summed, not to the bit: the tests hold one forward to rtol = atol = 1e-12
and a 20-step sample to atol = 1e-10 of the layered forward. Where every sum
is exact, as on dyadic weights, they are equal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import tensor as T
from .backbone import embed_captions
from .captions import decompose
from .datagen import DatasetError
from .encoders import _KINDS, EncoderBundle, blend
from .tensor import ParamGroup, Tensor

POINT_DIM = 2
BETA_START = 1e-4  # the linear noise schedule's first and last beta
BETA_END = 0.02


@dataclass
class DiffusionSchedule:
    betas: np.ndarray
    alphas: np.ndarray = field(init=False)
    alpha_bars: np.ndarray = field(init=False)

    def __post_init__(self):
        b = self.betas
        if b.ndim != 1 or np.any(b <= 0) or np.any(b >= 1) or np.any(np.diff(b) < 0):
            raise ValueError("betas must be an increasing 1-D array inside (0, 1)")
        self.alphas = 1.0 - b
        self.alpha_bars = np.cumprod(self.alphas)

    @classmethod
    def make(cls, steps: int) -> "DiffusionSchedule":
        return cls(betas=np.linspace(BETA_START, BETA_END, steps))

    @property
    def steps(self) -> int:
        return len(self.betas)


@dataclass
class DenoiserParams(ParamGroup):
    """Trainable denoiser: input/time embedding, style and category value weights, MLP head."""

    time_embed: Tensor   # [T, D]
    in_w: Tensor         # [2, D]
    in_b: Tensor         # [D]
    ws: Tensor           # [D, D] style value weight
    wv: Tensor           # [D, D] category value weight
    mlp_w1: Tensor       # [D, D]
    mlp_b1: Tensor       # [D]
    mlp_w2: Tensor       # [D, 2]
    mlp_b2: Tensor       # [2]

    @classmethod
    def init(cls, dim: int, steps: int, seed: int = 0) -> "DenoiserParams":
        rng = np.random.default_rng(seed)

        def mat(rows, cols, scl):
            return Tensor(scl * rng.standard_normal((rows, cols)), requires_grad=True)

        s = 1.0 / np.sqrt(dim)
        return cls(
            time_embed=Tensor(0.1 * rng.standard_normal((steps, dim)), requires_grad=True),
            in_w=mat(POINT_DIM, dim, 1.0 / np.sqrt(POINT_DIM)),
            in_b=Tensor(np.zeros(dim), requires_grad=True),
            ws=mat(dim, dim, s),
            wv=mat(dim, dim, s),
            mlp_w1=mat(dim, dim, s),
            mlp_b1=Tensor(np.zeros(dim), requires_grad=True),
            mlp_w2=mat(dim, POINT_DIM, s),
            mlp_b2=Tensor(np.zeros(POINT_DIM), requires_grad=True),
        )


@dataclass
class GuidanceCondition:
    """G >= 1 conditions as two (G, D) stacks of unit rows: the style and the category path inputs.

    A caption's condition has G = 1; ``stack`` concatenates conditions, in
    order, into one whose row g is condition g's.
    """

    tau_style: np.ndarray     # [G, D]
    tau_category: np.ndarray  # [G, D]

    def __post_init__(self):
        self.tau_style = np.atleast_2d(np.asarray(self.tau_style, dtype=np.float64))
        self.tau_category = np.atleast_2d(np.asarray(self.tau_category, dtype=np.float64))
        if self.tau_style.ndim != 2 or not len(self.tau_style) or self.tau_style.shape != self.tau_category.shape:
            raise ValueError("a condition holds G >= 1 style rows and as many category rows, all of one width")
        for name, m in (("tau_style", self.tau_style), ("tau_category", self.tau_category)):
            if not (np.abs(np.linalg.norm(m, axis=1) - 1.0) <= 1e-6).all():  # also refuses NaN
                raise ValueError(f"{name} rows must be unit-norm")

    @classmethod
    def stack(cls, conditions: Sequence["GuidanceCondition"]) -> "GuidanceCondition":
        return cls(tau_style=np.concatenate([c.tau_style for c in conditions]),
                   tau_category=np.concatenate([c.tau_category for c in conditions]))


def condition_for_caption(caption: str, encoders: EncoderBundle, alpha: float) -> GuidanceCondition:
    """The condition of a caption: each adapter reads its own half of the decomposed caption.

    The caption is split with the bundle's ``lexicon``, of its category
    names, as training splits it; the style adapter reads the style text
    and the category adapter the category text, and each adapted feature
    is blended with its frozen one.
    """
    texts = decompose(caption, encoders.lexicon)
    f = embed_captions(texts, encoders.backbone)
    return GuidanceCondition(*(blend(encoders.adapt_feature(f[k : k + 1], kind), f[k : k + 1], alpha)
                               for k, kind in enumerate(_KINDS)))


def _check_rows(idx, n: int, limit: int, name: str) -> np.ndarray:
    """``idx`` as n integers in [0, limit); ShapeError otherwise (no wrap-around of negatives)."""
    idx = np.asarray(idx)
    if idx.shape != (n,) or idx.dtype.kind not in "iu" or (n and (idx.min() < 0 or idx.max() >= limit)):
        raise T.ShapeError(f"{name} must be {n} integers in [0, {limit})")
    return idx


def _check_steps(schedule: DiffusionSchedule, params: DenoiserParams) -> None:
    if schedule.steps != params.time_embed.shape[0]:
        raise T.ShapeError(f"the schedule has {schedule.steps} steps but the denoiser embeds "
                           f"{params.time_embed.shape[0]} timesteps")


def _relu_(x: np.ndarray, zeros: np.ndarray) -> np.ndarray:
    """``np.where(x > 0, x, 0.0)`` in place, to the bit; ``zeros`` of x's shape are twice as fast as 0.0.

    ``fmax`` maps NaN to 0.0 (``maximum`` would keep it), but it may keep a
    -0.0, so adding +0.0 turns that into +0.0 and changes nothing else.
    """
    np.fmax(x, zeros, out=x)
    x += 0.0
    return x


def _input_rows(params: DenoiserParams, buf: np.ndarray) -> np.ndarray:
    """The (3, D) view of ``buf``, ``flat`` or ``flat_grad``, over ``in_w`` and then ``in_b``, adjacent fields."""
    return buf[params.time_embed.size :][: params.in_w.size + params.in_b.size].reshape(POINT_DIM + 1, -1)


def _check_condition(cond, dim: int) -> None:
    if not isinstance(cond, GuidanceCondition):
        raise TypeError(f"cond must be one GuidanceCondition, got {type(cond).__name__}")
    if cond.tau_style.shape[1] != dim:
        raise T.ShapeError(f"the condition must hold rows of the denoiser's width {dim}")


class _LayeredBuffers:
    """The layered denoiser forward over n rows, written into buffers.

    Built for one ``params`` object and one ``GuidanceCondition`` of G rows
    (``TypeError`` for another type, ``ShapeError`` for another width).
    It holds only what ``forward`` reads. ``z1``, C-contiguous (3, n): the
    points in rows 0-1, their (n, 2) view ``z``, and 1.0 in row 2; ``first``,
    ``_input_rows`` of ``flat``, so ``z1.T @ first`` is the input layer with
    its bias. ``values``, ``values_c``: (G, D); ``a``, ``rows``, ``hidden``, ``zeros``: (n, D).
    """

    def __init__(self, params: DenoiserParams, cond: GuidanceCondition, n: int):
        dim = params.time_embed.shape[1]
        _check_condition(cond, dim)
        self.params, self.cond, self.n = params, cond, n
        self.first, self.z1 = _input_rows(params, params.flat), np.ones((POINT_DIM + 1, n))
        self.z = self.z1[:POINT_DIM].T
        self.values, self.values_c = (np.empty((len(cond.tau_style), dim)) for _ in range(2))
        self.a, self.rows, self.hidden = np.empty((n, dim)), np.empty((n, dim)), np.empty((n, dim))
        self.zeros, self.out = np.zeros((n, dim)), np.empty((n, POINT_DIM))

    def forward(self, t: np.ndarray, cond_idx: np.ndarray) -> np.ndarray:
        """``out`` for the points in ``z`` and n checked timesteps and condition indices, which it keeps."""
        p, cond = self.params, self.cond
        self.t, self.cond_idx = t, cond_idx
        values = np.matmul(cond.tau_style, p.ws.data, out=self.values)
        values += np.matmul(cond.tau_category, p.wv.data, out=self.values_c)
        a = np.matmul(self.z1.T, self.first, out=self.a)
        a += p.time_embed.data.take(t, axis=0, out=self.rows, mode="clip")
        a += values.take(cond_idx, axis=0, out=self.rows, mode="clip")
        hidden = np.matmul(a, p.mlp_w1.data, out=self.hidden)
        hidden += p.mlp_b1.data
        _relu_(hidden, self.zeros)
        out = np.matmul(hidden, p.mlp_w2.data, out=self.out)
        out += p.mlp_b2.data
        return out


class _ReverseBuffers:
    """The workspace of one ``sample`` call: its folded first layer and its buffers.

    Built before the reverse loop for one ``params`` object, one one-row
    condition and n rows; ``TypeError``, ``ShapeError`` or ``ValueError``
    for a condition of another type, width or row count. Valid only while
    ``params`` does not change. ``first``, (T, 3, D): rows 0-1 are
    ``in_w @ mlp_w1``, row 2 is ``(in_b + time_embed[t] + value) @ mlp_w1 + mlp_b1``
    with ``value = tau_s @ ws + tau_c @ wv``. ``z1``, C-contiguous (3, n):
    points in rows 0-1 and 1.0 in row 2, so ``z1.T @ first[t]`` is the
    pre-activation; ``z`` is the (n, 2) view of its point rows. ``mlp_b2``
    tiled to (n, 2); ``hidden`` and ``zeros``, (n, D); ``out`` and
    ``noise``, (n, 2). Its ReLU maps NaN to 0.0 like ``_relu_`` but may keep
    a -0.0, which changes none of the head's sums with a nonzero term.
    """

    def __init__(self, params: DenoiserParams, cond: GuidanceCondition, n: int):
        dim = params.time_embed.shape[1]
        _check_condition(cond, dim)
        if len(cond.tau_style) != 1:
            raise ValueError(f"sample takes a one-row condition, got one of {len(cond.tau_style)} rows")
        w1 = params.mlp_w1.data
        value = cond.tau_style @ params.ws.data + cond.tau_category @ params.wv.data
        self.params, self.cond = params, cond
        steps = params.time_embed.shape[0]
        self.first = np.empty((steps, POINT_DIM + 1, dim))
        self.first[:, :POINT_DIM] = params.in_w.data @ w1
        self.first[:, POINT_DIM] = (params.in_b.data + params.time_embed.data + value) @ w1 + params.mlp_b1.data
        self.z1 = np.ones((POINT_DIM + 1, n))
        self.z = self.z1[:POINT_DIM].T
        self.mlp_b2 = np.tile(params.mlp_b2.data, (n, 1))
        self.hidden, self.zeros = np.empty((n, dim)), np.zeros((n, dim))
        self.out, self.noise = np.empty((n, POINT_DIM)), np.empty((n, POINT_DIM))

    def forward(self, params: DenoiserParams, z_t: np.ndarray, t_idx, cond: GuidanceCondition,
                cond_idx) -> np.ndarray:
        """``predict_noise``'s output written into ``out``; see ``predict_noise``."""
        if params is not self.params or cond is not self.cond or cond_idx is not None:
            raise ValueError("predict_noise: the workspace was built for another denoiser or condition, "
                             "and takes no cond_idx")
        if z_t is not self.z:
            raise ValueError("predict_noise: z_t must be the workspace's own points, buffers.z")
        # type(), not isinstance(): a bool is an int
        if type(t_idx) is not int or not 0 <= t_idx < len(self.first):
            raise T.ShapeError(f"predict_noise: t_idx must be one plain int in [0, {len(self.first)})")
        hidden = np.matmul(self.z1.T, self.first[t_idx], out=self.hidden)
        np.fmax(hidden, self.zeros, out=hidden)  # NaN to 0.0; a -0.0 left here meets only the head's dot products
        out = np.matmul(hidden, params.mlp_w2.data, out=self.out)
        out += self.mlp_b2
        return out


def predict_noise(params: DenoiserParams, z_t: np.ndarray, t_idx: int | np.ndarray, cond: GuidanceCondition,
                  cond_idx=None, *, buffers: _ReverseBuffers | None = None) -> Tensor:
    """Denoiser forward pass: (n, 2) noised points -> (n, 2) noise estimate, a ``Tensor`` with no parents.

    ``relu((z @ in_w + in_b + time_embed[t] + values[cond_idx]) @ mlp_w1 + mlp_b1) @ mlp_w2 + mlp_b2``
    with ``values = tau_s @ ws + tau_c @ wv`` over the condition's (G, D)
    style and category stacks, so each projection costs G x D x D whatever
    the number of rows. ``cond`` is one ``GuidanceCondition`` of G rows. The
    ReLU maps a NaN pre-activation to 0.0. Neither form records a tape node,
    in grad mode or under ``no_grad``.

    Without ``buffers`` this is the layered forward. ``t_idx`` is n integer
    timesteps, one per row, and ``cond_idx[i]`` names row i's condition row;
    it may be left out only when G = 1, for n zeros (``ValueError`` when
    G > 1). ``ShapeError`` for misshaped ``z_t``, ``t_idx`` or ``cond_idx``
    (one scalar timestep included), indices out of range, timesteps that
    are not integers and a condition of another width; ``TypeError`` for a
    condition of another type.

    With ``buffers``, ``sample``'s ``_ReverseBuffers``, this is the folded
    forward, within rtol = atol = 1e-12 of the layered one: a tensor over
    its (n, 2) ``out``, which the next call overwrites. ``ValueError``
    unless ``params``, ``cond`` and ``z_t`` (``buffers.z``) are the
    workspace's and ``cond_idx`` is None; ``ShapeError`` unless ``t_idx`` is
    one plain ``int`` in range (no numpy integer, bool or array).
    """
    if buffers is not None:
        return Tensor(buffers.forward(params, z_t, t_idx, cond, cond_idx))
    z = np.atleast_2d(np.asarray(z_t, dtype=np.float64))
    if z.ndim != 2 or z.shape[1] != POINT_DIM:
        raise T.ShapeError(f"z_t must be (n, {POINT_DIM}) points, got shape {z.shape}")
    n = z.shape[0]
    t = _check_rows(t_idx, n, params.time_embed.shape[0], "t_idx")
    layers, groups = _LayeredBuffers(params, cond, n), len(cond.tau_style)
    if cond_idx is None and groups > 1:
        raise ValueError(f"cond_idx is required with a condition of {groups} rows")
    cond_idx = np.zeros(n, np.intp) if cond_idx is None else _check_rows(cond_idx, n, groups, "cond_idx")
    layers.z[...] = z
    return Tensor(layers.forward(t, cond_idx))


class _TrainBuffers(_LayeredBuffers):
    """The workspace of one ``train_diffusion`` run: its points, a ``_LayeredBuffers`` of one batch, and the
    backward's and the step's own buffers.

    Built once before the loop for one schedule, one ``params`` object, one
    stacked condition of G rows, the run's (N, 2) ``points`` with their N
    condition indices ``cond_idx``, and ``batch`` >= 1 rows per step. It
    checks them all once, and no step checks them again: ``ShapeError`` for
    ``batch`` < 1, a schedule of another length than the denoiser's, points
    that are not N >= 1 rows of 2 coordinates, or indices that are not N
    integers in [0, G); ``DatasetError``, naming the first, for a point with
    a NaN or infinite coordinate, which would leave the loss finite and
    poison two gradients; the condition as ``_LayeredBuffers`` does. It
    keeps its own copies, ``points`` and ``point_cond``.
    ``ddpm_train_step`` gathers each batch into ``batch_xy`` and
    ``batch_cond`` and writes z_t into ``z``; ``_grads``, valid until the
    next ``forward``, writes the gradients into the ``grad`` views of
    ``flat_grad``.
    """

    def __init__(self, schedule: DiffusionSchedule, params: DenoiserParams, cond: GuidanceCondition,
                 points, cond_idx, batch: int):
        if batch < 1:
            raise T.ShapeError(f"a training batch needs n >= 1 rows, got {batch}")
        _check_steps(schedule, params)
        super().__init__(params, cond, batch)
        self.points = np.array(points, dtype=np.float64)
        if self.points.ndim != 2 or self.points.shape[1] != POINT_DIM or not len(self.points):
            raise T.ShapeError(f"points must be N >= 1 rows of {POINT_DIM} coordinates, got shape {self.points.shape}")
        bad = np.flatnonzero(~np.isfinite(self.points).all(axis=1))
        if bad.size:
            raise DatasetError(f"diffusion point {bad[0]} is not finite: {self.points[bad[0]]}")
        self.point_cond = _check_rows(np.array(cond_idx), len(self.points), len(cond.tau_style), "cond_idx")
        self.batch_xy, self.batch_cond = np.empty((batch, POINT_DIM)), np.empty(batch, self.point_cond.dtype)
        self.time_bins, self.cond_bins = (np.arange(x.size).reshape(x.shape) for x in (params.time_embed, self.values))
        self.g_pre, self.g_a = np.empty_like(self.a), np.empty_like(self.a)
        self.mask, self.bins = np.empty(self.a.shape, dtype=bool), np.empty(self.a.shape, dtype=np.int64)
        self.schedule, self.grads = schedule, [x.grad for x in params.tensors()]
        self.g_first = _input_rows(params, params.flat_grad)
        self.sqrt_ab, self.sqrt_1m_ab = np.sqrt(schedule.alpha_bars), np.sqrt(1.0 - schedule.alpha_bars)
        self.coef = np.empty(batch)
        self.eps, self.diff, self.g_out = (np.empty((batch, POINT_DIM)) for _ in range(3))
        self.scratch = np.empty((POINT_DIM, batch))

    def _grads(self, g: np.ndarray) -> None:
        """The nine parameter gradients, given ``g``, the (n, 2) gradient at ``out``, written into
        ``flat_grad``: ``in_w``'s and ``in_b``'s by one GEMM, ``z1 @ g_a``, into ``g_first``.

        A gradient that is a product or a sum may be -0.0 where ``backward``'s
        add into a zeroed buffer gives +0.0; the ``bincount`` ones never are.
        """
        p, cond = self.params, self.cond
        g_time, _, _, g_ws, g_wv, g_w1, g_b1, g_w2, g_b2 = self.grads
        g_pre = np.matmul(g, p.mlp_w2.data.T, out=self.g_pre)
        g_pre *= np.greater(self.hidden, 0, out=self.mask)
        g_a = np.matmul(g_pre, p.mlp_w1.data.T, out=self.g_a)
        g_values = self._scatter(g_a, self.cond_bins, self.cond_idx)
        g_time[...] = self._scatter(g_a, self.time_bins, self.t)
        np.matmul(self.z1, g_a, out=self.g_first)
        np.matmul(cond.tau_style.T, g_values, out=g_ws)
        np.matmul(cond.tau_category.T, g_values, out=g_wv)
        np.matmul(self.a.T, g_pre, out=g_w1)
        g_pre.sum(axis=0, out=g_b1)
        np.matmul(self.hidden.T, g, out=g_w2)
        g.sum(axis=0, out=g_b2)

    def _scatter(self, g: np.ndarray, table: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Sums of the rows of g by target row, shaped like ``table``: the gradient of a row gather.

        One ``bincount`` over the gathered bins adds each bin's terms in row
        order, as ``np.add.at`` does, so the sums are the same to the bit.
        """
        bins = table.take(rows, axis=0, out=self.bins, mode="clip")
        return np.bincount(bins.ravel(), weights=g.ravel(), minlength=table.size).reshape(table.shape)


def ddpm_train_step(buffers: _TrainBuffers, rng: np.random.Generator) -> float:
    """One noise-prediction training step on a batch of the run's captioned points: the loss, as a float.

    ``buffers`` is the run's ``_TrainBuffers``, which holds its denoiser,
    its stacked condition, its schedule and its points with their condition
    rows, all checked once when it was built; the step checks nothing. It
    draws the batch's n point indices, uniform with replacement, then a
    uniform timestep per point, then Gaussian noise, and returns the mean
    squared error of the layered forward's estimate. It records no tape
    node: it writes all nine ``DenoiserParams`` gradients into the
    denoiser's ``flat_grad``, overwriting what it held, the same to the bit
    as ``zero_grad`` and ``backward`` through the tests' two-node reference
    ``noise_regression_loss(predict_noise(...), eps)``
    (``tests/layered_ops.py``) leave there.
    """
    b, n = buffers, buffers.n
    rows = rng.integers(0, len(b.points), size=n)
    points = b.points.take(rows, axis=0, out=b.batch_xy, mode="clip")
    cond_idx = b.point_cond.take(rows, out=b.batch_cond, mode="clip")
    t = rng.integers(0, b.schedule.steps, size=n)
    eps = rng.standard_normal(out=b.eps)
    # z_t = sqrt(abar[t]) * points + sqrt(1 - abar[t]) * eps, each product into (2, n) rows
    b.sqrt_ab.take(t, out=b.coef, mode="clip")
    z = np.multiply(b.coef, points.T, out=b.z1[:POINT_DIM])
    b.sqrt_1m_ab.take(t, out=b.coef, mode="clip")
    z += np.multiply(b.coef, eps.T, out=b.scratch)
    diff = np.subtract(b.forward(t, cond_idx), eps, out=b.diff)
    loss = np.multiply(diff, diff, out=b.g_out).sum() * (1.0 / n)
    g = np.multiply(diff, 1.0 / n, out=b.g_out)  # the loss's gradient at the estimate, 2 diff / n
    g += g
    b._grads(g)
    b.params.flat_grad += 0.0  # -0.0 to +0.0, as backward's add into a zeroed buffer gives
    return float(loss)


def sample(
    n: int,
    condition: GuidanceCondition,
    schedule: DiffusionSchedule,
    params: DenoiserParams,
    seed: int = 0,
) -> np.ndarray:
    """Ancestral sampling of n points, a new C-contiguous (n, 2) array, from pure noise; bit-reproducible per seed.

    The points live in the rows of one workspace built before the loop
    (``_ReverseBuffers``); each step runs the folded forward on its ``z``,
    so the samples agree with the layered forward's loop to within rounding
    (atol = 1e-10 on a 20-step sample in the tests), not to the bit. Step
    noise has the forward-posterior variance (1 - abar_{t-1}) / (1 - abar_t) * beta_t.

    ``ValueError`` if n is not an integer >= 0, the seed is negative or the
    condition has more than one row; ``TypeError`` for a condition of
    another type; ``ShapeError`` if the schedule and the denoiser differ in
    their number of steps or the condition in its width.
    """
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise ValueError(f"sample: n must be an integer, got {n!r}")
    if n < 0:
        raise ValueError(f"sample: n must be >= 0, got {n}")
    if seed < 0:
        raise ValueError(f"sample: seed must be >= 0, got {seed}")
    _check_steps(schedule, params)
    buffers = _ReverseBuffers(params, condition, n)
    rng = np.random.default_rng(seed)
    if n == 0:
        return np.zeros((0, POINT_DIM))
    ab = schedule.alpha_bars
    shrink = schedule.betas / np.sqrt(1.0 - ab)
    scale = np.sqrt(schedule.alphas)
    sd = np.sqrt((1.0 - ab[:-1]) / (1.0 - ab[1:]) * schedule.betas[1:])  # sd[t - 1] is step t's
    points = buffers.z1[:POINT_DIM]  # (2, n): on the (n, 2) view numpy's inner loop would run over 2 elements
    points[...] = rng.standard_normal((n, POINT_DIM)).T
    noise = buffers.noise
    for t in range(schedule.steps - 1, -1, -1):
        eps_hat = predict_noise(params, buffers.z, t, condition, buffers=buffers).data
        eps_hat *= shrink[t]
        points -= eps_hat.T
        points /= scale[t]
        if t > 0:
            rng.standard_normal(out=noise)
            noise *= sd[t - 1]
            points += noise.T
    return points.T.copy()


def oracle_classify_batch(points: np.ndarray, mixture) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized nearest-component labels for an (n, 2) point array.

    The squared Mahalanobis distance to each of the K components is the
    2 x 2 quadratic form written out on (n, K) arrays. ValueError naming the
    first point that is not finite, which no component is nearest to.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if pts.ndim != 2 or pts.shape[1] != POINT_DIM:
        raise T.ShapeError(f"oracle_classify_batch: points must be (n, {POINT_DIM}), got shape {pts.shape}")
    if not np.isfinite(pts).all():
        raise ValueError(f"oracle_classify_batch: point {np.isfinite(pts).all(axis=1).argmin()} is not finite")
    ks, kc = mixture.n_styles, mixture.n_categories
    means = mixture.means.reshape(ks * kc, POINT_DIM)
    i00, i01, i10, i11 = mixture.inv_covs.reshape(ks * kc, POINT_DIM * POINT_DIM).T
    dx = pts[:, :1] - means[:, 0]                                   # (n, K)
    dy = pts[:, 1:] - means[:, 1]
    d2 = dx * (i00 * dx + i01 * dy) + dy * (i10 * dx + i11 * dy)
    best = d2.argmin(axis=1)
    return best // kc, best % kc
