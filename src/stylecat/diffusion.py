"""Toy conditional denoising diffusion on 2-D points.

A caption is decomposed into its style text and its category text; the
style adapter reads the one and the category adapter the other, each
blended with its frozen feature. The denoiser adds two value paths to its
hidden state, ``tau_style @ ws + tau_category @ wv``, and a small MLP head
predicts the injected noise. This is decoupled cross-attention (IP-Adapter,
Ye et al. 2023) with one token per path: a softmax over one key is 1, so
each attention path reduces to its value projection.

The denoiser has two forward bodies. Training (``predict_noise`` and
``ddpm_train_step``) runs the layered one, ``_LayeredBuffers``, and records
one tape node over the nine parameters. ``sample`` runs the folded one,
``_ReverseBuffers``, which composes the input layer into the first MLP
layer. The fold reassociates sums, so the two agree to within a few ulps
of the magnitudes summed, not to the bit: the tests hold one forward to
rtol = atol = 1e-12 and a 20-step sample to atol = 1e-10 of the layered
forward. Where every sum is exact, as on dyadic weights, they are equal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import tensor as T
from .backbone import embed_captions
from .captions import CategoryLexicon, split_caption
from .encoders import EncoderBundle, blend
from .tensor import ParamGroup, Tensor, no_grad

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

    The caption is split with the bundle's category names as the lexicon;
    the style adapter reads the style text and the category adapter the
    category text, and each adapted feature is blended with its frozen one.
    """
    texts = split_caption(caption, CategoryLexicon.from_words(encoders.category_names))
    f = embed_captions(texts, encoders.backbone)
    f_style, f_category = f[:1], f[1:]
    tau_s = blend(encoders.adapt_feature(f_style, "style"), f_style, alpha)
    tau_c = blend(encoders.adapt_feature(f_category, "category"), f_category, alpha)
    return GuidanceCondition(tau_style=tau_s, tau_category=tau_c)


def _check_rows(idx, n: int, limit: int, name: str) -> np.ndarray:
    """``idx`` as n integers in [0, limit); ShapeError otherwise (no wrap-around of negatives)."""
    idx = np.asarray(idx)
    if idx.shape != (n,) or idx.dtype.kind not in "iu" or (n and (idx.min() < 0 or idx.max() >= limit)):
        raise T.ShapeError(f"{name} must be {n} integers in [0, {limit})")
    return idx


def _check_timesteps(t_idx, n: int, steps: int) -> np.ndarray:
    """``t_idx`` as one integer timestep for every row (a 0-d array) or n of them; ShapeError otherwise."""
    t = np.asarray(t_idx)
    if t.ndim:
        return _check_rows(t, n, steps, "t_idx")
    if t.dtype.kind not in "iu" or not 0 <= t < steps:  # kind "b" refuses bools
        raise T.ShapeError(f"t_idx must be one integer in [0, {steps}) or {n} of them")
    return t


def _check_steps(schedule: DiffusionSchedule, params: DenoiserParams) -> None:
    if schedule.steps != params.time_embed.shape[0]:
        raise T.ShapeError(f"the schedule has {schedule.steps} steps but the denoiser embeds "
                           f"{params.time_embed.shape[0]} timesteps")


def _relu_(x: np.ndarray) -> np.ndarray:
    """``np.where(x > 0, x, 0.0)`` in place, to the bit.

    ``fmax`` maps NaN to 0.0 (``maximum`` would keep it), but it may keep a
    -0.0, so adding +0.0 turns that into +0.0 and changes nothing else.
    """
    np.fmax(x, 0.0, out=x)
    x += 0.0
    return x


def _check_condition(cond, dim: int) -> None:
    if not isinstance(cond, GuidanceCondition):
        raise TypeError(f"cond must be one GuidanceCondition, got {type(cond).__name__}")
    if cond.tau_style.shape[1] != dim:
        raise T.ShapeError(f"the condition must hold rows of the denoiser's width {dim}")


def _check_cond_idx(cond_idx, n: int, groups: int) -> np.ndarray | None:
    """``cond_idx`` as n row indices into a condition of G rows; may be None only when G = 1."""
    if cond_idx is not None:
        return _check_rows(cond_idx, n, groups, "cond_idx")
    if groups > 1:
        raise ValueError(f"cond_idx is required with a condition of {groups} rows")
    return None


class _LayeredBuffers:
    """The layered denoiser forward over n rows, and its backward, written into buffers.

    Built for one ``params`` object and one ``GuidanceCondition`` of G rows
    (``TypeError`` for another type, ``ShapeError`` for another width). It
    holds ``a``, ``hidden`` and ``out``, the gathered time or value rows,
    the backward's ``g_pre``, ``g_a`` and ReLU mask, and the flat
    ``bincount`` bins of the two row gathers: row r of ``time_bins`` (T, D)
    and of ``cond_bins`` (G, D) is ``r * D + arange(D)``. ``forward`` keeps
    its points, timesteps and condition indices for the backward, so every
    array ``record``'s node reads lives here until the next ``forward``; a
    node recorded before that raises ``RuntimeError`` in its backward
    rather than return gradients of overwritten buffers.
    """

    def __init__(self, params: DenoiserParams, cond: GuidanceCondition, n: int):
        steps, dim = params.time_embed.shape
        _check_condition(cond, dim)
        self.params, self.cond, self.n = params, cond, n
        self.leaves = params.tensors()
        self.time_bins = np.arange(steps * dim).reshape(steps, dim)
        self.cond_bins = np.arange(len(cond.tau_style) * dim).reshape(-1, dim)
        self.a, self.rows, self.hidden = np.empty((n, dim)), np.empty((n, dim)), np.empty((n, dim))
        self.out = np.empty((n, POINT_DIM))
        self.g_pre, self.g_a = np.empty((n, dim)), np.empty((n, dim))
        self.mask = np.empty((n, dim), dtype=bool)
        self.bins = np.empty((n, dim), dtype=np.int64)
        self.generation = 0

    def forward(self, z: np.ndarray, t: np.ndarray, cond_idx: np.ndarray | None) -> np.ndarray:
        """``out`` for checked (n, 2) points, timesteps (one or n) and condition indices (or None)."""
        p, cond = self.params, self.cond
        self.generation += 1
        self.z, self.t, self.cond_idx = z, t, cond_idx
        values = cond.tau_style @ p.ws.data + cond.tau_category @ p.wv.data
        a = np.matmul(z, p.in_w.data, out=self.a)
        a += p.in_b.data
        time = p.time_embed.data
        a += time[t] if t.ndim == 0 else time.take(t, axis=0, out=self.rows, mode="clip")
        a += values if len(values) == 1 else values.take(cond_idx, axis=0, out=self.rows, mode="clip")
        hidden = np.matmul(a, p.mlp_w1.data, out=self.hidden)
        hidden += p.mlp_b1.data
        _relu_(hidden)
        out = np.matmul(hidden, p.mlp_w2.data, out=self.out)
        out += p.mlp_b2.data
        return out

    def record(self, data, grad_at_out) -> Tensor:
        """One tape node of ``data`` over the nine parameters; ``grad_at_out(g)`` is the gradient at ``out``."""
        generation = self.generation

        def grad_fn(g):
            if self.generation != generation:
                raise RuntimeError("backward through a denoiser node whose workspace a later forward has "
                                   "overwritten; call backward before the next step")
            return self._grads(grad_at_out(g))

        return T._node(data, self.leaves, grad_fn)

    def _grads(self, g: np.ndarray) -> tuple:
        """The nine parameter gradients, in field order, given ``g``, the (n, 2) gradient at ``out``."""
        p, cond, n = self.params, self.cond, self.n
        g_pre = np.matmul(g, p.mlp_w2.data.T, out=self.g_pre)
        g_pre *= np.greater(self.hidden, 0, out=self.mask)
        g_a = np.matmul(g_pre, p.mlp_w1.data.T, out=self.g_a)
        time_rows = self.t if self.t.ndim else np.full(n, self.t)
        cond_rows = np.zeros(n, dtype=np.int64) if self.cond_idx is None else self.cond_idx
        g_values = self._scatter(g_a, self.cond_bins, cond_rows)
        return (self._scatter(g_a, self.time_bins, time_rows), self.z.T @ g_a, g_a.sum(axis=0),
                cond.tau_style.T @ g_values, cond.tau_category.T @ g_values,
                self.a.T @ g_pre, g_pre.sum(axis=0), self.hidden.T @ g, g.sum(axis=0))

    def _scatter(self, g: np.ndarray, table: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Sums of the rows of g by target row, shaped like ``table``: the gradient of a row gather.

        One ``bincount`` over the gathered bins adds each bin's terms in row
        order, as ``np.add.at`` does, so the sums are the same to the bit.
        """
        bins = table.take(rows, axis=0, out=self.bins, mode="clip")
        return np.bincount(bins.ravel(), weights=g.ravel(), minlength=table.size).reshape(table.shape)


class _ReverseBuffers:
    """The workspace of one ``sample`` call: its folded first layer and its buffers.

    Built once before the reverse loop for one ``params`` object, one
    one-row condition and n rows. With the condition's value row
    ``value = tau_s @ ws + tau_c @ wv`` it holds ``first``, (T, 3, D),
    whose ``first[t]`` stacks ``fold = in_w @ mlp_w1`` (rows 0-1) on the
    first MLP layer's pre-activation at z = 0 and timestep t,
    ``(in_b + time_embed[t] + value) @ mlp_w1 + mlp_b1`` (row 2); ``z1``,
    C-contiguous (3, n), points in rows 0-1 and 1.0 in row 2, so
    ``z1.T @ first[t]`` is the pre-activation in one GEMM; ``z``, the
    (n, 2) view of its point rows, a ``z_t`` that no step copies;
    ``mlp_b2`` tiled to (n, 2); and the buffers ``hidden`` and ``zeros``,
    (n, D), ``out``, the (n, 2) noise estimate, and ``noise``, the (n, 2)
    step noise. It is computed from the denoiser's weights, so it is valid
    only while ``params`` does not change. ``TypeError``, ``ShapeError``
    or ``ValueError`` for a condition of another type, width or row count.

    The ReLU is ``fmax(hidden, zeros)`` in one pass, against an array
    because a scalar operand misses numpy's vector loop (numpy 2.4): it maps
    NaN to 0.0 like ``_relu_`` but may leave a -0.0, which ``_relu_`` turns
    into +0.0. ``hidden`` feeds only the head's dot products, where a
    signed zero changes no sum with a nonzero term, and ``mlp_b2`` is added
    after.
    """

    def __init__(self, params: DenoiserParams, cond: GuidanceCondition, n: int):
        dim = params.time_embed.shape[1]
        _check_condition(cond, dim)
        if len(cond.tau_style) != 1:
            raise ValueError(f"sample takes a one-row condition, got one of {len(cond.tau_style)} rows")
        w1 = params.mlp_w1.data
        value = cond.tau_style @ params.ws.data + cond.tau_category @ params.wv.data
        self.params, self.cond, self.n = params, cond, n
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
        """``predict_noise``'s output written into ``out``, with no tape node; see ``predict_noise``."""
        if T._grad_enabled:
            raise RuntimeError("predict_noise: a forward into a workspace records no tape node; "
                               "call it under no_grad")
        if params is not self.params or cond is not self.cond or cond_idx is not None:
            raise ValueError("predict_noise: the workspace was built for another denoiser or condition, "
                             "and takes no cond_idx")
        if z_t is not self.z:
            z = np.asarray(z_t, dtype=np.float64)
            if z.shape != (self.n, POINT_DIM):
                raise T.ShapeError(f"z_t must be the workspace's ({self.n}, {POINT_DIM}) points, "
                                   f"got shape {z.shape}")
            self.z[...] = z
        steps = len(self.first)
        # type(), not isinstance(): a bool is an int but must reach the check, which refuses it
        t = t_idx if type(t_idx) is int and 0 <= t_idx < steps else _check_timesteps(t_idx, self.n, steps)
        hidden = np.matmul(self.z1.T, self.first[t], out=self.hidden)
        np.fmax(hidden, self.zeros, out=hidden)  # NaN to 0.0; a -0.0 left here meets only the head's dot products
        out = np.matmul(hidden, params.mlp_w2.data, out=self.out)
        out += self.mlp_b2
        return out


def predict_noise(params: DenoiserParams, z_t: np.ndarray, t_idx: int | np.ndarray, cond: GuidanceCondition,
                  cond_idx=None, *, buffers: _ReverseBuffers | None = None) -> Tensor:
    """Denoiser forward pass: (n, 2) noised points -> (n, 2) noise estimate.

    ``relu((z @ in_w + in_b + time_embed[t] + values[cond_idx]) @ mlp_w1 + mlp_b1) @ mlp_w2 + mlp_b2``
    with ``values = tau_s @ ws + tau_c @ wv`` over the condition's (G, D)
    style and category stacks, so each projection costs G x D x D whatever
    the number of rows. ``t_idx`` is one integer timestep for every row or n
    of them. ``cond`` is one ``GuidanceCondition`` of G rows;
    ``cond_idx[i]`` names row i's, and is required exactly when G > 1
    (``ValueError``). The ReLU maps a NaN pre-activation to 0.0.

    Without ``buffers`` this is the layered forward, one tape node over the
    nine ``DenoiserParams`` tensors. ``ShapeError`` for misshaped ``z_t``,
    ``t_idx`` or ``cond_idx``, indices out of range, timesteps that are not
    integers and a condition of another width; ``TypeError`` for a
    condition of another type.

    With ``buffers``, the workspace ``sample`` builds, this is the folded
    forward (``_ReverseBuffers``). It records no tape node and returns a
    tensor over the workspace's (n, 2) ``out``, which the next call
    overwrites. It agrees with the layered forward to rtol = atol = 1e-12,
    not to the bit. ``ValueError`` unless the call passes the ``params`` and
    the condition the workspace was built for and no ``cond_idx``;
    ``ShapeError`` unless ``z_t`` has the workspace's (n, 2) shape and the
    timesteps are integers in range; ``RuntimeError`` outside ``no_grad``.
    """
    if buffers is not None:
        return Tensor(buffers.forward(params, z_t, t_idx, cond, cond_idx))
    z = np.atleast_2d(np.asarray(z_t, dtype=np.float64))
    if z.ndim != 2 or z.shape[1] != POINT_DIM:
        raise T.ShapeError(f"z_t must be (n, {POINT_DIM}) points, got shape {z.shape}")
    n = z.shape[0]
    t = _check_timesteps(t_idx, n, params.time_embed.shape[0])
    layers = _LayeredBuffers(params, cond, n)
    out = layers.forward(z, t, _check_cond_idx(cond_idx, n, len(cond.tau_style)))
    return layers.record(out, lambda g: g)


def noise_regression_loss(eps_hat: Tensor, eps: np.ndarray) -> Tensor:
    """Mean over the batch of the squared L2 error per point; one tape node."""
    eps = np.asarray(eps, dtype=np.float64)
    if eps.shape != eps_hat.shape:
        raise T.ShapeError(f"noise of shape {eps.shape} for estimates of shape {eps_hat.shape}")
    diff = eps_hat.data - eps
    c = 1.0 / diff.shape[0]

    def grad_fn(g):
        gd = (float(g) * c) * diff
        return (gd + gd,)

    return T._node(np.asarray((diff * diff).sum()) * c, (eps_hat,), grad_fn)


class _TrainBuffers(_LayeredBuffers):
    """The workspace of one ``train_diffusion`` run: a ``_LayeredBuffers`` plus the step's own.

    Built once before the loop for one schedule, one ``params`` object, one
    stacked condition and n rows per batch. It checks the schedule against
    the denoiser (``ShapeError``) and the condition (see
    ``_LayeredBuffers``) once, holds the ``sqrt(alpha_bars)`` and
    ``sqrt(1 - alpha_bars)`` tables, the (n,) buffer ``coef`` that each
    gathers into, and the (n, 2) buffers of the noised points ``z_t``, the
    noise ``eps``, the error ``diff``, its gradient ``g_out`` and a scratch
    product. A step's node reads them, so it is valid until the next step.
    """

    def __init__(self, schedule: DiffusionSchedule, params: DenoiserParams, cond: GuidanceCondition, n: int):
        _check_steps(schedule, params)
        super().__init__(params, cond, n)
        self.schedule = schedule
        self.sqrt_ab, self.sqrt_1m_ab = np.sqrt(schedule.alpha_bars), np.sqrt(1.0 - schedule.alpha_bars)
        self.coef = np.empty(n)
        self.z_t, self.eps, self.diff, self.g_out, self.scratch = (np.empty((n, POINT_DIM)) for _ in range(5))

    def step(self, points: np.ndarray, cond_idx, cond: GuidanceCondition, schedule: DiffusionSchedule,
             params: DenoiserParams, rng: np.random.Generator) -> Tensor:
        """``ddpm_train_step`` on (n, 2) ``points`` for the run this workspace was built for."""
        if params is not self.params or cond is not self.cond or schedule is not self.schedule:
            raise ValueError("ddpm_train_step: the workspace was built for another denoiser, condition "
                             "or schedule")
        n = self.n
        if points.shape != (n, POINT_DIM):
            raise T.ShapeError(f"points must be the workspace's ({n}, {POINT_DIM}) batch, got shape {points.shape}")
        cond_idx = _check_cond_idx(cond_idx, n, len(cond.tau_style))
        t = rng.integers(0, schedule.steps, size=n)
        eps = rng.standard_normal(out=self.eps)
        # z_t = sqrt(abar[t]) * points + sqrt(1 - abar[t]) * eps, each product into a buffer
        col = self.coef[:, None]
        self.sqrt_ab.take(t, out=self.coef, mode="clip")
        z = np.multiply(col, points, out=self.z_t)
        self.sqrt_1m_ab.take(t, out=self.coef, mode="clip")
        z += np.multiply(col, eps, out=self.scratch)
        diff = np.subtract(self.forward(z, t, cond_idx), eps, out=self.diff)
        loss = np.asarray(np.multiply(diff, diff, out=self.scratch).sum()) * (1.0 / n)
        return self.record(loss, self._grad_at_out)

    def _grad_at_out(self, g) -> np.ndarray:
        """``noise_regression_loss``'s gradient at the estimate, 2 g diff / n, into ``g_out``."""
        gd = np.multiply(self.diff, float(g) * (1.0 / self.n), out=self.g_out)
        gd += gd
        return gd


def ddpm_train_step(
    points: np.ndarray,
    cond_idx: np.ndarray,
    condition: GuidanceCondition,
    schedule: DiffusionSchedule,
    params: DenoiserParams,
    rng: np.random.Generator,
    *,
    buffers: _TrainBuffers | None = None,
) -> Tensor:
    """One noise-prediction objective evaluation over a captioned point batch; one tape node.

    ``points`` is the (n, 2) batch, ``condition`` holds one row per caption
    (built once, no gradient) and ``cond_idx[i]`` names point i's. Samples a
    uniform timestep and then Gaussian noise per point, perturbs with the
    closed-form forward process, and scores one layered denoiser forward
    (``predict_noise``'s) over the whole batch with the mean squared error
    of ``noise_regression_loss``. The result is one tape node whose
    hand-written backward returns the gradients of all nine
    ``DenoiserParams`` tensors, the same to the bit as a backward through
    ``noise_regression_loss(predict_noise(...), eps)``.

    ``buffers`` is the run's workspace (``_TrainBuffers``), which
    ``train_diffusion`` builds once before its loop; without it the step
    builds a one-off workspace. The step writes into the workspace, so a
    node must be back-propagated before the next step into the same
    workspace, or its backward raises ``RuntimeError``.

    Before anything is drawn: ``ShapeError`` unless ``points`` is (n, 2)
    with n >= 1 (with a workspace, its n), if the schedule and the denoiser
    differ in their number of steps, or for misshaped or out-of-range
    ``cond_idx``; ``ValueError`` if ``cond_idx`` is missing for a condition
    of several rows or the workspace was built for another denoiser,
    condition or schedule; ``TypeError`` for a condition of another type.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != POINT_DIM or not len(points):
        raise T.ShapeError(f"points must be (n, {POINT_DIM}) with n >= 1, got shape {points.shape}")
    if buffers is None:
        buffers = _TrainBuffers(schedule, params, condition, len(points))
    return buffers.step(points, cond_idx, condition, schedule, params, rng)


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

    ``ValueError`` if n is not an integer >= 0 or the condition has more
    than one row; ``TypeError`` for a condition of another type;
    ``ShapeError`` if the schedule and the denoiser differ in their number
    of steps or the condition in its width.
    """
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise ValueError(f"sample: n must be an integer, got {n!r}")
    if n < 0:
        raise ValueError(f"sample: n must be >= 0, got {n}")
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
    with no_grad():
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
    2 x 2 quadratic form written out on (n, K) arrays.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if pts.ndim != 2 or pts.shape[1] != POINT_DIM:
        raise T.ShapeError(f"oracle_classify_batch: points must be (n, {POINT_DIM}), got shape {pts.shape}")
    ks, kc = mixture.n_styles, mixture.n_categories
    means = mixture.means.reshape(ks * kc, POINT_DIM)
    i00, i01, i10, i11 = mixture.inv_covs.reshape(ks * kc, POINT_DIM * POINT_DIM).T
    dx = pts[:, :1] - means[:, 0]                                   # (n, K)
    dy = pts[:, 1:] - means[:, 1]
    d2 = dx * (i00 * dx + i01 * dy) + dy * (i10 * dx + i11 * dy)
    best = d2.argmin(axis=1)
    return best // kc, best % kc
