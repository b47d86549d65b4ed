"""Toy conditional denoising diffusion on 2-D points.

A caption is decomposed into its style text and its category text; the
style adapter reads the one and the category adapter the other, each
blended with its frozen feature. The denoiser adds two value paths to its
hidden state, ``tau_style @ ws + tau_category @ wv``, and a small MLP head
predicts the injected noise. This is decoupled cross-attention (IP-Adapter,
Ye et al. 2023) with one token per path: a softmax over one key is 1, so
each attention path reduces to its value projection.

The denoiser has two forward bodies. ``predict_noise`` without a workspace
is the layered forward that training records on the tape: ``a = z @ in_w +
in_b + time_embed[t] + value``, ``hidden = relu(a @ mlp_w1 + mlp_b1)``,
``out = hidden @ mlp_w2 + mlp_b2``, with a timestep and a condition per row,
keeping ``a`` and ``hidden`` for its backward. ``sample`` has one condition
and one timestep per step, and nothing between the input layer and the
first MLP layer is nonlinear, so its workspace (``_ReverseBuffers``)
composes the two affine maps once per call into one (T, 3, D) stack
``first``: rows 0-1 of ``first[t]`` are ``fold = in_w @ mlp_w1`` and row 2
is ``table[t] = (in_b + time_embed[t] + value) @ mlp_w1 + mlp_b1``. A
reverse step is then one GEMM, ``[z, 1] @ first[t]``, over the points with
a ones column appended, a one-pass ReLU and the head ``@ mlp_w2 + mlp_b2``,
written into buffers allocated once. The fold reassociates sums, so the
two bodies agree to within a few ulps of the magnitudes summed, not to the
bit: the tests hold one forward to rtol = atol = 1e-12 and a 20-step sample
to atol = 1e-10 of the layered forward. Where every sum is exact, as on
dyadic weights, they are equal.
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
    f = embed_captions(texts, encoders.backbone).data
    f_style, f_category = Tensor(f[:1]), Tensor(f[1:])
    with no_grad():
        tau_s = blend(encoders.adapt_feature(f_style, "style"), f_style, alpha)
        tau_c = blend(encoders.adapt_feature(f_category, "category"), f_category, alpha)
    return GuidanceCondition(tau_style=tau_s.data, tau_category=tau_c.data)


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


def _scatter_rows(g: np.ndarray, rows: np.ndarray, n_rows: int) -> np.ndarray:
    """(n_rows, D) sums of the rows of g by target row: the gradient of a row gather.

    One ``bincount`` over ``row * D + col`` adds each bin's terms in row
    order, as ``np.add.at`` does, so the sums are the same to the bit.
    """
    d = g.shape[1]
    flat = (rows[:, None] * d + np.arange(d)).ravel()
    return np.bincount(flat, weights=g.ravel(), minlength=n_rows * d).reshape(n_rows, d)


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


class _ReverseBuffers:
    """The workspace of one ``sample`` call: its folded first layer and its buffers.

    Built once before the reverse loop for one ``params`` object, one
    one-row condition and n rows. With the condition's value row
    ``value = tau_s @ ws + tau_c @ wv`` it holds ``first``, (T, 3, D),
    whose ``first[t]`` stacks ``fold = in_w @ mlp_w1`` (rows 0-1) on the
    first MLP layer's pre-activation at z = 0 and timestep t,
    ``(in_b + time_embed[t] + value) @ mlp_w1 + mlp_b1`` (row 2); ``z1``,
    (n, 3), whose last column is 1.0 and whose first two each step
    overwrites with the points, so ``z1 @ first[t]`` is the pre-activation
    in one GEMM with no broadcast add; ``mlp_b2`` tiled to (n, 2); and the
    buffers ``hidden``, (n, D), ``out``, the (n, 2) noise estimate, and
    ``noise``, the (n, 2) step noise. It is computed from the denoiser's
    weights, so it is valid only while ``params`` does not change.
    ``TypeError``, ``ShapeError`` or ``ValueError`` for a condition of
    another type, width or row count.

    The ReLU is ``fmax(hidden, 0.0)`` in one pass: it maps NaN to 0.0 like
    ``_relu_`` but may leave a -0.0, which ``_relu_`` turns into +0.0.
    ``hidden`` feeds only the head's dot products, where a signed zero
    changes no sum with a nonzero term, and ``mlp_b2`` is added after.
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
        self.z1 = np.ones((n, POINT_DIM + 1))
        self.mlp_b2 = np.tile(params.mlp_b2.data, (n, 1))
        self.hidden = np.empty((n, dim))
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
        z = np.asarray(z_t, dtype=np.float64)
        if z.shape != (self.n, POINT_DIM):
            raise T.ShapeError(f"z_t must be the workspace's ({self.n}, {POINT_DIM}) points, "
                               f"got shape {z.shape}")
        t = _check_timesteps(t_idx, self.n, params.time_embed.shape[0])
        self.z1[:, :POINT_DIM] = z
        hidden = np.matmul(self.z1, self.first[t], out=self.hidden)
        np.fmax(hidden, 0.0, out=hidden)  # NaN to 0.0; a -0.0 left here meets only the head's dot products
        out = np.matmul(hidden, params.mlp_w2.data, out=self.out)
        out += self.mlp_b2
        return out


def predict_noise(params: DenoiserParams, z_t: np.ndarray, t_idx: int | np.ndarray, cond: GuidanceCondition,
                  cond_idx=None, *, buffers: _ReverseBuffers | None = None) -> Tensor:
    """Denoiser forward pass: (n, 2) noised points -> (n, 2) noise estimate.

    ``relu((z @ in_w + in_b + time_embed[t] + values[cond_idx]) @ mlp_w1 + mlp_b1) @ mlp_w2 + mlp_b2``
    with ``values = tau_s @ ws + tau_c @ wv`` over the condition's (G, D)
    style and category stacks, so each projection costs G x D x D whatever
    the number of rows. ``t_idx`` is one integer timestep for every row, as
    the sampler passes it, or n of them. ``cond`` is one ``GuidanceCondition``
    of G rows; ``cond_idx[i]`` names row i's, and is required exactly when
    G > 1. With G = 1 the value row, like a shared timestep, is added as one
    broadcast row. The ReLU maps a NaN pre-activation to 0.0, so a NaN
    weight leaves the forward finite and shows in the gradients.

    Without ``buffers`` this is the layered forward, which adds, in order,
    ``z @ in_w``, ``in_b``, the time row and the value row, then
    ``mlp_b1`` after the first MLP layer and ``mlp_b2`` after the head. The
    result is one tape node whose hand-written backward returns the
    gradients of all nine ``DenoiserParams`` tensors. Misshaped ``z_t``,
    ``t_idx`` or ``cond_idx``, indices out of range, timesteps that are not
    integers and a condition of another width raise ``ShapeError``.

    With ``buffers``, the workspace ``sample`` builds for its reverse loop,
    the forward is the folded one, ``relu([z, 1] @ first[t]) @ mlp_w2 +
    mlp_b2`` with ``first[t]`` the fold stacked on the timestep's constant
    row and a one-pass ReLU (see ``_ReverseBuffers``), written into the
    workspace, so a step allocates no rows. It returns a tensor over the
    ``out`` buffer, which the next call overwrites, and records no tape
    node. The fold reassociates each pre-activation's sum, so the estimate
    agrees with the layered one to within a few ulps of the magnitudes
    summed (rtol = atol = 1e-12 in the tests), not to the bit. The call
    must pass the ``params`` and the condition the workspace was built for
    and no ``cond_idx`` (``ValueError``), ``z_t`` of the workspace's (n, 2)
    shape and integer timesteps in range (``ShapeError``), and run under
    ``no_grad`` (``RuntimeError``).
    """
    if buffers is not None:
        return Tensor(buffers.forward(params, z_t, t_idx, cond, cond_idx))
    z = np.atleast_2d(np.asarray(z_t, dtype=np.float64))
    if z.ndim != 2 or z.shape[1] != POINT_DIM:
        raise T.ShapeError(f"z_t must be (n, {POINT_DIM}) points, got shape {z.shape}")
    n = z.shape[0]
    steps, dim = params.time_embed.shape
    t = _check_timesteps(t_idx, n, steps)
    _check_condition(cond, dim)
    style, category = cond.tau_style, cond.tau_category
    groups = len(style)
    if cond_idx is not None:
        cond_idx = _check_rows(cond_idx, n, groups, "cond_idx")
    elif groups > 1:
        raise ValueError(f"cond_idx is required with a condition of {groups} rows")

    w1, w2 = params.mlp_w1.data, params.mlp_w2.data
    values = style @ params.ws.data + category @ params.wv.data
    a = z @ params.in_w.data
    a += params.in_b.data
    a += params.time_embed.data[t]
    a += values if groups == 1 else values[cond_idx]
    hidden = a @ w1
    hidden += params.mlp_b1.data
    _relu_(hidden)
    out = hidden @ w2
    out += params.mlp_b2.data

    def grad_fn(g):
        g_pre = (g @ w2.T) * (hidden > 0)
        g_a = g_pre @ w1.T
        idx = np.zeros(n, dtype=np.int64) if cond_idx is None else cond_idx
        g_values = _scatter_rows(g_a, idx, groups)
        return (_scatter_rows(g_a, np.broadcast_to(t, (n,)), steps), z.T @ g_a, g_a.sum(axis=0),
                style.T @ g_values, category.T @ g_values,
                a.T @ g_pre, g_pre.sum(axis=0), hidden.T @ g, g.sum(axis=0))

    return T._node(out, params.tensors(), grad_fn)


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


def ddpm_train_step(
    points: np.ndarray,
    cond_idx: np.ndarray,
    condition: GuidanceCondition,
    schedule: DiffusionSchedule,
    params: DenoiserParams,
    rng: np.random.Generator,
) -> Tensor:
    """One noise-prediction objective evaluation over a captioned point batch.

    ``points`` is the (n, 2) batch, ``condition`` holds one row per caption
    (built once, no gradient) and ``cond_idx[i]`` names point i's. Samples a
    uniform timestep and then Gaussian noise per point, perturbs with the
    closed-form forward process, and scores one denoiser forward over the
    whole batch. ``ShapeError``, before anything is drawn, if the schedule
    and the denoiser differ in their number of steps.
    """
    _check_steps(schedule, params)
    n = len(points)
    t = rng.integers(0, schedule.steps, size=n)
    eps = rng.standard_normal((n, POINT_DIM))
    ab = schedule.alpha_bars[t][:, None]
    z_t = np.sqrt(ab) * points + np.sqrt(1.0 - ab) * eps
    return noise_regression_loss(predict_noise(params, z_t, t, condition, cond_idx), eps)


def sample(
    n: int,
    condition: GuidanceCondition,
    schedule: DiffusionSchedule,
    params: DenoiserParams,
    seed: int = 0,
) -> np.ndarray:
    """Ancestral sampling from pure noise; bit-reproducible per seed.

    Before the loop, ``sample`` builds one workspace (``_ReverseBuffers``)
    for its one-row condition and n rows: it folds the input layer into the
    first MLP layer and stacks the fold on each timestep's constant row,
    ``first`` (T, 3, D), keeps the points in an (n, 3) buffer with a ones
    column, tiles ``mlp_b2`` to (n, 2), and allocates the hidden rows, the
    noise estimate and the step noise once. Each reverse step is one
    ``predict_noise`` call into that workspace with one integer timestep
    for all n rows: one GEMM ``[z, 1] @ first[t]``, a one-pass ReLU, then
    ``@ mlp_w2 + mlp_b2``; no step allocates. The fold reassociates sums,
    so the samples agree with a loop over the layered forward to within
    rounding (atol = 1e-10 on a 20-step sample in the tests), not to the
    bit. Step noise uses the forward-posterior variance
    (1 - abar_{t-1}) / (1 - abar_t) * beta_t and is drawn into its buffer,
    the same stream as fresh draws. The per-step coefficients are computed
    for every t before the loop; IEEE division and square root round
    correctly, so each equals the scalar it replaces.
    ``z`` is updated in place and returned.

    ``ValueError`` if n is not an integer >= 0 or the condition has more
    than one row; ``ShapeError`` if the schedule and the denoiser differ in
    their number of steps or the condition in its width.
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
    z = rng.standard_normal((n, POINT_DIM))
    noise = buffers.noise
    with no_grad():
        for t in range(schedule.steps - 1, -1, -1):
            eps_hat = predict_noise(params, z, t, condition, buffers=buffers).data
            eps_hat *= shrink[t]
            z -= eps_hat
            z /= scale[t]
            if t > 0:
                rng.standard_normal(out=noise)
                noise *= sd[t - 1]
                z += noise
    return z


def oracle_classify_batch(points: np.ndarray, mixture) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized nearest-component labels for an (n, 2) point array."""
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    ks, kc = mixture.n_styles, mixture.n_categories
    means = mixture.means.reshape(ks * kc, POINT_DIM)
    inv = mixture.inv_covs.reshape(ks * kc, POINT_DIM, POINT_DIM)
    diff = pts[:, None, :] - means[None, :, :]                      # (n, K, 2)
    d2 = np.einsum("nki,kij,nkj->nk", diff, inv, diff)
    best = d2.argmin(axis=1)
    return best // kc, best % kc
