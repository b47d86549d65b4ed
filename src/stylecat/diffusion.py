"""Toy conditional denoising diffusion on 2-D points.

A caption is decomposed into its style text and its category text; the
style adapter reads the one and the category adapter the other, each
blended with its frozen feature. The denoiser adds two value paths to its
hidden state, ``tau_style @ ws + tau_category @ wv``, and a small MLP head
predicts the injected noise. This is decoupled cross-attention (IP-Adapter,
Ye et al. 2023) with one token per path: a softmax over one key is 1, so
each attention path reduces to its value projection.
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
    def make(cls, steps: int = 200, beta_start: float = 1e-4, beta_end: float = 0.02) -> "DiffusionSchedule":
        return cls(betas=np.linspace(beta_start, beta_end, steps))

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
    def init(cls, dim: int = 32, steps: int = 200, seed: int = 0) -> "DenoiserParams":
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

    @property
    def dim(self) -> int:
        return self.in_w.shape[1]


@dataclass
class GuidanceCondition:
    """One (1, D) unit row per factor: the style path's and the category path's input."""

    tau_style: np.ndarray     # [1, D]
    tau_category: np.ndarray  # [1, D]

    def __post_init__(self):
        self.tau_style = np.atleast_2d(np.asarray(self.tau_style, dtype=np.float64))
        self.tau_category = np.atleast_2d(np.asarray(self.tau_category, dtype=np.float64))
        if self.tau_style.shape[0] != 1 or self.tau_style.shape != self.tau_category.shape:
            raise ValueError("a condition holds one style row and one category row of one width")
        for name, m in (("tau_style", self.tau_style), ("tau_category", self.tau_category)):
            if not abs(np.linalg.norm(m) - 1.0) <= 1e-6:  # also refuses NaN
                raise ValueError(f"{name} rows must be unit-norm")


def value_paths(h: Tensor, cond, params: DenoiserParams, cond_idx=None) -> Tensor:
    """``h + take_rows(tau_s @ ws + tau_c @ wv, cond_idx)``: both value paths plus the residual.

    ``cond`` is one ``GuidanceCondition`` shared by every row, or a list of G
    conditions with ``cond_idx[i]`` naming row i's condition. The G style and
    category rows are stacked into (G, D) matrices, so each projection costs
    G x D x D whatever the number of rows.
    """
    n = h.shape[0]
    conds = [cond] if isinstance(cond, GuidanceCondition) else list(cond)
    if not conds:
        raise ValueError("at least one condition is required")
    if len({c.tau_style.shape for c in conds}) != 1:
        raise T.ShapeError("all conditions must have the same width")
    if cond_idx is None:
        if len(conds) > 1:
            raise ValueError("cond_idx is required with more than one condition")
        cond_idx = np.zeros(n, dtype=np.int64)
    idx = np.asarray(cond_idx)
    if (idx.shape != (n,) or not np.issubdtype(idx.dtype, np.integer)
            or np.any(idx < 0) or np.any(idx >= len(conds))):
        raise T.ShapeError(f"cond_idx must be {n} integers in [0, {len(conds)})")
    style = Tensor(np.concatenate([c.tau_style for c in conds]))
    category = Tensor(np.concatenate([c.tau_category for c in conds]))
    values = T.add(T.matmul(style, params.ws), T.matmul(category, params.wv))
    return T.add(h, T.take_rows(values, idx))


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


def predict_noise(params: DenoiserParams, z_t: np.ndarray, t_idx: np.ndarray, cond,
                  cond_idx=None) -> Tensor:
    """Denoiser forward pass: (n, 2) noised points -> (n, 2) noise estimate.

    ``cond`` is one ``GuidanceCondition`` for every row, or a list of them
    with the per-row index ``cond_idx``; see ``value_paths``.
    """
    z = Tensor(np.atleast_2d(z_t))
    h = T.add(T.add(T.matmul(z, params.in_w), params.in_b), T.take_rows(params.time_embed, t_idx))
    a = value_paths(h, cond, params, cond_idx)
    hidden = T.relu(T.add(T.matmul(a, params.mlp_w1), params.mlp_b1))
    return T.add(T.matmul(hidden, params.mlp_w2), params.mlp_b2)


def noise_regression_loss(eps_hat: Tensor, eps: np.ndarray) -> Tensor:
    """Mean over the batch of the squared L2 error per point."""
    diff = T.sub(eps_hat, Tensor(eps))
    return T.scale(T.tensor_sum(T.mul(diff, diff)), 1.0 / diff.shape[0])


def ddpm_train_step(
    points: np.ndarray,
    cond_idx: np.ndarray,
    conditions: Sequence[GuidanceCondition],
    schedule: DiffusionSchedule,
    params: DenoiserParams,
    rng: np.random.Generator,
) -> Tensor:
    """One noise-prediction objective evaluation over a captioned point batch.

    ``points`` is the (n, 2) batch and ``cond_idx[i]`` indexes the
    condition (built once per caption, no gradient) of row i. Samples a
    uniform timestep and then Gaussian noise per point, perturbs with the
    closed-form forward process, and scores one denoiser forward over the
    whole batch.
    """
    n = len(points)
    t = rng.integers(0, schedule.steps, size=n)
    eps = rng.standard_normal((n, POINT_DIM))
    ab = schedule.alpha_bars[t][:, None]
    z_t = np.sqrt(ab) * points + np.sqrt(1.0 - ab) * eps
    return noise_regression_loss(predict_noise(params, z_t, t, conditions, cond_idx), eps)


def sample(
    n: int,
    condition: GuidanceCondition,
    schedule: DiffusionSchedule,
    params: DenoiserParams,
    seed: int = 0,
) -> np.ndarray:
    """Ancestral sampling from pure noise; bit-reproducible per seed.

    Step noise uses the forward-posterior variance
    (1 - abar_{t-1}) / (1 - abar_t) * beta_t.
    """
    if n < 0:
        raise ValueError(f"sample: n must be >= 0, got {n}")
    rng = np.random.default_rng(seed)
    if n == 0:
        return np.zeros((0, POINT_DIM))
    z = rng.standard_normal((n, POINT_DIM))
    with no_grad():
        for t in range(schedule.steps - 1, -1, -1):
            eps_hat = predict_noise(params, z, np.full(n, t), condition).data
            beta = schedule.betas[t]
            z = (z - beta / np.sqrt(1.0 - schedule.alpha_bars[t]) * eps_hat) / np.sqrt(schedule.alphas[t])
            if t > 0:
                var = (1.0 - schedule.alpha_bars[t - 1]) / (1.0 - schedule.alpha_bars[t]) * beta
                z = z + np.sqrt(var) * rng.standard_normal((n, POINT_DIM))
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
