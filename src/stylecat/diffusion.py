"""Toy conditional denoising diffusion on 2-D points.

The denoiser is a single cross-attention block whose keys come from the
style condition and values from the category condition, followed by a
small MLP head predicting the injected noise. Conditions are the adapted
text features blended with the frozen caption feature.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import tensor as T
from .backbone import embed_caption
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
    """Trainable denoiser: input/time embedding, one attention block, MLP head."""

    time_embed: Tensor   # [T, D]
    in_w: Tensor         # [2, D]
    in_b: Tensor         # [D]
    wq: Tensor           # [D, D]
    wk: Tensor           # [D, D]
    wv: Tensor           # [D, D]
    wo: Tensor           # [D, D]
    mlp_w1: Tensor       # [D, D]
    mlp_b1: Tensor       # [D]
    mlp_w2: Tensor       # [D, 2]
    mlp_b2: Tensor       # [2]
    cond_offsets: Tensor | None = None  # [L, D] when using L > 1 condition tokens

    @classmethod
    def init(cls, dim: int = 32, steps: int = 200, seed: int = 0, n_cond_tokens: int = 1) -> "DenoiserParams":
        rng = np.random.default_rng(seed)

        def mat(rows, cols, scl):
            return Tensor(scl * rng.standard_normal((rows, cols)), requires_grad=True)

        s = 1.0 / np.sqrt(dim)
        offsets = None
        if n_cond_tokens > 1:
            offsets = Tensor(0.1 * rng.standard_normal((n_cond_tokens, dim)), requires_grad=True)
        return cls(
            time_embed=Tensor(0.1 * rng.standard_normal((steps, dim)), requires_grad=True),
            in_w=mat(POINT_DIM, dim, 1.0 / np.sqrt(POINT_DIM)),
            in_b=Tensor(np.zeros(dim), requires_grad=True),
            wq=mat(dim, dim, s),
            wk=mat(dim, dim, s),
            wv=mat(dim, dim, s),
            wo=mat(dim, dim, s),
            mlp_w1=mat(dim, dim, s),
            mlp_b1=Tensor(np.zeros(dim), requires_grad=True),
            mlp_w2=mat(dim, POINT_DIM, s),
            mlp_b2=Tensor(np.zeros(POINT_DIM), requires_grad=True),
            cond_offsets=offsets,
        )

    @property
    def dim(self) -> int:
        return self.in_w.shape[1]


@dataclass
class GuidanceCondition:
    """Unit-row token matrices feeding the key/value split."""

    tau_style: np.ndarray     # [L, D]
    tau_category: np.ndarray  # [L, D]

    def __post_init__(self):
        self.tau_style = np.atleast_2d(np.asarray(self.tau_style, dtype=np.float64))
        self.tau_category = np.atleast_2d(np.asarray(self.tau_category, dtype=np.float64))
        if self.tau_style.shape != self.tau_category.shape:
            raise ValueError("style and category token matrices must share a shape")
        for name, m in (("tau_style", self.tau_style), ("tau_category", self.tau_category)):
            norms = np.linalg.norm(m, axis=1)
            if np.any(np.abs(norms - 1.0) > 1e-6):
                raise ValueError(f"{name} rows must be unit-norm")


def attention(q: Tensor, k: Tensor, v: Tensor, mask: np.ndarray | None = None) -> Tensor:
    """Row-wise softmax(q k^T / sqrt(d) + mask) v.

    ``mask`` is a constant additive [n, keys] array; -inf hides a key from a row.
    """
    if q.data.ndim != 2 or k.data.ndim != 2 or v.data.ndim != 2:
        raise T.ShapeError("attention operands must be 2-D")
    if q.shape[1] != k.shape[1]:
        raise T.ShapeError(f"attention: query/key dims differ, {q.shape} vs {k.shape}")
    if k.shape[0] != v.shape[0]:
        raise T.ShapeError(f"attention: key/value row counts differ, {k.shape} vs {v.shape}")
    scores = T.scale(T.matmul(q, T.transpose(k)), 1.0 / np.sqrt(q.shape[1]))
    if mask is not None:
        scores = T.add(scores, Tensor(mask))
    return T.matmul(T.softmax(scores, axis=1), v)


def _condition_tokens(tau: np.ndarray, params: DenoiserParams, groups: int = 1) -> Tensor:
    """Token rows of ``groups`` stacked conditions, each ``len(tau) // groups`` rows.

    Conditions given as one row each are expanded into L learned-offset
    tokens if configured, giving ``groups * L`` rows grouped by condition.
    """
    base = Tensor(tau)
    if params.cond_offsets is None or tau.shape[0] != groups:
        return base
    l = params.cond_offsets.shape[0]
    offsets = params.cond_offsets
    if groups > 1:
        offsets = T.take_rows(offsets, np.tile(np.arange(l), groups))
    repeated = Tensor(np.repeat(tau, l, axis=0))
    return T.normalize(T.add(repeated, offsets))


def _as_conditions(cond, cond_idx, n: int) -> list[GuidanceCondition]:
    """Validate one condition, or a list of them plus an (n,) row index."""
    conds = [cond] if isinstance(cond, GuidanceCondition) else list(cond)
    if not conds:
        raise ValueError("at least one condition is required")
    if len({c.tau_style.shape for c in conds}) != 1:
        raise T.ShapeError("all conditions must have the same token shape")
    if cond_idx is None:
        if len(conds) > 1:
            raise ValueError("cond_idx is required with more than one condition")
        return conds
    idx = np.asarray(cond_idx)
    if (idx.shape != (n,) or not np.issubdtype(idx.dtype, np.integer)
            or np.any(idx < 0) or np.any(idx >= len(conds))):
        raise T.ShapeError(f"cond_idx must be {n} integers in [0, {len(conds)})")
    return conds


def split_cross_attention(z_hidden: Tensor, cond, params: DenoiserParams, cond_idx=None) -> Tensor:
    """Keys from the style tokens, values from the category tokens, plus residual.

    ``cond`` is one ``GuidanceCondition`` shared by every row, or a list of G
    conditions with ``cond_idx[i]`` naming row i's condition. The G
    conditions' L tokens each are stacked into one [G*L, D] key and one
    value matrix, and a constant block mask (0 on the row's own L keys,
    -inf elsewhere) confines each row's softmax to its own condition. One
    condition is the G = 1 case and builds no mask.
    """
    conds = _as_conditions(cond, cond_idx, z_hidden.shape[0])
    g = len(conds)
    # One condition passes its own arrays through: no copy, no mask.
    style = conds[0].tau_style if g == 1 else np.concatenate([c.tau_style for c in conds])
    category = conds[0].tau_category if g == 1 else np.concatenate([c.tau_category for c in conds])
    q = T.matmul(z_hidden, params.wq)
    k = T.matmul(_condition_tokens(style, params, g), params.wk)
    v = T.matmul(_condition_tokens(category, params, g), params.wv)
    mask = None
    if g > 1:
        key_group = np.repeat(np.arange(g), k.shape[0] // g)
        mask = np.where(np.asarray(cond_idx)[:, None] == key_group[None, :], 0.0, -np.inf)
    return T.add(T.matmul(attention(q, k, v, mask), params.wo), z_hidden)


def standard_cross_attention(z_hidden: Tensor, tau: np.ndarray, params: DenoiserParams) -> Tensor:
    """Single-condition block: keys and values from the same token matrix."""
    tokens = _condition_tokens(np.atleast_2d(tau), params)
    q = T.matmul(z_hidden, params.wq)
    k = T.matmul(tokens, params.wk)
    v = T.matmul(tokens, params.wv)
    return T.add(T.matmul(attention(q, k, v), params.wo), z_hidden)


def build_conditions(
    style_text: str,
    category_text: str,
    encoders: EncoderBundle,
    alpha: float,
    caption: str | None = None,
) -> GuidanceCondition:
    """Blend adapted and frozen caption features into condition tokens.

    Both encoders read the full caption (reassembled from the two text
    parts when not given explicitly); the split only decides which encoder
    feeds keys and which feeds values downstream.
    """
    if caption is None:
        caption = " ".join(part for part in (style_text, category_text) if part)
    with no_grad():
        f_text = embed_caption(caption, encoders.backbone)
        f_s = encoders.encode_caption(caption, "style")
        f_c = encoders.encode_caption(caption, "category")
        tau_s = blend(f_s, f_text, alpha)
        tau_c = blend(f_c, f_text, alpha)
    return GuidanceCondition(tau_style=tau_s.data[None, :], tau_category=tau_c.data[None, :])


def condition_for_caption(caption: str, encoders: EncoderBundle, alpha: float) -> GuidanceCondition:
    return build_conditions(caption, "", encoders, alpha, caption=caption)


def predict_noise(params: DenoiserParams, z_t: np.ndarray, t_idx: np.ndarray, cond,
                  cond_idx=None) -> Tensor:
    """Denoiser forward pass: (n, 2) noised points -> (n, 2) noise estimate.

    ``cond`` is one ``GuidanceCondition`` for every row, or a list of them
    with the per-row index ``cond_idx``; see ``split_cross_attention`` for
    the block mask that keeps each row on its own condition.
    """
    z = Tensor(np.atleast_2d(z_t))
    h = T.add(T.add(T.matmul(z, params.in_w), params.in_b), T.take_rows(params.time_embed, t_idx))
    a = split_cross_attention(h, cond, params, cond_idx)
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
    closed-form forward process, and scores one block-masked denoiser
    forward over the whole batch.
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


def oracle_classify(point, mixture) -> tuple[int, int]:
    """Nearest mixture component by Mahalanobis distance (total function)."""
    s, c = oracle_classify_batch(np.asarray(point, dtype=np.float64)[None, :], mixture)
    return int(s[0]), int(c[0])


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
