"""Adapter-augmented style and category encoders over the frozen backbone.

Each encoder adds a small trainable bottleneck delta to the frozen text
feature and re-normalizes; with the zero-initialized output layer the
untrained encoders reproduce the backbone exactly. ``blend`` implements
the residual mixing of adapted and frozen features.

Frozen features, prompt features and blends are plain (n, D) arrays.
``adapt_array`` is the adapter's numpy forward and hand-written backward,
for one adapter or, stacked, for both. The training objectives in ``losses``
run its backward inside each optimiser step, and
``EncoderBundle.adapt_feature`` runs its forward alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .backbone import FrozenWeights, embed_captions
from .captions import CategoryLexicon
from .tensor import ParamGroup, Tensor

PROMPT_TEMPLATES = {"style": "a {} style", "category": "a {}"}
_KINDS = ("style", "category")  # the two adapters, in training-step order
_OTHER = {"style": "category", "category": "style"}


@dataclass
class AdapterParams(ParamGroup):
    """Two linear layers with a ReLU bottleneck; all four tensors trainable."""

    w1: Tensor  # [D, H]
    b1: Tensor  # [H]
    w2: Tensor  # [H, D]
    b2: Tensor  # [D]

    @classmethod
    def init(cls, dim: int, seed: int = 0) -> "AdapterParams":
        """Uniform first layer, zero-initialized output layer, ``dim // 4`` hidden units.

        The zero output layer makes a fresh adapter the identity delta, so
        the untrained encoder reduces to the frozen backbone.
        """
        hidden = dim // 4
        if hidden < 1:
            raise ValueError(f"adapter hidden width must be >= 1, got {hidden}")
        rng = np.random.default_rng(seed)
        bound = 1.0 / np.sqrt(dim)
        return cls(
            w1=Tensor(rng.uniform(-bound, bound, size=(dim, hidden)), requires_grad=True),
            b1=Tensor(np.zeros(hidden), requires_grad=True),
            w2=Tensor(np.zeros((hidden, dim)), requires_grad=True),
            b2=Tensor(np.zeros(dim), requires_grad=True),
        )


def adapt_array(x: np.ndarray, p: AdapterParams):
    """Constant (n, D) rows through one adapter: normalize(x + relu(x . w1 + b1) . w2 + b2).

    Stacked, (2, n, D) rows through the (2, …) fields of ``EncoderBundle.adapters``: slice i through
    adapter i, with each slice's products and reductions those of adapting it alone. Returns the
    adapted rows and their backward, which maps the gradient at those rows to the gradients of ``x``,
    ``w1``, ``b1``, ``w2`` and ``b2``; with ``need_x`` false the gradient of ``x`` is None. With a
    row index ``split``, each parameter gradient is the product over the rows before it plus the
    product over the rows from it on: the bits of adapting the two blocks apart and adding their
    gradients. ``order``, (2, n) indices of the stacked rows as one (2n, ·) array, first reorders each
    slice's rows for that split.
    """
    if x.ndim != len(p.w1.shape) or x.shape[-1] != p.w1.shape[-2]:
        raise T.ShapeError(f"adapt: feature shape {x.shape} incompatible with w1 {p.w1.shape}")
    w1, w2 = p.w1.data, p.w2.data
    pre = x @ w1 + p.b1.data[..., None, :]
    mask = pre > 0
    hidden = np.where(mask, pre, 0.0)
    y, norm = T._unit_rows(x + (hidden @ w2 + p.b2.data[..., None, :]))

    def grad(g, need_x=True, split=None, order=None):
        g_sum = T._unit_rows_grad(g, y, norm)
        g_pre = (g_sum @ w2.swapaxes(-1, -2)) * mask
        g_x = g_sum + g_pre @ w1.swapaxes(-1, -2) if need_x else None
        if split is None:
            return g_x, x.swapaxes(-1, -2) @ g_pre, g_pre.sum(axis=-2), hidden.swapaxes(-1, -2) @ g_sum, g_sum.sum(axis=-2)
        xs, gp, hs, gs = (r if order is None else r.reshape(-1, r.shape[-1])[order] for r in (x, g_pre, hidden, g_sum))
        a, b = np.s_[..., :split, :], np.s_[..., split:, :]
        return (g_x, xs[a].swapaxes(-1, -2) @ gp[a] + xs[b].swapaxes(-1, -2) @ gp[b], gp[a].sum(axis=-2) + gp[b].sum(axis=-2),
                hs[a].swapaxes(-1, -2) @ gs[a] + hs[b].swapaxes(-1, -2) @ gs[b], gs[a].sum(axis=-2) + gs[b].sum(axis=-2))

    return y, grad


def blend(f_adapted: np.ndarray, f_frozen: np.ndarray, alpha: float) -> np.ndarray:
    """normalize(alpha * adapted + (1 - alpha) * frozen), row by row.

    ShapeError unless both arrays have one shape; ValueError if alpha is
    outside [0, 1] or a blended row has (near-)zero norm.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"blend: alpha must be in [0, 1], got {alpha}")
    if f_adapted.shape != f_frozen.shape:
        raise T.ShapeError(f"blend: feature shapes {f_adapted.shape} and {f_frozen.shape} differ")
    return T._unit_rows(f_adapted * alpha + f_frozen * (1.0 - alpha))[0]


class EncoderBundle:
    """Frozen backbone plus the two independent adapters and prompt wiring."""

    def __init__(
        self,
        backbone: FrozenWeights,
        style_adapter: AdapterParams,
        category_adapter: AdapterParams,
        style_names,
        category_names,
    ):
        if style_adapter is category_adapter:
            raise ValueError("style and category adapters must not share parameters")
        self.backbone = backbone
        self.style_adapter = style_adapter
        self.category_adapter = category_adapter
        # (2, …) fields over both adapters, style first; each adapter's buffers become its half of them
        self.adapters = AdapterParams.stack(style_adapter, category_adapter)
        self.style_names = tuple(style_names)
        self.category_names = tuple(category_names)
        self.lexicon = CategoryLexicon.from_words(self.category_names)  # splits each caption to condition on
        # (K, D) frozen prompt feature arrays, one row per class name: constants of the backbone.
        self.prompt_features = {
            kind: embed_captions([PROMPT_TEMPLATES[kind].format(name) for name in names], backbone)
            for kind, names in (("style", self.style_names), ("category", self.category_names))
        }

    def adapter(self, kind: str) -> AdapterParams:
        if kind == "style":
            return self.style_adapter
        if kind == "category":
            return self.category_adapter
        raise ValueError(f"unknown adapter kind: {kind!r}")

    def adapt_feature(self, f: np.ndarray, kind: str) -> np.ndarray:
        """Constant (n, D) feature rows through the ``kind`` adapter, as an array; records no tape node."""
        return adapt_array(f, self.adapter(kind))[0]
