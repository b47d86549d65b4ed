"""Adapter-augmented style and category encoders over the frozen backbone.

Each encoder adds a small trainable bottleneck delta to the frozen text
feature and re-normalizes; with the zero-initialized output layer the
untrained encoders reproduce the backbone exactly. ``blend`` implements
the residual mixing of adapted and frozen features.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .backbone import FrozenWeights, embed_caption, embed_prompt_prototypes
from .tensor import ParamGroup, Tensor

PROMPT_TEMPLATES = {"style": "a {} style", "category": "a {}"}


@dataclass
class AdapterParams(ParamGroup):
    """Two linear layers with a ReLU bottleneck; all four tensors trainable."""

    w1: Tensor  # [D, H]
    b1: Tensor  # [H]
    w2: Tensor  # [H, D]
    b2: Tensor  # [D]

    @classmethod
    def init(cls, dim: int, hidden: int | None = None, seed: int = 0) -> "AdapterParams":
        """Uniform first layer, zero-initialized output layer.

        The zero output layer makes a fresh adapter the identity delta, so
        the untrained encoder reduces to the frozen backbone.
        """
        hidden = dim // 4 if hidden is None else hidden
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


def adapter_forward(f: Tensor, p: AdapterParams) -> Tensor:
    """Raw bottleneck map w2' . relu(w1' . f + b1) + b2 (not normalized).

    Accepts a single feature (D,) or a batch (n, D).
    """
    single = f.data.ndim == 1
    x = T.reshape(f, (1, f.shape[0])) if single else f
    if x.data.ndim != 2 or x.shape[1] != p.w1.shape[0]:
        raise T.ShapeError(f"adapter_forward: feature shape {f.shape} incompatible with w1 {p.w1.shape}")
    h = T.relu(T.add(T.matmul(x, p.w1), p.b1))
    out = T.add(T.matmul(h, p.w2), p.b2)
    return T.reshape(out, (out.shape[1],)) if single else out


def blend(f_adapted: Tensor, f_frozen: Tensor, alpha: float) -> Tensor:
    """normalize(alpha * adapted + (1 - alpha) * frozen); rows if 2-D."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"blend: alpha must be in [0, 1], got {alpha}")
    return T.normalize(T.add(T.scale(f_adapted, alpha), T.scale(f_frozen, 1.0 - alpha)))


class EncoderBundle:
    """Frozen backbone plus the two independent adapters and prompt wiring."""

    def __init__(
        self,
        backbone: FrozenWeights,
        style_adapter: AdapterParams,
        category_adapter: AdapterParams,
        style_names,
        category_names,
        alpha: float = 0.1,
    ):
        if style_adapter is category_adapter:
            raise ValueError("style and category adapters must not share parameters")
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {alpha}")
        self.backbone = backbone
        self.style_adapter = style_adapter
        self.category_adapter = category_adapter
        self.style_names = tuple(style_names)
        self.category_names = tuple(category_names)
        self.alpha = alpha

    @classmethod
    def fresh(cls, backbone: FrozenWeights, style_names, category_names,
              hidden: int | None = None, seed: int = 0, alpha: float = 0.1) -> "EncoderBundle":
        return cls(
            backbone,
            AdapterParams.init(backbone.dim, hidden, seed=seed),
            AdapterParams.init(backbone.dim, hidden, seed=seed + 1),
            style_names,
            category_names,
            alpha=alpha,
        )

    def _adapter(self, kind: str) -> AdapterParams:
        if kind == "style":
            return self.style_adapter
        if kind == "category":
            return self.category_adapter
        raise ValueError(f"unknown adapter kind: {kind!r}")

    def adapt_feature(self, f: Tensor, kind: str) -> Tensor:
        """normalize(f + adapter_delta(f)); f may be (D,) or (n, D)."""
        p = self._adapter(kind)
        return T.normalize(T.add(f, adapter_forward(f, p)))

    def encode_caption(self, caption: str, kind: str) -> Tensor:
        """The caption's frozen text feature through the ``kind`` adapter."""
        return self.adapt_feature(embed_caption(caption, self.backbone), kind)

    def frozen_prototypes(self, prompt_kind: str) -> Tensor:
        """(K, D) constant matrix of frozen prompt features."""
        if prompt_kind not in PROMPT_TEMPLATES:
            raise ValueError(f"unknown prompt kind: {prompt_kind!r}")
        names = self.style_names if prompt_kind == "style" else self.category_names
        protos = embed_prompt_prototypes(names, PROMPT_TEMPLATES[prompt_kind], self.backbone)
        return Tensor(np.stack([p.data for p in protos]))

    def adapted_prototypes(self, adapter_kind: str, prompt_kind: str) -> Tensor:
        """(K, D) prompt features passed through one adapter (tape-attached)."""
        return self.adapt_feature(self.frozen_prototypes(prompt_kind), adapter_kind)

    def trainable_tensors(self) -> list[Tensor]:
        return self.style_adapter.tensors() + self.category_adapter.tensors()
