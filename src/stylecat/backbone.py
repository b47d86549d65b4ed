"""Frozen text/image feature extractors sharing one embedding space.

A deterministic stand-in for a pretrained dual-modality encoder: style and
category words route through a shared orthonormal code matrix (plus seeded
noise), and the image projection is solved so that clean images of a
(style, category) cell land near the sum of the two codes. Text and image
features of matching content are therefore aligned by construction, with
enough word-level noise left in that adapter fine-tuning has room to help.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass

import numpy as np

from .tensor import Tensor, normalize

WORD_RE = re.compile(r"[^\W_]+", re.UNICODE)

GRID_SHAPE = (8, 8, 3)
GRID_SIZE = 8 * 8 * 3


def words_of(text: str) -> list[str]:
    """Split text into word tokens (runs of letters/digits)."""
    return WORD_RE.findall(text)


class Vocab:
    """Word -> dense integer id map; id 0 is reserved for unknown tokens."""

    UNK = 0

    def __init__(self, tokens):
        uniq = sorted({t.casefold() for t in tokens})
        self._ids = {t: i + 1 for i, t in enumerate(uniq)}

    @classmethod
    def from_texts(cls, texts) -> "Vocab":
        toks = []
        for t in texts:
            toks.extend(words_of(t))
        return cls(toks)

    @property
    def size(self) -> int:
        return len(self._ids) + 1

    def id_of(self, token: str) -> int:
        return self._ids.get(token.casefold(), self.UNK)

    def encode(self, text: str) -> list[int]:
        return [self.id_of(t) for t in words_of(text)]

    def tokens(self) -> list[str]:
        """Known tokens ordered by id (excluding the unknown slot)."""
        return sorted(self._ids, key=self._ids.get)


@dataclass
class FrozenWeights:
    """Immutable backbone parameters, reproducible from (seed, vocab, dims)."""

    vocab: Vocab
    dim: int
    seed: int
    token_embed: np.ndarray       # [V, D]
    img_proj: np.ndarray          # [GRID_SIZE, D]
    img_bias: np.ndarray          # [D]
    style_words: tuple[str, ...]
    category_words: tuple[str, ...]
    word_noise: float = 0.10
    filler_scale: float = 0.15
    proj_noise: float = 0.01
    code_scale: float = 0.30

    @classmethod
    def build(
        cls,
        vocab: Vocab,
        style_names,
        category_names,
        prototype_grids,
        dim: int = 32,
        seed: int = 0,
        word_noise: float = 0.10,
        filler_scale: float = 0.15,
        proj_noise: float = 0.01,
        code_scale: float = 0.30,
    ) -> "FrozenWeights":
        """Construct aligned weights.

        ``prototype_grids`` is a [K_s][K_c] nested sequence of clean
        (8, 8, 3) grids, one per (style, category) cell. Style and
        category words share a per-group common direction plus a scaled
        per-factor code, so same-group text features start nearly parallel
        with small informative gaps; the image projection targets carry
        the codes at full scale.
        """
        style_words = tuple(s.casefold() for s in style_names)
        category_words = tuple(c.casefold() for c in category_names)
        ks, kc = len(style_words), len(category_words)
        if dim < ks + kc + 2:
            raise ValueError(f"dim={dim} too small for {ks + kc} factor codes plus commons")

        rng = np.random.default_rng(seed)
        basis, _ = np.linalg.qr(rng.standard_normal((dim, ks + kc + 2)))
        style_codes = basis[:, :ks].T
        category_codes = basis[:, ks : ks + kc].T
        style_common = basis[:, ks + kc]
        category_common = basis[:, ks + kc + 1]

        style_idx = {w: i for i, w in enumerate(style_words)}
        category_idx = {w: i for i, w in enumerate(category_words)}

        token_embed = np.zeros((vocab.size, dim))
        for token in [None] + vocab.tokens():  # slot 0 first, then id order
            tid = 0 if token is None else vocab.id_of(token)
            if token in style_idx:
                token_embed[tid] = (
                    style_common
                    + code_scale * style_codes[style_idx[token]]
                    + word_noise * rng.standard_normal(dim)
                )
            elif token in category_idx:
                token_embed[tid] = (
                    category_common
                    + code_scale * category_codes[category_idx[token]]
                    + word_noise * rng.standard_normal(dim)
                )
            else:
                v = rng.standard_normal(dim)
                token_embed[tid] = filler_scale * v / np.linalg.norm(v)

        # Min-norm least squares: clean cell grids -> style code + category code.
        xs, ys = [], []
        for i in range(ks):
            for j in range(kc):
                grid = np.asarray(prototype_grids[i][j], dtype=np.float64)
                xs.append(grid.reshape(-1))
                ys.append(style_codes[i] + category_codes[j])
        x = np.stack(xs)
        x_aug = np.concatenate([x, np.ones((x.shape[0], 1))], axis=1)
        y = np.stack(ys)
        w = x_aug.T @ np.linalg.solve(x_aug @ x_aug.T, y)
        img_proj = w[:-1] + proj_noise * rng.standard_normal((GRID_SIZE, dim))
        img_bias = w[-1]
        if np.linalg.norm(img_bias) < 1e-9:
            v = rng.standard_normal(dim)
            img_bias = 0.1 * v / np.linalg.norm(v)

        return cls(
            vocab=vocab,
            dim=dim,
            seed=seed,
            token_embed=token_embed,
            img_proj=img_proj,
            img_bias=img_bias,
            style_words=style_words,
            category_words=category_words,
            word_noise=word_noise,
            filler_scale=filler_scale,
            proj_noise=proj_noise,
            code_scale=code_scale,
        )

    def checksum(self) -> str:
        h = hashlib.sha256()
        for arr in (self.token_embed, self.img_proj, self.img_bias):
            h.update(np.ascontiguousarray(arr).tobytes())
        return h.hexdigest()


def embed_text(token_ids, weights: FrozenWeights) -> Tensor:
    """Mean of token embeddings, unit-normalized. Deterministic constant.

    Ids are sorted before accumulation so permuted token lists produce
    bit-identical features, not merely equal ones.
    """
    ids = sorted(token_ids)
    if not ids:
        raise ValueError("embed_text: empty token list")
    vec = weights.token_embed[np.asarray(ids, dtype=np.int64)].mean(axis=0)
    return normalize(Tensor(vec))


def embed_caption(caption: str, weights: FrozenWeights) -> Tensor:
    return embed_text(weights.vocab.encode(caption), weights)


def embed_image(grid, weights: FrozenWeights) -> Tensor:
    """Flattened grid through the frozen projection, unit-normalized."""
    arr = np.asarray(grid, dtype=np.float64)
    if arr.shape != GRID_SHAPE:
        raise ValueError(f"embed_image: expected grid shape {GRID_SHAPE}, got {arr.shape}")
    if arr.min() < 0.0 or arr.max() > 1.0:
        raise ValueError("embed_image: grid values must lie in [0, 1]")
    vec = arr.reshape(-1) @ weights.img_proj + weights.img_bias
    return normalize(Tensor(vec))


def embed_prompt_prototypes(class_names, template: str, weights: FrozenWeights) -> list[Tensor]:
    """One frozen unit feature per class name rendered through ``template``.

    The template marks the class slot with ``{}``; a template without a
    placeholder yields identical prototypes for every class.
    """
    return [embed_caption(template.format(name), weights) for name in class_names]
