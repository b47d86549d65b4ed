"""Frozen text/image feature extractors sharing one embedding space.

A deterministic stand-in for a pretrained dual-modality encoder: style and
category words route through a shared orthonormal code matrix (plus seeded
noise), and the image projection is solved so that clean images of a
(style, category) cell land near the sum of the two codes. Text and image
features of matching content are therefore aligned by construction, with
enough word-level noise left in that adapter fine-tuning has room to help.

The backbone is frozen: its features are plain (n, D) float64 arrays of
unit rows, constants that no tape records.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass

import numpy as np

from .tensor import _unit_rows

WORD_RE = re.compile(r"[^\W_]+", re.UNICODE)

GRID_SHAPE = (8, 8, 3)
GRID_SIZE = 8 * 8 * 3

# Construction constants of the stand-in backbone: the seed of its random
# draws, the scale of the per-word noise on factor words, the norm of filler
# words, the noise on the image projection and the scale of the factor codes.
SEED = 0
WORD_NOISE = 0.10
FILLER_SCALE = 0.15
PROJ_NOISE = 0.01
CODE_SCALE = 0.30


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
    """Immutable backbone parameters, reproducible from (vocab, names, grids, dim)."""

    vocab: Vocab
    dim: int
    token_embed: np.ndarray       # [V, D]
    img_proj: np.ndarray          # [GRID_SIZE, D]
    img_bias: np.ndarray          # [D]

    @classmethod
    def build(cls, vocab: Vocab, style_names, category_names, prototype_grids, dim: int) -> "FrozenWeights":
        """Construct aligned weights from the module's fixed construction constants.

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

        rng = np.random.default_rng(SEED)
        basis, _ = np.linalg.qr(rng.standard_normal((dim, ks + kc + 2)))
        style_codes = basis[:, :ks].T
        category_codes = basis[:, ks : ks + kc].T
        style_common = basis[:, ks + kc]
        category_common = basis[:, ks + kc + 1]

        # factor word -> (its group's common direction, its code); a word of both groups is a style word
        factor = {w: (category_common, category_codes[i]) for i, w in enumerate(category_words)}
        factor.update({w: (style_common, style_codes[i]) for i, w in enumerate(style_words)})

        token_embed = np.zeros((vocab.size, dim))
        for token in [None] + vocab.tokens():  # slot 0 first, then id order
            tid = 0 if token is None else vocab.id_of(token)
            if token in factor:
                common, code = factor[token]
                token_embed[tid] = common + CODE_SCALE * code + WORD_NOISE * rng.standard_normal(dim)
            else:
                v = rng.standard_normal(dim)
                token_embed[tid] = FILLER_SCALE * v / np.linalg.norm(v)

        # Min-norm least squares: clean cell grids -> style code + category code.
        cells = [(i, j) for i in range(ks) for j in range(kc)]
        x = np.stack([np.asarray(prototype_grids[i][j], dtype=np.float64).reshape(-1) for i, j in cells])
        x_aug = np.concatenate([x, np.ones((x.shape[0], 1))], axis=1)
        y = np.stack([style_codes[i] + category_codes[j] for i, j in cells])
        w = x_aug.T @ np.linalg.solve(x_aug @ x_aug.T, y)
        img_proj = w[:-1] + PROJ_NOISE * rng.standard_normal((GRID_SIZE, dim))
        img_bias = w[-1]
        if np.linalg.norm(img_bias) < 1e-9:
            v = rng.standard_normal(dim)
            img_bias = 0.1 * v / np.linalg.norm(v)

        return cls(
            vocab=vocab,
            dim=dim,
            token_embed=token_embed,
            img_proj=img_proj,
            img_bias=img_bias,
        )

    def checksum(self) -> str:
        h = hashlib.sha256()
        for arr in (self.token_embed, self.img_proj, self.img_bias):
            h.update(np.ascontiguousarray(arr).tobytes())
        return h.hexdigest()


def embed_text(token_ids, weights: FrozenWeights) -> np.ndarray:
    """Mean of token embeddings, unit-normalized: one (1, D) feature row.

    Ids are sorted before accumulation so permuted token lists produce
    bit-identical features, not merely equal ones.
    """
    ids = sorted(token_ids)
    if not ids:
        raise ValueError("embed_text: empty token list")
    vec = weights.token_embed[np.asarray(ids, dtype=np.int64)].mean(axis=0)
    return _unit_rows(vec[None, :])[0]


def embed_caption(caption: str, weights: FrozenWeights) -> np.ndarray:
    return embed_text(weights.vocab.encode(caption), weights)


def embed_captions(captions, weights: FrozenWeights) -> np.ndarray:
    """(n, D) feature rows of n captions, one ``embed_text`` call each."""
    return np.concatenate([embed_caption(c, weights) for c in captions])


def embed_image(grids, weights: FrozenWeights) -> np.ndarray:
    """A stack of n (8, 8, 3) grids through the frozen projection: (n, D) unit rows."""
    arr = np.asarray(grids, dtype=np.float64)
    if arr.ndim != 4 or arr.shape[1:] != GRID_SHAPE:
        raise ValueError(f"embed_image: expected grid stack shape (n, 8, 8, 3), got {arr.shape}")
    if not (arr.min() >= 0.0 and arr.max() <= 1.0):  # so written, a NaN (which min and max return) fails it
        raise ValueError("embed_image: grid values must lie in [0, 1]")
    return _unit_rows(arr.reshape(len(arr), GRID_SIZE) @ weights.img_proj + weights.img_bias)[0]
