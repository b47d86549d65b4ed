"""Deterministic synthetic data with orthogonal style and category factors.

Classification: 8x8x3 grids where the category picks a binary shape mask
and the style picks the fore/background palette. Diffusion: 2-D Gaussian
mixture where the category sets the cluster angle and the style sets both
the ring radius and the covariance shape. All covariances share one
determinant so nearest-Mahalanobis equals maximum likelihood.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

DEFAULT_STYLES = ("sketch", "neon", "pastel")
DEFAULT_CATEGORIES = ("cat", "dog", "car", "tree")

CAPTION_TEMPLATE = "a {style} style {category}"

# shape per ring, inner to outer: the outer ring gets the isotropic shape so
# its Mahalanobis basin tolerates the generator's radial spread
COV_SHAPES = ("radial", "tangential", "isotropic")


class DatasetError(ValueError):
    """Malformed dataset specification or file."""


@dataclass(frozen=True)
class SyntheticSpec:
    n_styles: int = 3
    n_categories: int = 4
    style_names: tuple = DEFAULT_STYLES
    category_names: tuple = DEFAULT_CATEGORIES
    n_train: int = 64
    n_test: int = 32
    noise: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.n_styles < 2 or self.n_categories < 2:
            raise DatasetError("need at least 2 styles and 2 categories")
        if self.n_train < 1 or self.n_test < 1:
            raise DatasetError("per-cell sample counts must be >= 1")
        if len(self.style_names) != self.n_styles or len(self.category_names) != self.n_categories:
            raise DatasetError("factor name lists must match the factor counts")
        object.__setattr__(self, "style_names", tuple(self.style_names))
        object.__setattr__(self, "category_names", tuple(self.category_names))

    def caption(self, style_idx: int, category_idx: int) -> str:
        return CAPTION_TEMPLATE.format(
            style=self.style_names[style_idx], category=self.category_names[category_idx]
        )

    def to_json(self) -> dict:
        return {f.name: list(v) if isinstance(v := getattr(self, f.name), tuple) else v
                for f in fields(self)}

    @classmethod
    def from_json(cls, obj: dict) -> "SyntheticSpec":
        unknown = set(obj) - {f.name for f in fields(cls)}
        if unknown:
            raise DatasetError(f"unknown spec keys: {sorted(unknown)}")
        return cls(**obj)


@dataclass
class ClassificationSample:
    grid: np.ndarray  # (8, 8, 3) floats in [0, 1]
    style: int
    category: int
    caption: str

    def __eq__(self, other):
        return (
            isinstance(other, ClassificationSample)
            and np.array_equal(self.grid, other.grid)
            and self.style == other.style
            and self.category == other.category
            and self.caption == other.caption
        )


@dataclass
class PointSample:
    x: float
    y: float
    style: int
    category: int
    caption: str

    @property
    def point(self) -> np.ndarray:
        return np.array([self.x, self.y])


def _cell_rng(seed: int, style_idx: int, category_idx: int, stream: int) -> np.random.Generator:
    # per-cell seed derivation keeps cells independent and order-free
    return np.random.default_rng([seed, stream, style_idx, category_idx])


def _shape_mask(category_idx: int, seed: int) -> np.ndarray:
    """Deterministic 8x8 binary mask per category."""
    yy, xx = np.mgrid[0:8, 0:8]
    cx = cy = 3.5
    bank = [
        (yy - cy) ** 2 + (xx - cx) ** 2 <= 6.5,                      # disk
        (np.abs(xx - 3.5) < 1.2) | (np.abs(yy - 3.5) < 1.2),         # cross
        (np.maximum(np.abs(xx - 3.5), np.abs(yy - 3.5)) >= 2.2)
        & (np.maximum(np.abs(xx - 3.5), np.abs(yy - 3.5)) <= 3.2),   # frame
        (yy >= xx - 1) & (yy >= 6 - xx - 1) & (yy <= 6),             # triangle
        (xx % 2 == 0),                                               # vertical stripes
        (yy % 2 == 0),                                               # horizontal stripes
        ((xx + yy) % 3 == 0),                                        # diagonals
        ((xx % 3 == 1) & (yy % 3 == 1)),                             # dots
    ]
    if category_idx < len(bank):
        return bank[category_idx].astype(np.float64)
    rng = np.random.default_rng([seed, 7001, category_idx])
    return (rng.random((8, 8)) < 0.5).astype(np.float64)


def _palette(style_idx: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Foreground/background RGB per style, kept away from the [0,1] edges."""
    rng = np.random.default_rng([seed, 7002, style_idx])
    fg = rng.uniform(0.2, 0.8, size=3)
    bg = rng.uniform(0.2, 0.8, size=3)
    while np.linalg.norm(fg - bg) < 0.35:
        bg = rng.uniform(0.2, 0.8, size=3)
    return fg, bg


def prototype_grid(spec: SyntheticSpec, style_idx: int, category_idx: int) -> np.ndarray:
    """Noise-free grid for one (style, category) cell."""
    mask = _shape_mask(category_idx, spec.seed)[:, :, None]
    fg, bg = _palette(style_idx, spec.seed)
    return mask * fg + (1.0 - mask) * bg


def prototype_grids(spec: SyntheticSpec) -> list:
    return [
        [prototype_grid(spec, i, j) for j in range(spec.n_categories)]
        for i in range(spec.n_styles)
    ]


def generate_classification_dataset(spec: SyntheticSpec):
    """Balanced train/test grids; additive uniform noise stays within [0,1]."""
    train, test = [], []
    for i in range(spec.n_styles):
        for j in range(spec.n_categories):
            proto = prototype_grid(spec, i, j)
            rng = _cell_rng(spec.seed, i, j, stream=1)
            caption = spec.caption(i, j)
            for split, count in ((train, spec.n_train), (test, spec.n_test)):
                for _ in range(count):
                    noise = rng.uniform(-spec.noise, spec.noise, size=proto.shape)
                    grid = np.clip(proto + noise, 0.0, 1.0)
                    split.append(ClassificationSample(grid=grid, style=i, category=j, caption=caption))
    return train, test


@dataclass
class Mixture:
    """Ground-truth 2-D Gaussian mixture with per-cell labels."""

    means: np.ndarray      # (K_s, K_c, 2)
    covs: np.ndarray       # (K_s, K_c, 2, 2)
    style_names: tuple
    category_names: tuple
    inv_covs: np.ndarray = field(init=False)

    def __post_init__(self):
        self.inv_covs = np.linalg.inv(self.covs)

    @property
    def n_styles(self) -> int:
        return self.means.shape[0]

    @property
    def n_categories(self) -> int:
        return self.means.shape[1]


def _style_radius(style_idx: int, n_styles: int) -> float:
    return 0.8 + 2.4 * style_idx / (n_styles - 1)


def build_mixture(spec: SyntheticSpec, sigma: float = 0.15, elongation: float = 1.4) -> Mixture:
    """Category -> angle; style -> ring radius plus covariance shape.

    Covariance axes are (elongation * sigma, sigma / elongation) so every
    component shares the determinant sigma**4.
    """
    ks, kc = spec.n_styles, spec.n_categories
    means = np.zeros((ks, kc, 2))
    covs = np.zeros((ks, kc, 2, 2))
    for i in range(ks):
        r = _style_radius(i, ks)
        shape = COV_SHAPES[i % len(COV_SHAPES)]
        for j in range(kc):
            theta = 2.0 * np.pi * j / kc
            u = np.array([np.cos(theta), np.sin(theta)])       # radial direction
            t = np.array([-np.sin(theta), np.cos(theta)])      # tangential direction
            means[i, j] = r * u
            if shape == "isotropic":
                covs[i, j] = sigma**2 * np.eye(2)
            else:
                long_ax, short_ax = (u, t) if shape == "radial" else (t, u)
                covs[i, j] = (elongation * sigma) ** 2 * np.outer(long_ax, long_ax) + (
                    sigma / elongation
                ) ** 2 * np.outer(short_ax, short_ax)
    return Mixture(means=means, covs=covs, style_names=spec.style_names,
                   category_names=spec.category_names)


def generate_diffusion_dataset(spec: SyntheticSpec, n_per_cell: int | None = None):
    """Seeded draws from the mixture, each tagged with its template caption."""
    mixture = build_mixture(spec)
    n = spec.n_train if n_per_cell is None else n_per_cell
    points = []
    for i in range(spec.n_styles):
        for j in range(spec.n_categories):
            rng = _cell_rng(spec.seed, i, j, stream=2)
            chol = np.linalg.cholesky(mixture.covs[i, j])
            caption = spec.caption(i, j)
            for _ in range(n):
                p = mixture.means[i, j] + chol @ rng.standard_normal(2)
                points.append(PointSample(x=float(p[0]), y=float(p[1]), style=i, category=j, caption=caption))
    return points, mixture


def export(samples, path) -> None:
    """One JSON object per line; floats round-trip exactly."""
    with open(path, "w", encoding="utf-8") as fh:
        for s in samples:
            if isinstance(s, ClassificationSample):
                obj = {
                    "grid": s.grid.tolist(),
                    "style": s.style,
                    "category": s.category,
                    "caption": s.caption,
                }
            elif isinstance(s, PointSample):
                obj = {"x": s.x, "y": s.y, "style": s.style, "category": s.category, "caption": s.caption}
            else:
                raise DatasetError(f"cannot export sample of type {type(s).__name__}")
            fh.write(json.dumps(obj, ensure_ascii=False) + "\n")


def load(path):
    """Inverse of ``export``; reports the offending line on bad input."""
    samples = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                raise DatasetError(f"{path}: blank record at line {lineno}")
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as e:
                raise DatasetError(f"{path}: malformed JSON at line {lineno}: {e}") from e
            try:
                if "grid" in obj:
                    grid = np.asarray(obj["grid"], dtype=np.float64)
                    samples.append(
                        ClassificationSample(
                            grid=grid, style=int(obj["style"]),
                            category=int(obj["category"]), caption=obj["caption"],
                        )
                    )
                else:
                    samples.append(
                        PointSample(
                            x=float(obj["x"]), y=float(obj["y"]), style=int(obj["style"]),
                            category=int(obj["category"]), caption=obj["caption"],
                        )
                    )
            except (KeyError, TypeError, ValueError) as e:
                raise DatasetError(f"{path}: invalid record at line {lineno}: {e}") from e
    return samples


def export_lexicon(spec: SyntheticSpec, path) -> None:
    """Category nouns, one per line; the decomposer's input."""
    Path(path).write_text("".join(f"{n}\n" for n in spec.category_names), encoding="utf-8")


def write_dataset_dir(spec: SyntheticSpec, out_dir) -> dict:
    """Materialize spec + all splits + lexicon under one directory."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    train, test = generate_classification_dataset(spec)
    points, _ = generate_diffusion_dataset(spec)
    (out / "spec.json").write_text(json.dumps(spec.to_json(), indent=2) + "\n", encoding="utf-8")
    export(train, out / "clf_train.jsonl")
    export(test, out / "clf_test.jsonl")
    export(points, out / "diff_train.jsonl")
    export_lexicon(spec, out / "lexicon.txt")
    return {
        "train": len(train),
        "test": len(test),
        "points": len(points),
        "lexicon": spec.n_categories,
    }


def read_spec(data_dir) -> SyntheticSpec:
    path = Path(data_dir) / "spec.json"
    if not path.exists():
        raise DatasetError(f"missing dataset spec: {path}")
    return SyntheticSpec.from_json(json.loads(path.read_text(encoding="utf-8")))
