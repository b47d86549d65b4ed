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

from .backbone import GRID_SHAPE, words_of
from .captions import CategoryLexicon, split_caption
from .checkpoint import check_types, finite_number, from_fields, read_object

# The default factor names by kind: ``default_names`` takes the first n of a bank.
NAME_BANKS = {
    "style": ("sketch", "neon", "pastel", "mosaic", "chalk", "glitch", "inkwash", "vapor"),
    "category": ("cat", "dog", "car", "tree", "boat", "bird", "lamp", "kite"),
}
DEFAULT_STYLES = NAME_BANKS["style"][:3]
DEFAULT_CATEGORIES = NAME_BANKS["category"][:4]

# The files of a dataset directory, by role: ``write_dataset_dir`` writes them and the readers find them here.
# The lexicon is ``decompose``'s input only: training and generation split captions by the spec's category names.
DATASET_FILES = {"spec": "spec.json", "train": "clf_train.jsonl", "test": "clf_test.jsonl",
                 "points": "diff_train.jsonl", "lexicon": "lexicon.txt"}

CAPTION_TEMPLATE = "a {style} style {category}"
TEMPLATE_WORDS = words_of(CAPTION_TEMPLATE.format(style="", category=""))  # the template's own words: "a", "style"

# shape per ring, inner to outer: the outer ring gets the isotropic shape so
# its Mahalanobis basin tolerates the generator's radial spread
COV_SHAPES = ("radial", "tangential", "isotropic")
SIGMA = 0.15       # every component's covariance determinant is SIGMA**4
# A style is a two-colour palette, so the grid of (i, j) minus that of (i, k) is (mask_j - mask_k) x (fg_i - bg_i):
# past three styles the colour differences, vectors in RGB, are linearly dependent, and so are the cells' grids,
# which the backbone's image projection must send to independent style and category codes.
MAX_STYLES = 3
ELONGATION = 1.4   # elongated axes: ELONGATION * SIGMA long, SIGMA / ELONGATION short


class DatasetError(ValueError):
    """Malformed dataset specification or file."""


def default_names(n: int, kind: str) -> tuple:
    """The first n default names of ``kind``, "style" or "category"; past its bank, ``<kind><i>``."""
    bank = NAME_BANKS[kind]
    return bank[:n] + tuple(f"{kind}{i}" for i in range(len(bank), n))


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
        if not finite_number(self.noise) or self.noise < 0:
            raise DatasetError(f"noise must be a finite number >= 0, got {self.noise!r}")
        check_types(self, DatasetError)  # after the noise check, whose message says more
        if self.n_styles < 2 or self.n_categories < 2:
            raise DatasetError("need at least 2 styles and 2 categories")
        if self.n_styles > MAX_STYLES:
            raise DatasetError(f"{self.n_styles} styles and {self.n_categories} categories: at most {MAX_STYLES} styles, "
                               "since the prototype grids of four or more two-colour palettes are linearly "
                               "dependent and the backbone cannot tell their cells apart")
        if self.n_train < 1 or self.n_test < 1 or self.seed < 0:
            raise DatasetError("per-cell sample counts must be >= 1 and the seed >= 0")
        for name in ("style_names", "category_names"):
            names = getattr(self, name)
            if not isinstance(names, (list, tuple)) or not all(isinstance(w, str) and words_of(w) == [w]
                                                               for w in names):
                raise DatasetError(f"{name} must be a list of one-word names, got {names!r}")
        if len(self.style_names) != self.n_styles or len(self.category_names) != self.n_categories:
            raise DatasetError("factor name lists must match the factor counts")
        folded = [w.casefold() for w in (*self.style_names, *self.category_names)]
        repeated = sorted({w for w in folded if folded.count(w) > 1})
        if repeated:
            raise DatasetError(f"style_names and category_names repeat {repeated}, ignoring case")
        # split_caption files every word that a category name matches (plural included) as category text
        lexicon = CategoryLexicon.from_words(self.category_names)
        if taken := [w for w in (*self.style_names, *TEMPLATE_WORDS) if lexicon.matches(w)]:
            raise DatasetError(f"category_names match {taken}, outside the category slot of {CAPTION_TEMPLATE!r}")
        object.__setattr__(self, "style_names", tuple(self.style_names))
        object.__setattr__(self, "category_names", tuple(self.category_names))
        object.__setattr__(self, "lexicon", lexicon)  # no field, so no JSON key: the one split of every caption

    def caption(self, style_idx: int, category_idx: int) -> str:
        return CAPTION_TEMPLATE.format(
            style=self.style_names[style_idx], category=self.category_names[category_idx]
        )

    def to_json(self) -> dict:
        return {f.name: list(v) if isinstance(v := getattr(self, f.name), tuple) else v
                for f in fields(self)}

    @classmethod
    def from_json(cls, obj: dict) -> "SyntheticSpec":
        return from_fields(cls, obj, "spec", DatasetError)


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


def _cell_rng(seed: int, style_idx: int, category_idx: int, stream: int) -> np.random.Generator:
    # per-cell seed derivation keeps cells independent and order-free
    return np.random.default_rng([seed, stream, style_idx, category_idx])


SHAPES = (
    lambda yy, xx: (yy - 3.5) ** 2 + (xx - 3.5) ** 2 <= 6.5,                    # disk
    lambda yy, xx: (np.abs(xx - 3.5) < 1.2) | (np.abs(yy - 3.5) < 1.2),         # cross
    lambda yy, xx: (2.2 <= (d := np.maximum(np.abs(xx - 3.5), np.abs(yy - 3.5)))) & (d <= 3.2),  # frame
    lambda yy, xx: (yy >= xx - 1) & (yy >= 6 - xx - 1) & (yy <= 6),             # triangle
    lambda yy, xx: xx % 2 == 0,                                                 # vertical stripes
    lambda yy, xx: yy % 2 == 0,                                                 # horizontal stripes
    lambda yy, xx: (xx + yy) % 3 == 0,                                          # diagonals
    lambda yy, xx: (xx % 3 == 1) & (yy % 3 == 1),                               # dots
)


def _shape_mask(category_idx: int, seed: int) -> np.ndarray:
    """Deterministic 8x8 binary mask of one category: its ``SHAPES`` function of the pixel rows and columns,
    past them a seeded random mask."""
    if category_idx < len(SHAPES):
        return SHAPES[category_idx](*np.mgrid[0:8, 0:8]).astype(np.float64)
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


def prototype_grids(spec: SyntheticSpec) -> list:
    """Noise-free grids by [style][category]; each category's mask and each style's palette is built once."""
    masks = [_shape_mask(j, spec.seed)[:, :, None] for j in range(spec.n_categories)]
    palettes = [_palette(i, spec.seed) for i in range(spec.n_styles)]
    return [[mask * fg + (1.0 - mask) * bg for mask in masks] for fg, bg in palettes]


def generate_classification_dataset(spec: SyntheticSpec):
    """Balanced train/test grids: each cell's prototype plus uniform noise, clipped to [0, 1]."""
    protos = prototype_grids(spec)
    train, test = [], []
    for i in range(spec.n_styles):
        for j in range(spec.n_categories):
            rng = _cell_rng(spec.seed, i, j, stream=1)
            caption = spec.caption(i, j)
            for split, count in ((train, spec.n_train), (test, spec.n_test)):
                # one draw of ``count`` grids reads the stream of ``count`` draws of one, made grids in place
                grids = rng.uniform(-spec.noise, spec.noise, size=(count, *GRID_SHAPE))
                grids += protos[i][j]
                np.clip(grids, 0.0, 1.0, out=grids)
                split.extend(ClassificationSample(grid=grid, style=i, category=j, caption=caption)
                             for grid in grids)
    return train, test


@dataclass
class Mixture:
    """Ground-truth 2-D Gaussian mixture with per-cell labels."""

    means: np.ndarray      # (K_s, K_c, 2)
    covs: np.ndarray       # (K_s, K_c, 2, 2)
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


def build_mixture(spec: SyntheticSpec) -> Mixture:
    """Category -> angle; style -> ring radius plus covariance shape.

    Covariance axes are (ELONGATION * SIGMA, SIGMA / ELONGATION) so every
    component shares the determinant SIGMA**4.
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
                covs[i, j] = SIGMA**2 * np.eye(2)
            else:
                long_ax, short_ax = (u, t) if shape == "radial" else (t, u)
                covs[i, j] = (ELONGATION * SIGMA) ** 2 * np.outer(long_ax, long_ax) + (
                    SIGMA / ELONGATION
                ) ** 2 * np.outer(short_ax, short_ax)
    return Mixture(means=means, covs=covs)


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
            # one draw of n points reads the stream of n draws of one; ``chol @ z`` per point, written out
            # elementwise so that no BLAS kernel reorders its two-term sums
            z = rng.standard_normal((n, 2))
            xy = mixture.means[i, j] + (z[:, :1] * chol[:, 0] + z[:, 1:] * chol[:, 1])
            points.extend(PointSample(x=float(x), y=float(y), style=i, category=j, caption=caption) for x, y in xy)
    return points, mixture


RECORD_KEYS = {kind: {f.name for f in fields(cls)} for kind, cls in (("grid", ClassificationSample),
                                                                    ("point", PointSample))}


def export(samples, path) -> None:
    """One JSON object per line, the sample's fields in order; floats round-trip exactly."""
    with open(path, "w", encoding="utf-8") as fh:
        for s in samples:
            if not isinstance(s, (ClassificationSample, PointSample)):
                raise DatasetError(f"cannot export sample of type {type(s).__name__}")
            obj = {f.name: v.tolist() if isinstance(v := getattr(s, f.name), np.ndarray) else v for f in fields(s)}
            fh.write(json.dumps(obj, ensure_ascii=False) + "\n")


def _parse_record(obj: dict, kind: str, spec: SyntheticSpec):
    """The sample of one record of ``kind``; ValueError naming what is wrong with it."""
    style, category, caption = obj["style"], obj["category"], obj["caption"]
    if type(style) is not int or type(category) is not int or not isinstance(caption, str):
        raise ValueError("style and category must be integers and caption a string")
    if not (0 <= style < spec.n_styles and 0 <= category < spec.n_categories):
        raise ValueError(f"label (style {style}, category {category}) outside the spec's "
                         f"{spec.n_styles} styles x {spec.n_categories} categories")
    split_caption(caption, spec.lexicon)  # ConfigError, a ValueError, unless the caption has both halves to train on
    # A bool or a numeric string is no number, though float() and a float array take both as one.
    if kind == "point":
        x, y = obj["x"], obj["y"]
        if not {type(x), type(y)} <= {int, float} or not np.isfinite([float(x), float(y)]).all():
            raise ValueError(f"point ({x!r}, {y!r}) is not finite, or its coordinates are not numbers")
        return PointSample(x=float(x), y=float(y), style=style, category=category, caption=caption)
    cells = np.asarray(obj["grid"], dtype=object)
    if cells.shape != GRID_SHAPE:
        raise ValueError(f"grid shape {cells.shape}, expected {GRID_SHAPE}")
    grid = cells.astype(np.float64)
    if not {type(v) for v in cells.flat} <= {int, float} or not np.all((grid >= 0.0) & (grid <= 1.0)):
        raise ValueError("grid values must be numbers that lie in [0, 1]")
    return ClassificationSample(grid=grid, style=style, category=category, caption=caption)


def load(path, kind: str, spec: SyntheticSpec):
    """Inverse of ``export`` for one record kind, "grid" or "point"; reports the offending line on bad input.

    Every line is a JSON object that ``checkpoint.read_object`` takes (no repeated key), with exactly the
    keys of ``kind``, integer labels within ``spec``'s factor counts and a string caption that ``spec``'s
    ``lexicon``, the one lexicon of training and generation, splits into non-empty style and category
    text; a point must be two finite numbers and a grid (8, 8, 3) numbers in [0, 1], where neither a
    boolean nor a numeric string counts.
    """
    samples = []
    with open(path, "rb") as fh:  # decoded line by line, so a decode error names its line
        for lineno, raw in enumerate(fh, start=1):
            obj = read_object(raw, f"{path}: line {lineno}", DatasetError)
            if set(obj) != RECORD_KEYS[kind]:
                raise DatasetError(f"{path}: line {lineno} is not a {kind} record with keys "
                                   f"{sorted(RECORD_KEYS[kind])}")
            try:
                samples.append(_parse_record(obj, kind, spec))
            except (TypeError, ValueError, OverflowError) as e:  # an integer too large for a float overflows
                raise DatasetError(f"{path}: invalid record at line {lineno}: {e}") from e
    return samples


def export_lexicon(spec: SyntheticSpec, path) -> None:
    """Category nouns, one per line; ``decompose``'s input, which no other command reads."""
    Path(path).write_text("".join(f"{n}\n" for n in spec.category_names), encoding="utf-8")


def write_dataset_dir(spec: SyntheticSpec, out_dir) -> dict:
    """Materialize spec + all splits + lexicon under one directory."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    train, test = generate_classification_dataset(spec)
    points, _ = generate_diffusion_dataset(spec)
    (out / DATASET_FILES["spec"]).write_text(json.dumps(spec.to_json(), indent=2) + "\n", encoding="utf-8")
    export(train, out / DATASET_FILES["train"])
    export(test, out / DATASET_FILES["test"])
    export(points, out / DATASET_FILES["points"])
    export_lexicon(spec, out / DATASET_FILES["lexicon"])
    return {
        "train": len(train),
        "test": len(test),
        "points": len(points),
        "lexicon": spec.n_categories,
    }


def read_spec(data_dir) -> SyntheticSpec:
    """The ``SyntheticSpec`` in ``data_dir``'s spec.json.

    DatasetError naming that file if it is missing, if ``checkpoint.read_object`` or ``from_fields``
    refuses it (not UTF-8 JSON, not an object, a repeated or unknown key), or if it is no valid spec.
    """
    path = Path(data_dir) / DATASET_FILES["spec"]
    if not path.exists():
        raise DatasetError(f"missing dataset spec: {path}")
    obj = read_object(path.read_bytes(), f"dataset spec {path}", DatasetError)
    try:
        return SyntheticSpec.from_json(obj)
    except DatasetError as e:
        raise DatasetError(f"{path}: invalid dataset spec: {e}") from e
