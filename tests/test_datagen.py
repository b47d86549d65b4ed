"""Synthetic data: determinism, balance, learnability, and persistence."""

import hashlib
import json
import re

import numpy as np
import pytest

from stylecat.captions import CategoryLexicon
from stylecat.datagen import (
    DEFAULT_CATEGORIES,
    DEFAULT_STYLES,
    ClassificationSample,
    DatasetError,
    PointSample,
    SyntheticSpec,
    build_mixture,
    default_names,
    export,
    generate_classification_dataset,
    generate_diffusion_dataset,
    load,
    prototype_grids,
)


@pytest.fixture(scope="module")
def spec():
    return SyntheticSpec()


class TestSpecValidation:
    def test_too_few_factors(self):
        with pytest.raises(DatasetError):
            SyntheticSpec(n_styles=1, style_names=("solo",))

    def test_name_count_mismatch(self):
        with pytest.raises(DatasetError):
            SyntheticSpec(n_styles=3, style_names=("a", "b"))

    @pytest.mark.parametrize("styles", [4, 5, 6, 9])
    def test_more_than_three_styles_are_refused(self, styles):
        with pytest.raises(DatasetError, match=f"^{styles} styles and 4 categories: at most 3 styles, since the "
                                               "prototype grids of four or more two-colour palettes"):
            SyntheticSpec(n_styles=styles, style_names=default_names(styles, "style"))

    @pytest.mark.parametrize("styles", [2, 3])
    def test_every_accepted_spec_has_independent_grids(self, styles):
        """The backbone solves for a map of every cell's prototype grid, with a ones column, so the grids
        of each accepted spec must be independent: at 2 and 3 styles and 2 to 10 categories the smallest
        singular value of [grids | 1] is at least 0.13 (0.135 at the default spec); at 4 styles it is
        below 1e-14."""
        for categories in range(2, 11):
            spec = SyntheticSpec(n_styles=styles, n_categories=categories, style_names=default_names(styles, "style"),
                                 category_names=default_names(categories, "category"))
            grids = np.stack([grid.ravel() for row in prototype_grids(spec) for grid in row])
            assert np.linalg.svd(np.hstack([grids, np.ones((len(grids), 1))]), compute_uv=False).min() > 0.1

    def test_unknown_json_keys(self):
        with pytest.raises(DatasetError, match="unknown"):
            SyntheticSpec.from_json({"n_styles": 3, "bogus": 1})

    def test_noise_must_be_finite_and_nonnegative(self):
        for bad in (float("nan"), float("inf"), -0.01, "0.05", None, 10**400):
            with pytest.raises(DatasetError, match="noise"):
                SyntheticSpec(noise=bad)
        assert SyntheticSpec(noise=0).noise == 0

    @pytest.mark.parametrize("names, taken", [
        (dict(style_names=("cats", "neon", "pastel")), "cats"),
        (dict(category_names=("cat", "dog", "car", "style")), "style"),
        (dict(category_names=("a", "dog", "car", "tree")), "a"),
    ], ids=["style-name-a-category-plural", "category-style", "category-a"])
    def test_category_names_match_no_other_caption_word(self, names, taken):
        """``decompose`` files every word a category name matches as category text, so a style name or
        a template word that one matches would leave its own half of the caption."""
        with pytest.raises(DatasetError, match=re.escape(f"category_names match ['{taken}'], outside")):
            SyntheticSpec(**names)

    def test_json_roundtrip(self, spec):
        assert SyntheticSpec.from_json(spec.to_json()) == spec

    def test_non_object_json_rejected(self):
        with pytest.raises(DatasetError, match="must be a JSON object, got list"):
            SyntheticSpec.from_json([3, 4])

    @pytest.mark.parametrize("field, names", [
        (field, bad) for field, good in (("style_names", DEFAULT_STYLES), ("category_names", DEFAULT_CATEGORIES))
        for bad in (" ".join(good), (*good[1:], None), (*good[1:], ""), (*good[1:], "two words"))
    ], ids=[f"{prefix}{case}" for prefix in ("", "category-") for case in ("one-string", "none", "empty", "two-words")])
    def test_names_must_be_a_list_of_words(self, field, names):
        """A name that is not a string, is empty or holds two words is refused, as is a string for the list."""
        with pytest.raises(DatasetError, match=f"{field} must be a list of one-word names"):
            SyntheticSpec(**{field: names})

    def test_negative_seed_rejected(self):
        with pytest.raises(DatasetError, match="seed >= 0"):
            SyntheticSpec(seed=-1)

    def test_lexicon_is_an_attribute_not_a_field(self, spec):
        """The category names' lexicon is built with the spec and is no JSON key, so no file can set it."""
        assert spec.lexicon == CategoryLexicon.from_words(spec.category_names)
        assert "lexicon" not in spec.to_json()
        with pytest.raises(DatasetError, match=re.escape("unknown spec keys: ['lexicon']")):
            SyntheticSpec.from_json({**spec.to_json(), "lexicon": ["cat"]})


class TestClassificationData:
    def test_determinism(self, spec):
        a_train, a_test = generate_classification_dataset(spec)
        b_train, b_test = generate_classification_dataset(spec)
        assert a_train == b_train and a_test == b_test

    def test_cell_counts_exact(self, spec):
        train, test = generate_classification_dataset(spec)
        for split, n in ((train, spec.n_train), (test, spec.n_test)):
            counts = {}
            for s in split:
                counts[(s.style, s.category)] = counts.get((s.style, s.category), 0) + 1
            assert all(v == n for v in counts.values())
            assert len(counts) == spec.n_styles * spec.n_categories

    def test_values_in_unit_interval(self, spec):
        train, _ = generate_classification_dataset(spec)
        for s in train[:50]:
            assert s.grid.min() >= 0.0 and s.grid.max() <= 1.0

    def test_train_test_disjoint(self, spec):
        train, test = generate_classification_dataset(spec)
        train_bytes = {s.grid.tobytes() for s in train}
        assert all(s.grid.tobytes() not in train_bytes for s in test)

    def test_caption_template(self, spec):
        train, _ = generate_classification_dataset(spec)
        s = train[0]
        assert s.caption == f"a {spec.style_names[s.style]} style {spec.category_names[s.category]}"

    def test_nearest_centroid_oracle(self, spec):
        """Sanity oracle: the task is learnable in raw pixel space."""
        train, test = generate_classification_dataset(spec)
        x_train = np.stack([s.grid.reshape(-1) for s in train])
        x_test = np.stack([s.grid.reshape(-1) for s in test])
        for attr, k in (("style", spec.n_styles), ("category", spec.n_categories)):
            y_train = np.array([getattr(s, attr) for s in train])
            y_test = np.array([getattr(s, attr) for s in test])
            centroids = np.stack([x_train[y_train == c].mean(axis=0) for c in range(k)])
            pred = ((x_test[:, None, :] - centroids[None]) ** 2).sum(axis=2).argmin(axis=1)
            assert (pred == y_test).mean() >= 0.95


def sha256(arrays) -> str:
    return hashlib.sha256(np.ascontiguousarray(np.stack(arrays), dtype="<f8").tobytes()).hexdigest()


# sha256 of the float64 bytes of the stacked prototype, train and test grids, taken when each category's
# mask and each style's palette were still rebuilt for every cell; the grids use no BLAS, so every kernel
# gives these bits
PINNED = {
    "default": (SyntheticSpec(), {
        "prototypes": "1fab63e9badc13e6f0ba0eb9f835f80e0450111c6dde7c9d5cf411e4bc44a68d",
        "train": "25bf0847c289daf4a2353e311a63332784fa020906f422ea29ce70f9a53da5b3",
        "test": "311e99fa9de80840acc68bad478199f9a3a5aff754d588b2d7c824e1b09a18dc"}),
    "ten-categories": (SyntheticSpec(n_categories=10, category_names=default_names(10, "category")), {
        "prototypes": "aad2d046c040b50b7a40e0bbef96804038ce43d45b5f1389a0d84d27bb95a683",
        "train": "40ba55f65e2d4aaa924d0a7728c3290953b56f34806d2253dfbf4bc6581e75ce",
        "test": "cb31a4e5a261c82b6a670219becc1a7cf3fa242e1c1a88d66d35b63f94ed59cb"}),
    "seed-noise": (SyntheticSpec(seed=11, noise=0.3), {
        "prototypes": "db0c9a9cd1bcfb3517f587fcdf30b17d20a26e339eac9be40b401852a7e4b3c6",
        "train": "418688f8bc46147529bc00a3007b47771f8f1cbcd21083100a5e05ad663baf4a",
        "test": "5a933f968e4e724a5f81d286ea4e22957a09e77f5fddaa309d3820b387b8acbd"}),
}


@pytest.mark.parametrize("name", list(PINNED))
def test_generated_grids_are_pinned(name):
    """The default spec; ten categories, the last two past the shape bank on seeded random masks; and a
    seed and noise of their own, where noise of 0.3 around palettes in [0.2, 0.8] is clipped."""
    spec, expected = PINNED[name]
    train, test = generate_classification_dataset(spec)
    got = {"prototypes": sha256([np.stack(row) for row in prototype_grids(spec)]),
           "train": sha256([s.grid for s in train]), "test": sha256([s.grid for s in test])}
    assert got == expected
    grids = np.stack([s.grid for s in train])
    assert (name == "seed-noise") == bool(np.any(grids == 0.0) and np.any(grids == 1.0))


# sha256 of the float64 bytes of the (N, 2) diffusion points of each spec of ``PINNED``, taken with each
# point's ``chol @ z`` written out elementwise; a stacked matmul gave "d9f0950f..." for ten categories on
# the SkylakeX and Haswell kernels and these bits on SandyBridge and Prescott
PINNED_POINTS = {
    "default": "3ae7ebc7bfbe80ada8eac9090c84ff8508d7edd05812bc77fca06cd9856c6377",
    "ten-categories": "783757cb41972c5447e016fe9a94f6e4f69de90a93ba549d0517104f1d191982",
    "seed-noise": "50e3549dbc1098e0c39f9aef21c5d7520d96fcd0169014c2dd610b1a252ff18a",
}


@pytest.mark.parametrize("name", list(PINNED_POINTS))
def test_generated_points_are_pinned(name):
    """The points use no BLAS, so every kernel gives these bits."""
    points, _ = generate_diffusion_dataset(PINNED[name][0])
    assert sha256([[p.x, p.y] for p in points]) == PINNED_POINTS[name]


class TestMixture:
    def test_means_at_style_radius_and_category_angle(self, spec):
        mix = build_mixture(spec)
        for i in range(spec.n_styles):
            radii = np.linalg.norm(mix.means[i], axis=1)
            assert np.allclose(radii, radii[0])
        for j in range(spec.n_categories):
            theta = 2 * np.pi * j / spec.n_categories
            u = np.array([np.cos(theta), np.sin(theta)])
            for i in range(spec.n_styles):
                assert np.allclose(mix.means[i, j], np.linalg.norm(mix.means[i, j]) * u, atol=1e-12)

    def test_equal_determinants(self, spec):
        mix = build_mixture(spec)
        dets = np.linalg.det(mix.covs.reshape(-1, 2, 2))
        assert np.allclose(dets, dets[0])

    def test_per_cell_counts(self, spec):
        points, _ = generate_diffusion_dataset(spec, n_per_cell=10)
        counts = {}
        for p in points:
            counts[(p.style, p.category)] = counts.get((p.style, p.category), 0) + 1
        assert set(counts.values()) == {10}

    def test_empirical_covariance_within_20_percent(self, spec):
        points, mix = generate_diffusion_dataset(spec, n_per_cell=500)
        arr = np.array([[p.x, p.y] for p in points])
        labels = np.array([(p.style, p.category) for p in points])
        for i in range(spec.n_styles):
            for j in range(spec.n_categories):
                sel = arr[(labels[:, 0] == i) & (labels[:, 1] == j)]
                emp = np.cov(sel.T)
                ref = mix.covs[i, j]
                # compare in the eigenbasis scale: relative Frobenius error
                rel = np.linalg.norm(emp - ref) / np.linalg.norm(ref)
                assert rel < 0.2

    def test_determinism(self, spec):
        a, _ = generate_diffusion_dataset(spec, n_per_cell=5)
        b, _ = generate_diffusion_dataset(spec, n_per_cell=5)
        assert a == b


class TestPersistence:
    def test_classification_roundtrip_exact(self, tmp_path, spec):
        small = SyntheticSpec(n_train=2, n_test=1)
        train, _ = generate_classification_dataset(small)
        path = tmp_path / "d.jsonl"
        export(train, path)
        assert load(path, "grid", small) == train

    def test_point_roundtrip_exact(self, tmp_path, spec):
        points, _ = generate_diffusion_dataset(spec, n_per_cell=3)
        path = tmp_path / "p.jsonl"
        export(points, path)
        assert load(path, "point", spec) == points

    def test_empty_dataset_empty_file(self, tmp_path):
        path = tmp_path / "e.jsonl"
        export([], path)
        assert path.read_bytes() == b""
        assert load(path, "grid", SyntheticSpec()) == []

    def test_malformed_line_names_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"x": 1.0, "y": 2.0, "style": 0, "category": 0, "caption": "a sketch style cat"}\nnot json\n')
        with pytest.raises(DatasetError, match="line 2"):
            load(path, "point", SyntheticSpec())

    def test_missing_field_names_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"x": 1.0}\n')
        with pytest.raises(DatasetError, match="line 1"):
            load(path, "point", SyntheticSpec())

    GRID = {"grid": np.full((8, 8, 3), 0.5).tolist(), "style": 0, "category": 0, "caption": "a sketch style cat"}
    POINT = {"x": 1.0, "y": 2.0, "style": 0, "category": 0, "caption": "a sketch style cat"}

    @pytest.mark.parametrize("kind, record, problem", [
        ("grid", POINT, "not a grid record"),
        ("point", GRID, "not a point record"),
        ("grid", {**GRID, "grid": np.full((4, 8, 3), 0.5).tolist()}, r"grid shape \(4, 8, 3\)"),
        ("grid", {**GRID, "style": 9}, "outside the spec's 3 styles"),
        ("point", {**POINT, "category": -1}, "outside the spec's 3 styles x 4 categories"),
        ("grid", {**GRID, "grid": np.full((8, 8, 3), 1.5).tolist()}, r"in \[0, 1\]"),
        ("grid", {**GRID, "style": 1.7}, "must be integers"),
        ("point", {**POINT, "caption": 5}, "caption a string"),
        ("point", {**POINT, "x": float("nan")}, "not finite"),
        ("point", {**POINT, "x": "1.5"}, "coordinates are not numbers"),
        ("point", {**POINT, "y": True}, "coordinates are not numbers"),
        ("point", {**POINT, "x": 10**400}, "too large"),
        ("grid", {**GRID, "grid": np.full((8, 8, 3), "0.5").tolist()}, "must be numbers"),
        ("grid", {**GRID, "grid": [[[True, 0.5, 0.5]] * 8] * 8}, "must be numbers"),
        # the spec's category names, cat, dog, car and tree, must leave a style half and a category half
        ("grid", {**GRID, "caption": "a sketch style"}, "caption 'a sketch style' does not decompose"),
        ("point", {**POINT, "caption": "cats"}, "caption 'cats' does not decompose"),
        ("point", {**POINT, "caption": "a sketch style lamp"}, "caption 'a sketch style lamp' does not decompose"),
    ], ids=["point-as-grid", "grid-as-point", "four-rows", "style-9", "category-minus-1", "value-1.5",
            "style-1.7", "caption-5", "x-nan", "x-string", "y-true", "x-huge-int", "grid-strings",
            "grid-mixed-bool", "caption-no-category", "caption-no-style", "caption-other-noun"])
    def test_record_checked_against_kind_and_spec(self, tmp_path, kind, record, problem):
        path = tmp_path / "d.jsonl"
        good = self.GRID if kind == "grid" else self.POINT
        path.write_text(json.dumps(good) + "\n" + json.dumps(record) + "\n")
        with pytest.raises(DatasetError, match=rf"{re.escape(str(path))}: .*line 2.*{problem}"):
            load(path, kind, SyntheticSpec())
