"""Frozen backbone: determinism, normalization, and alignment geometry."""

import itertools

import numpy as np
import pytest

from stylecat.backbone import (
    FrozenWeights,
    Vocab,
    embed_caption,
    embed_captions,
    embed_image,
    embed_text,
)
from stylecat.datagen import DatasetError, SyntheticSpec, default_names, generate_classification_dataset
from stylecat.encoders import PROMPT_TEMPLATES
from stylecat.train import TrainConfig, build_backbone, fresh_bundle


@pytest.fixture(scope="module")
def spec():
    return SyntheticSpec()


@pytest.fixture(scope="module")
def weights(spec):
    return build_backbone(spec, TrainConfig())


class TestVocab:
    def test_ids_dense_and_injective(self, weights):
        v = weights.vocab
        ids = [v.id_of(t) for t in v.tokens()]
        assert sorted(ids) == list(range(1, v.size))

    def test_unknown_maps_to_zero(self, weights):
        assert weights.vocab.id_of("zzz-not-a-word") == 0

    def test_case_folding(self):
        v = Vocab.from_texts(["A Cat sat"])
        assert v.id_of("CAT") == v.id_of("cat")


class TestEmbedText:
    def test_single_token_is_normalized_row(self, weights):
        tid = weights.vocab.id_of("cat")
        row = weights.token_embed[tid]
        out = embed_text([tid], weights)
        assert type(out) is np.ndarray and out.shape == (1, weights.dim)
        assert np.allclose(out[0], row / np.linalg.norm(row), atol=1e-12)

    def test_determinism_across_builds(self, spec):
        a = build_backbone(spec, TrainConfig())
        b = build_backbone(spec, TrainConfig())
        assert a.checksum() == b.checksum()
        ids = a.vocab.encode("a sketch style cat")
        assert np.array_equal(embed_text(ids, a), embed_text(ids, b))

    def test_permutation_invariance(self, weights):
        ids = weights.vocab.encode("a sketch style cat")
        assert np.array_equal(embed_text(ids, weights), embed_text(ids[::-1], weights))

    def test_empty_tokens_error(self, weights):
        with pytest.raises(ValueError, match="empty"):
            embed_text([], weights)

    def test_unit_norm(self, weights):
        for text in ("a cat", "a sketch style dog", "tree"):
            f = embed_caption(text, weights)
            assert abs(np.linalg.norm(f) - 1.0) < 1e-9


class TestEmbedImage:
    def test_zero_grid_returns_normalized_bias(self, weights):
        out = embed_image(np.zeros((1, 8, 8, 3)), weights)
        expected = weights.img_bias / np.linalg.norm(weights.img_bias)
        assert type(out) is np.ndarray and out.shape == (1, weights.dim)
        assert np.allclose(out[0], expected, atol=1e-12)

    def test_determinism(self, weights, spec):
        grids = np.stack([s.grid for s in generate_classification_dataset(spec)[0][:5]])
        assert np.array_equal(embed_image(grids, weights), embed_image(grids, weights))

    def test_stack_matches_per_grid_reference(self, weights, spec):
        # One matmul over the stack sums in another order than one product per
        # grid; float64 rounding over a 192-term dot product stays far below 1e-14.
        train, _ = generate_classification_dataset(spec)
        feats = embed_image(np.stack([s.grid for s in train]), weights)
        for s, row in zip(train, feats):
            vec = s.grid.reshape(-1) @ weights.img_proj + weights.img_bias
            assert np.abs(row - vec / np.linalg.norm(vec)).max() < 1e-14

    def test_out_of_range_rejected(self, weights):
        for value in (1.5, -0.5, np.nan):  # a NaN fails both ``min() < 0`` and ``max() > 1``
            bad = np.full((2, 8, 8, 3), 0.5)
            bad[1, 3, 4, 2] = value
            with pytest.raises(ValueError, match=r"\[0, 1\]"):
                embed_image(bad, weights)

    def test_bad_shape_rejected(self, weights):
        for bad in (np.zeros((1, 4, 4, 3)), np.zeros((8, 8, 3))):
            with pytest.raises(ValueError, match="shape"):
                embed_image(bad, weights)

    def test_within_category_similarity_exceeds_across(self, weights, spec):
        _, test = generate_classification_dataset(spec)
        feats = embed_image(np.stack([s.grid for s in test]), weights)
        cats = np.array([s.category for s in test])
        sims = feats @ feats.T
        mask = ~np.eye(len(test), dtype=bool)
        same = sims[(cats[:, None] == cats[None, :]) & mask].mean()
        across = sims[(cats[:, None] != cats[None, :]) & mask].mean()
        assert same > across

    def test_every_accepted_spec_has_a_full_ceiling(self):
        """Over 2-6 styles and 2-10 categories at seed 0 and the default noise, every spec that
        ``SyntheticSpec`` accepts has a backbone ceiling of at least 0.99 per factor: the test top-1 of
        the nearest class centroid of the frozen features of the training grids. Every spec it refuses
        raises naming both counts."""
        accepted = 0
        for styles, categories in itertools.product(range(2, 7), range(2, 11)):
            names = dict(style_names=default_names(styles, "style"),
                         category_names=default_names(categories, "category"))
            try:
                spec = SyntheticSpec(n_styles=styles, n_categories=categories, **names)
            except DatasetError as e:
                assert str(e).startswith(f"{styles} styles and {categories} categories: ")
                continue
            accepted += 1
            weights = build_backbone(spec, TrainConfig())
            train, test = generate_classification_dataset(spec)
            f_train, f_test = (embed_image(np.stack([s.grid for s in split]), weights) for split in (train, test))
            for kind, n in (("style", styles), ("category", categories)):
                y_train, y_test = (np.array([getattr(s, kind) for s in split]) for split in (train, test))
                centroids = np.stack([f_train[y_train == k].mean(axis=0) for k in range(n)])
                nearest = np.linalg.norm(f_test[:, None] - centroids[None], axis=2).argmin(axis=1)
                assert (nearest == y_test).mean() >= 0.99, (styles, categories, kind)
        assert accepted == 18


class TestPromptPrototypes:
    def test_one_unit_feature_per_class(self, weights):
        protos = embed_captions([PROMPT_TEMPLATES["category"].format(n) for n in ("cat", "dog")], weights)
        assert type(protos) is np.ndarray and protos.shape == (2, weights.dim)
        assert np.abs(np.linalg.norm(protos, axis=1) - 1.0).max() < 1e-9

    def test_distinct_classes_distinct_prototypes(self, weights, spec):
        protos = fresh_bundle(spec, TrainConfig(), weights).prompt_features["category"]
        assert type(protos) is np.ndarray and protos.shape == (spec.n_categories, weights.dim)
        for a, b in itertools.combinations(protos, 2):
            assert not np.allclose(a, b)

    def test_placeholder_free_template_collapses(self, weights):
        protos = embed_captions(["a photo".format(n) for n in ("cat", "dog")], weights)
        assert np.array_equal(protos[0], protos[1])


def test_alignment_own_caption_beats_mismatched(weights, spec):
    _, test = generate_classification_dataset(spec)
    wins = 0
    feats = embed_image(np.stack([s.grid for s in test]), weights)
    for s, f_i in zip(test, feats):
        own = embed_caption(s.caption, weights)[0]
        other_cap = spec.caption((s.style + 1) % spec.n_styles, (s.category + 1) % spec.n_categories)
        other = embed_caption(other_cap, weights)[0]
        wins += float(f_i @ own) > float(f_i @ other)
    assert wins / len(test) >= 0.95


def test_frozen_weights_unchanged_by_training(spec):
    from stylecat.train import train_encoders

    config = TrainConfig(epochs=2, shots=4)
    train, _ = generate_classification_dataset(spec)
    bundle, _ = train_encoders(config, spec, train)
    assert bundle.backbone.checksum() == build_backbone(spec, config).checksum()


def test_build_requires_capacity_for_codes():
    spec = SyntheticSpec()
    with pytest.raises(ValueError, match="too small"):
        build_backbone(spec, TrainConfig(dim=4))
