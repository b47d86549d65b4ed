"""Adapters, encoder bundle, and residual blending."""

import itertools

import numpy as np
import pytest

from stylecat import tensor as T
from stylecat.backbone import embed_caption
from stylecat.datagen import SyntheticSpec, generate_classification_dataset
from stylecat.encoders import AdapterParams, EncoderBundle, adapter_forward, blend
from stylecat.losses import LossConfig, style_labeled_loss
from stylecat.tensor import Tensor, backward, finite_diff_grad, no_grad, relative_error
from stylecat.train import TrainConfig, build_backbone, fresh_bundle, train_encoders


@pytest.fixture(scope="module")
def spec():
    return SyntheticSpec()


@pytest.fixture(scope="module")
def backbone(spec):
    return build_backbone(spec, TrainConfig())


@pytest.fixture(scope="module")
def bundle(spec, backbone):
    return fresh_bundle(spec, TrainConfig(), backbone)


class TestAdapterForward:
    def test_zero_parameters_give_zero_vector(self):
        p = AdapterParams(
            w1=Tensor(np.zeros((4, 2))), b1=Tensor(np.zeros(2)),
            w2=Tensor(np.zeros((2, 4))), b2=Tensor(np.zeros(4)),
        )
        out = adapter_forward(Tensor([1.0, -2.0, 3.0, 0.5]), p)
        assert np.array_equal(out.data, np.zeros(4))

    def test_identity_composition_on_nonnegative_input(self):
        d = 5
        p = AdapterParams(
            w1=Tensor(np.eye(d)), b1=Tensor(np.zeros(d)),
            w2=Tensor(np.eye(d)), b2=Tensor(np.zeros(d)),
        )
        f = np.array([0.3, 0.0, 1.2, 0.7, 0.01])
        assert np.allclose(adapter_forward(Tensor(f), p).data, f, atol=1e-15)

    def test_gradients_for_all_four_parameters(self):
        rng = np.random.default_rng(2)
        p = AdapterParams.init(6, hidden=2, seed=0)
        p.w2.data = 0.4 * rng.standard_normal(p.w2.shape)
        p.b2.data = 0.1 * rng.standard_normal(p.b2.shape)
        f = Tensor(rng.standard_normal((3, 6)))
        w = rng.standard_normal((3, 6))
        loss_fn = lambda _: T.tensor_sum(T.mul(adapter_forward(f, p), Tensor(w)))
        for t in p.tensors():
            t.zero_grad()
        backward(loss_fn(None))
        for t in p.tensors():
            fd = finite_diff_grad(loss_fn, t).data
            assert relative_error(t.grad, fd) < 1e-4

    def test_dimension_mismatch(self):
        p = AdapterParams.init(8, seed=0)
        with pytest.raises(T.ShapeError):
            adapter_forward(Tensor(np.zeros(5)), p)

    def test_hidden_width_validated(self):
        with pytest.raises(ValueError, match=">= 1"):
            AdapterParams.init(2, hidden=0)


class TestEncode:
    def test_zero_init_reduces_to_frozen_feature(self, bundle, spec):
        caption = spec.caption(0, 0)
        frozen = embed_caption(caption, bundle.backbone).data
        out = bundle.encode_caption(caption, "style").data
        assert np.abs(out - frozen).max() < 1e-12

    def test_determinism(self, bundle, spec):
        caption = spec.caption(1, 2)
        assert np.array_equal(bundle.encode_caption(caption, "style").data,
                              bundle.encode_caption(caption, "style").data)

    def test_outputs_unit_norm(self, spec, backbone):
        rng = np.random.default_rng(4)
        b = fresh_bundle(spec, TrainConfig(), backbone)
        b.style_adapter.w2.data = rng.standard_normal(b.style_adapter.w2.shape)
        for i, j in itertools.product(range(spec.n_styles), range(spec.n_categories)):
            f = b.encode_caption(spec.caption(i, j), "style").data
            assert abs(np.linalg.norm(f) - 1.0) < 1e-9

    def test_trained_style_geometry(self, spec):
        train, _ = generate_classification_dataset(spec)
        config = TrainConfig(shots=16)
        trained, _ = train_encoders(config, spec, train)
        with no_grad():
            feats = {
                (i, j): trained.encode_caption(spec.caption(i, j), "style").data
                for i in range(spec.n_styles)
                for j in range(spec.n_categories)
            }
        same_style, diff_style = [], []
        for (k1, v1), (k2, v2) in itertools.combinations(feats.items(), 2):
            cos = float(v1 @ v2)
            if k1[0] == k2[0] and k1[1] != k2[1]:
                same_style.append(cos)
            elif k1[0] != k2[0] and k1[1] == k2[1]:
                diff_style.append(cos)
        wins = sum(s > d for s in same_style for d in diff_style)
        assert wins / (len(same_style) * len(diff_style)) >= 0.9


class TestBlend:
    def test_alpha_zero_returns_frozen(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            frozen = rng.standard_normal(8)
            frozen /= np.linalg.norm(frozen)
            adapted = rng.standard_normal(8)
            adapted /= np.linalg.norm(adapted)
            out = blend(Tensor(adapted), Tensor(frozen), 0.0).data
            assert np.abs(out - frozen).max() <= 1e-12

    def test_alpha_one_returns_adapted(self):
        rng = np.random.default_rng(7)
        adapted = rng.standard_normal(8)
        adapted /= np.linalg.norm(adapted)
        out = blend(Tensor(adapted), Tensor(np.roll(adapted, 1)), 1.0).data
        assert np.abs(out - adapted).max() <= 1e-12

    def test_equal_inputs_idempotent(self):
        v = np.array([0.6, 0.8, 0.0])
        out = blend(Tensor(v), Tensor(v.copy()), 0.5).data
        assert np.abs(out - v).max() <= 1e-12

    def test_alpha_out_of_range(self):
        v = Tensor([1.0, 0.0])
        for bad in (-0.1, 1.0001):
            with pytest.raises(ValueError, match="alpha"):
                blend(v, v, bad)


class TestParameterIsolation:
    def test_style_loss_leaves_category_adapter_untouched(self, spec, backbone):
        b = fresh_bundle(spec, TrainConfig(), backbone)
        train, _ = generate_classification_dataset(spec)
        loss = style_labeled_loss(train[:8], b, LossConfig())
        for t in b.trainable_tensors():
            t.zero_grad()
        backward(loss)
        assert all(t.grad is not None for t in b.style_adapter.tensors())
        assert all(t.grad is None for t in b.category_adapter.tensors())

    def test_shared_adapter_rejected(self, backbone, spec):
        a = AdapterParams.init(backbone.dim, seed=0)
        with pytest.raises(ValueError, match="share"):
            EncoderBundle(backbone, a, a, spec.style_names, spec.category_names)
