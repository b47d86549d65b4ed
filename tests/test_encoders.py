"""Adapters, encoder bundle, and residual blending."""

import itertools
from types import SimpleNamespace

import numpy as np
import pytest

from stylecat import tensor as T
from stylecat.backbone import embed_caption, embed_image
from stylecat.datagen import SyntheticSpec, generate_classification_dataset
from stylecat.encoders import AdapterParams, EncoderBundle, blend
from stylecat.losses import _LabeledRun, style_labeled_loss
from stylecat.tensor import Tensor, backward, finite_diff_grad, relative_error
from stylecat.train import Adam, TrainConfig, build_backbone, fresh_bundle, save_encoder_checkpoint, train_encoders

from layered_ops import adapt


@pytest.fixture(scope="module")
def spec():
    return SyntheticSpec()


@pytest.fixture(scope="module")
def backbone(spec):
    return build_backbone(spec, TrainConfig())


@pytest.fixture(scope="module")
def bundle(spec, backbone):
    return fresh_bundle(spec, TrainConfig(), backbone)


def weighted_sum(x, w):
    """Scalar sum(w * x) with ``w`` constant, as one tape node."""
    return T._node(np.asarray((x.data * w).sum()), (x,), lambda g: (float(g) * w,))


def encode_caption(bundle, caption, kind):
    """The caption's (1, D) frozen text feature through the ``kind`` adapter."""
    return bundle.adapt_feature(embed_caption(caption, bundle.backbone), kind)


class TestAdapterForward:
    """``adapt``: normalize(f + relu(f . w1 + b1) . w2 + b2) as one tape node."""

    def test_zero_parameters_give_zero_vector(self):
        # a zero adapter adds a zero delta: the output is the normalized input
        p = AdapterParams(
            w1=Tensor(np.zeros((4, 2))), b1=Tensor(np.zeros(2)),
            w2=Tensor(np.zeros((2, 4))), b2=Tensor(np.zeros(4)),
        )
        f = np.array([[1.0, -2.0, 3.0, 0.5]])
        out = adapt(Tensor(f), p)
        assert np.array_equal(out.data, f / np.linalg.norm(f))

    def test_identity_composition_on_nonnegative_input(self):
        # identity layers double a nonnegative row, which normalizes to the normalized row
        d = 5
        p = AdapterParams(
            w1=Tensor(np.eye(d)), b1=Tensor(np.zeros(d)),
            w2=Tensor(np.eye(d)), b2=Tensor(np.zeros(d)),
        )
        f = np.array([[0.3, 0.0, 1.2, 0.7, 0.01]])
        assert np.allclose(adapt(Tensor(f), p).data, f / np.linalg.norm(f), atol=1e-15)

    def test_gradients_for_all_four_parameters(self):
        rng = np.random.default_rng(2)
        w1 = np.random.default_rng(0).uniform(-1 / np.sqrt(6), 1 / np.sqrt(6), size=(6, 2))
        w2, b2 = 0.4 * rng.standard_normal((2, 6)), 0.1 * rng.standard_normal(6)
        p = AdapterParams(*(Tensor(x, requires_grad=True) for x in (w1, np.zeros(2), w2, b2)))
        f = Tensor(rng.standard_normal((3, 6)), requires_grad=True)
        w = rng.standard_normal((3, 6))
        loss_fn = lambda _: weighted_sum(adapt(f, p), w)
        for t in p.tensors() + [f]:
            t.zero_grad()
        backward(loss_fn(None))
        for t in p.tensors() + [f]:
            fd = finite_diff_grad(loss_fn, t)
            assert relative_error(t.grad, fd) < 1e-4

    def test_dimension_mismatch(self):
        p = AdapterParams.init(8, seed=0)
        for bad in (np.zeros((1, 5)), np.zeros(8)):
            with pytest.raises(T.ShapeError):
                adapt(Tensor(bad), p)

    def test_hidden_width_validated(self):
        assert AdapterParams.init(8).w1.shape == (8, 2)
        with pytest.raises(ValueError, match=">= 1"):
            AdapterParams.init(3)


class TestEncode:
    def test_zero_init_reduces_to_frozen_feature(self, bundle, spec):
        caption = spec.caption(0, 0)
        frozen = embed_caption(caption, bundle.backbone)
        out = encode_caption(bundle, caption, "style")
        assert type(out) is np.ndarray and out.shape == frozen.shape
        assert np.abs(out - frozen).max() < 1e-12

    def test_determinism(self, bundle, spec):
        caption = spec.caption(1, 2)
        assert np.array_equal(encode_caption(bundle, caption, "style"),
                              encode_caption(bundle, caption, "style"))

    def test_outputs_unit_norm(self, spec, backbone):
        rng = np.random.default_rng(4)
        b = fresh_bundle(spec, TrainConfig(), backbone)
        b.style_adapter.w2.data[...] = rng.standard_normal(b.style_adapter.w2.shape)
        for i, j in itertools.product(range(spec.n_styles), range(spec.n_categories)):
            f = encode_caption(b, spec.caption(i, j), "style")
            assert abs(np.linalg.norm(f) - 1.0) < 1e-9

    def test_trained_style_geometry(self, spec):
        train, _ = generate_classification_dataset(spec)
        config = TrainConfig(shots=16)
        trained, _ = train_encoders(config, spec, train)
        feats = {
            (i, j): encode_caption(trained, spec.caption(i, j), "style")[0]
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
            out = blend(adapted, frozen, 0.0)
            assert type(out) is np.ndarray
            assert np.abs(out - frozen).max() <= 1e-12

    def test_alpha_one_returns_adapted(self):
        rng = np.random.default_rng(7)
        adapted = rng.standard_normal(8)
        adapted /= np.linalg.norm(adapted)
        out = blend(adapted, np.roll(adapted, 1), 1.0)
        assert np.abs(out - adapted).max() <= 1e-12

    def test_equal_inputs_idempotent(self):
        v = np.array([0.6, 0.8, 0.0])
        out = blend(v, v.copy(), 0.5)
        assert np.abs(out - v).max() <= 1e-12

    def test_alpha_out_of_range(self):
        v = np.array([1.0, 0.0])
        for bad in (-0.1, 1.0001):
            with pytest.raises(ValueError, match="alpha"):
                blend(v, v, bad)

    def test_opposite_rows_at_half_alpha_rejected(self):
        v = np.array([[0.6, 0.8, 0.0]])
        with pytest.raises(ValueError, match="zero norm"):
            blend(v, -v, 0.5)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(T.ShapeError):
            blend(np.ones((2, 3)), np.ones((1, 3)), 0.5)


class TestParameterIsolation:
    def test_style_loss_leaves_category_adapter_untouched(self, spec, backbone):
        """A labeled step steps both adapters, but each kind's value and gradient read only its own
        adapter: changing the category adapter keeps the style ones' bits, and the reverse."""
        b = fresh_bundle(spec, TrainConfig(), backbone)
        batch = generate_classification_dataset(spec)[0][:8]
        f_i = embed_image(np.stack([s.grid for s in batch]), backbone)
        labels = {kind: np.array([getattr(s, kind) for s in batch]) for kind in ("style", "category")}

        def step():
            run = _LabeledRun(f_i, labels, b)
            loss = style_labeled_loss(run, TrainConfig())
            b.adapters.zero_grad()
            backward(loss)
            return {kind: (run.values[kind], b.adapter(kind).flat_grad.tobytes()) for kind in ("style", "category")}

        rng = np.random.default_rng(5)
        before = step()
        for kind in ("category", "style"):
            b.adapter(kind).w2.data[...] = 0.3 * rng.standard_normal(b.adapter(kind).w2.shape)
            after = step()
            other = "style" if kind == "category" else "category"
            assert after[other] == before[other] and after[kind] != before[kind]
            before = after

    def test_shared_adapter_rejected(self, backbone, spec):
        a = AdapterParams.init(backbone.dim, seed=0)
        with pytest.raises(ValueError, match="share"):
            EncoderBundle(backbone, a, a, spec.style_names, spec.category_names)


class TestJointBuffer:
    """``EncoderBundle.adapters``: both adapters' parameters in one kind-major buffer."""

    def test_halves_and_the_stacked_view_share_memory(self, spec, backbone):
        b = fresh_bundle(spec, TrainConfig(), backbone)
        half = b.style_adapter.flat.size
        assert b.adapters.flat.size == 2 * half
        for i, kind in enumerate(("style", "category")):
            assert np.shares_memory(b.adapter(kind).flat, b.adapters.flat[i * half:(i + 1) * half])
            assert np.shares_memory(b.adapter(kind).flat_grad, b.adapters.flat_grad[i * half:(i + 1) * half])
        b.style_adapter.w1.data[2, 1] = 7.0
        assert b.adapters.w1.data[0, 2, 1] == 7.0
        b.adapters.b2.data[1, 3] = -4.0
        assert b.category_adapter.b2.data[3] == -4.0 and b.category_adapter.flat[-b.adapters.b2.shape[1] + 3] == -4.0
        b.adapters.w2.grad[1, 0, 5] = 2.5
        assert b.category_adapter.w2.grad[0, 5] == 2.5
        assert [t.shape for t in b.adapters.tensors()] == [(2, *t.shape) for t in b.style_adapter.tensors()]

    def test_one_stacked_adam_step_equals_one_per_half(self, spec, backbone):
        rng = np.random.default_rng(6)
        joint, apart = fresh_bundle(spec, TrainConfig(), backbone), fresh_bundle(spec, TrainConfig(), backbone)
        opt = Adam(joint.adapters, 1e-3)
        opts = [Adam(apart.adapter(kind), 1e-3) for kind in ("style", "category")]
        for _ in range(3):
            g = rng.standard_normal(joint.adapters.flat.size)
            joint.adapters.flat_grad[...] = g
            apart.adapters.flat_grad[...] = g
            opt.step()
            for o in opts:
                o.step()
        assert joint.adapters.flat.tobytes() == apart.adapters.flat.tobytes()
        assert np.abs(joint.adapters.flat - fresh_bundle(spec, TrainConfig(), backbone).adapters.flat).max() > 0

    def test_checkpoint_bytes_match_two_standalone_groups(self, spec, tmp_path):
        config = TrainConfig()
        standalone = {"style": AdapterParams.init(config.dim, seed=config.seed),
                      "category": AdapterParams.init(config.dim, seed=config.seed + 1)}
        save_encoder_checkpoint(tmp_path / "bundle.ckpt", fresh_bundle(spec, config), config, spec)
        save_encoder_checkpoint(tmp_path / "apart.ckpt", SimpleNamespace(adapter=standalone.__getitem__), config, spec)
        assert (tmp_path / "bundle.ckpt").read_bytes() == (tmp_path / "apart.ckpt").read_bytes()

    def test_groups_of_two_shapes_are_refused(self):
        with pytest.raises(T.ShapeError, match="differ in shape"):
            AdapterParams.stack(AdapterParams.init(8), AdapterParams.init(12))
