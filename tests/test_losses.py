"""Loss heads: exact value oracles, reductions, and gradient checks."""

import math

import numpy as np
import pytest

from stylecat import tensor as T
from stylecat.backbone import embed_image
from stylecat.datagen import SyntheticSpec, generate_classification_dataset
from stylecat.encoders import AdapterParams, adapt, adapt_array
from stylecat.losses import (
    ADVERSARIAL_MODES,
    ConfigError,
    category_labeled_loss,
    category_triplet_loss,
    ce_loss,
    class_logits,
    confusion_loss,
    style_labeled_loss,
    style_triplet_loss,
    triplet_hinge,
)
from stylecat.tensor import Tensor, backward, finite_diff_grad, relative_error
from stylecat.train import TrainConfig, build_backbone, fresh_bundle


def probabilities(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax of an (n, K) logit array."""
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def vectors_at_distances(d_pos, d_neg):
    """Three unit vectors with prescribed anchor distances (anchor = e1)."""
    anchor = np.array([1.0, 0.0, 0.0])
    t1 = 2.0 * math.asin(d_pos / 2.0)
    positive = np.array([math.cos(t1), math.sin(t1), 0.0])
    t2 = 2.0 * math.asin(d_neg / 2.0)
    negative = np.array([math.cos(t2), 0.0, math.sin(t2)])
    return anchor, positive, negative


def row(v):
    """One-row (1, D) feature tensor."""
    return Tensor(np.asarray(v, dtype=float)[None, :])


class TestClassLogits:
    def test_matching_prototype_wins(self):
        protos = Tensor(np.eye(3)[:, :3])
        f = row(np.eye(3)[0])
        logits = class_logits(f, protos, 20.0).data
        assert logits.shape == (1, 3)
        assert logits.argmax() == 0

    def test_scale_never_changes_argmax(self):
        rng = np.random.default_rng(1)
        f = row(unit(rng.standard_normal(6)))
        protos = Tensor(np.stack([unit(rng.standard_normal(6)) for _ in range(4)]))
        orders = {class_logits(f, protos, s).data.argmax() for s in (0.01, 1.0, 20.0, 500.0)}
        assert len(orders) == 1

    def test_vanishing_scale_gives_uniform_softmax(self):
        rng = np.random.default_rng(2)
        f = row(unit(rng.standard_normal(5)))
        protos = Tensor(np.stack([unit(rng.standard_normal(5)) for _ in range(3)]))
        p = probabilities(class_logits(f, protos, 1e-9).data)
        assert np.abs(p - 1 / 3).max() < 1e-9


class TestCeLoss:
    def test_uniform_logits_equal_log_k(self):
        for k in (2, 4, 7):
            loss = ce_loss(Tensor(np.zeros((1, k))), [0])
            assert abs(loss.item() - math.log(k)) < 1e-12

    def test_saturated_correct_logit_is_near_zero(self):
        assert ce_loss(Tensor([[1000.0, 0.0, 0.0]]), [0]).item() < 1e-12

    def test_gradient_on_random_logits(self):
        rng = np.random.default_rng(3)
        logits = Tensor(rng.standard_normal((5, 4)), requires_grad=True)
        labels = rng.integers(0, 4, 5)
        loss_fn = lambda _: ce_loss(logits, labels)
        logits.zero_grad()
        backward(loss_fn(None))
        fd = finite_diff_grad(loss_fn, logits).data
        assert relative_error(logits.grad, fd) < 1e-6

    def test_label_out_of_range(self):
        with pytest.raises(ValueError, match="labels"):
            ce_loss(Tensor(np.zeros((1, 3))), [3])

    def test_label_range_is_checked_at_both_ends(self):
        """Negative labels, the most negative int64 included, are refused; 0 and K - 1 are not."""
        logits = Tensor(np.zeros((2, 3)))
        for bad in ([0, -1], [-(2**63), 1], [2, 3], [1, 2**62]):
            with pytest.raises(ValueError, match=r"labels must lie in \[0, 3\)"):
                ce_loss(logits, bad)
            with pytest.raises(ValueError, match=r"labels must lie in \[0, 3\)"):
                confusion_loss(logits, bad, "uniform-kl")
        assert np.isfinite(ce_loss(logits, [0, 2]).item())

    def test_nonnegative_on_random_inputs(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            logits = Tensor(rng.standard_normal((3, 5)) * 10)
            labels = rng.integers(0, 5, 3)
            assert ce_loss(logits, labels).item() >= 0.0


class TestConfusionLoss:
    def test_uniform_kl_minimum_at_uniform(self):
        k = 4
        at_uniform = confusion_loss(Tensor(np.zeros((1, k))), [0], "uniform-kl").item()
        assert abs(at_uniform - math.log(k)) < 1e-12
        rng = np.random.default_rng(5)
        for _ in range(100):
            logits = Tensor(rng.standard_normal((1, k)) * rng.uniform(0.1, 10))
            assert confusion_loss(logits, [0], "uniform-kl").item() >= at_uniform - 1e-12

    def test_saturated_prediction_penalized(self):
        k = 3
        loss = confusion_loss(Tensor([[50.0, 0.0, 0.0]]), [1], "uniform-kl").item()
        assert loss > math.log(k) + 1.0

    def test_negated_ce_at_uniform(self):
        k = 5
        loss = confusion_loss(Tensor(np.zeros((2, k))), [0, 3], mode="negated-ce").item()
        assert abs(loss + math.log(k)) < 1e-12

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError, match="mode"):
            confusion_loss(Tensor(np.zeros((1, 2))), [0], mode="maximize")

    def test_direct_minimization_reaches_uniform(self):
        # 200 plain gradient steps drive predictions within 1e-3 of uniform
        rng = np.random.default_rng(6)
        logits = Tensor(rng.standard_normal((1, 4)) * 3, requires_grad=True)
        for _ in range(200):
            loss = confusion_loss(logits, [0], "uniform-kl")
            logits.zero_grad()
            backward(loss)
            logits.data = logits.data - 3.0 * logits.grad
        p = probabilities(logits.data)
        assert np.abs(p - 0.25).max() < 1e-3


@pytest.fixture(scope="module")
def labeled_world():
    """A bundle with nonzero adapters, and 12 image feature rows with their labels."""
    spec = SyntheticSpec()
    config = TrainConfig()
    backbone = build_backbone(spec, config)
    bundle = fresh_bundle(spec, config, backbone)
    rng = np.random.default_rng(7)
    bundle.style_adapter.w2.data[...] = 0.3 * rng.standard_normal(bundle.style_adapter.w2.shape)
    bundle.category_adapter.w2.data[...] = 0.3 * rng.standard_normal(bundle.category_adapter.w2.shape)
    batch = generate_classification_dataset(spec)[0][:12]
    f_i = embed_image(np.stack([s.grid for s in batch]), backbone).data
    labels = {kind: np.array([getattr(s, kind) for s in batch]) for kind in ("style", "category")}
    return spec, bundle, (f_i, labels)


class TestLabeledLosses:
    def test_lambda_zero_is_plain_ce_bitwise(self, labeled_world):
        _, bundle, (f_i, labels) = labeled_world
        cfg0 = TrainConfig(lambda1=0.0)
        full = style_labeled_loss(f_i, labels, bundle, cfg0).item()
        protos = bundle.adapted_prototypes("style", "style")
        plain = ce_loss(class_logits(Tensor(f_i), protos, cfg0.logit_scale), labels["style"]).item()
        assert full == plain  # bit-for-bit

    def test_default_lambdas_from_sweep_optima(self):
        cfg = TrainConfig()
        assert cfg.lambda1 == 0.2 and cfg.lambda2 == 0.3
        assert cfg.margin1 == 0.3 and cfg.margin2 == 0.3

    def test_style_loss_gradient_wrt_adapter(self, labeled_world):
        _, bundle, batch = labeled_world
        cfg = TrainConfig()
        loss_fn = lambda _: style_labeled_loss(*batch, bundle, cfg)
        params = bundle.style_adapter.tensors()
        for t in params:
            t.zero_grad()
        backward(loss_fn(None))
        for t in params:
            fd = finite_diff_grad(loss_fn, t).data
            assert relative_error(t.grad, fd) < 1e-4

    def test_category_loss_mirrors_style_loss(self, labeled_world):
        _, bundle, batch = labeled_world
        loss = category_labeled_loss(*batch, bundle, TrainConfig())
        assert loss.item() > 0
        bundle.category_adapter.zero_grad()
        bundle.style_adapter.zero_grad()
        backward(loss)
        assert all(np.abs(t.grad).max() > 0 for t in bundle.category_adapter.tensors())
        assert not bundle.style_adapter.flat_grad.any()


def tape(loss):
    """The non-leaf nodes of the tape that ends at ``loss``."""
    seen, stack = {}, [loss]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node._parents)
    return [node for node in seen.values() if node._grad_fn is not None]


def triplet_inputs(labeled_world, kind):
    """Frozen text rows, adapter, positive and negative of one ``kind`` triplet step.

    The text rows cycle through the prompt features; the first positive row
    equals the first adapted anchor row, so one distance is zero.
    """
    _, bundle, (f_i, _) = labeled_world
    texts = {k: t.data[np.arange(len(f_i)) % len(t.data)] for k, t in bundle.prompt_features.items()}
    other = "category" if kind == "style" else "style"
    negative = adapt_array(texts[other], bundle.adapter(other))[0]
    positive = f_i.copy()
    positive[0] = adapt_array(texts[kind], bundle.adapter(kind))[0][0]
    return texts[kind], bundle.adapter(kind), positive, negative


def layered_labeled(f_i, labels, bundle, cfg, kind):
    """The labeled objective as a composition of the single-layer ops."""
    other = "category" if kind == "style" else "style"
    lam = cfg.lambda1 if kind == "style" else cfg.lambda2
    p, f = bundle.adapter(kind), Tensor(f_i)
    base = ce_loss(class_logits(f, adapt(bundle.prompt_features[kind], p), cfg.logit_scale), labels[kind])
    if lam == 0:
        return base
    conf = confusion_loss(class_logits(f, adapt(bundle.prompt_features[other], p), cfg.logit_scale),
                          labels[other], cfg.adversarial_mode)
    return T.add(base, T.scale(conf, lam))


def value_and_grads(loss, p):
    """Bytes of the loss value and of each adapter gradient after one backward."""
    p.zero_grad()
    backward(loss)
    return [loss.data.tobytes()] + [t.grad.tobytes() for t in p.tensors()]


class TestFusedObjectives:
    """Each objective matches the composition of the single-layer ops byte for byte."""

    @pytest.mark.parametrize("mode", ADVERSARIAL_MODES)
    @pytest.mark.parametrize("lam", [0.0, 0.2])
    @pytest.mark.parametrize("kind", ["style", "category"])
    def test_labeled_matches_layered_bitwise(self, labeled_world, kind, lam, mode):
        _, bundle, (f_i, labels) = labeled_world
        cfg = TrainConfig(lambda1=lam, lambda2=lam, adversarial_mode=mode)
        fused = style_labeled_loss if kind == "style" else category_labeled_loss
        p = bundle.adapter(kind)
        expected = value_and_grads(layered_labeled(f_i, labels, bundle, cfg, kind), p)
        assert value_and_grads(fused(f_i, labels, bundle, cfg), p) == expected
        assert any(np.frombuffer(g).any() for g in expected[1:])

    @pytest.mark.parametrize("kind", ["style", "category"])
    def test_triplet_matches_layered_bitwise(self, labeled_world, kind):
        text, p, positive, negative = triplet_inputs(labeled_world, kind)
        fused = style_triplet_loss if kind == "style" else category_triplet_loss
        layered = triplet_hinge(adapt(Tensor(text), p), Tensor(positive), Tensor(negative), 0.3)
        expected = value_and_grads(layered, p)
        assert value_and_grads(fused(text, p, positive, negative, 0.3), p) == expected
        assert np.frombuffer(expected[1]).any()


class TestTapes:
    """One encoder training step records one node, over the stepped adapter's four tensors."""

    def test_labeled_objective_tapes_one_node(self, labeled_world):
        _, bundle, (f_i, labels) = labeled_world
        for kind, loss_fn in (("style", style_labeled_loss), ("category", category_labeled_loss)):
            inner = tape(loss_fn(f_i, labels, bundle, TrainConfig()))
            assert len(inner) == 1
            assert list(map(id, inner[0]._parents)) == list(map(id, bundle.adapter(kind).tensors()))

    def test_unlabeled_style_step_tapes_one_node(self, labeled_world):
        _, bundle, _ = labeled_world
        inner = tape(style_triplet_loss(*triplet_inputs(labeled_world, "style"), 0.3))
        assert len(inner) == 1
        assert list(map(id, inner[0]._parents)) == list(map(id, bundle.style_adapter.tensors()))


class TestTripletLosses:
    """The hinge on one-row (1, D) features, and the two triplet objectives built on it."""

    def test_inactive_hinge(self):
        a, p, n = vectors_at_distances(0.1, 0.5)
        loss = triplet_hinge(row(a), row(p), row(n), 0.3)
        assert loss.item() == 0.0

    def test_active_hinge_value(self):
        a, p, n = vectors_at_distances(0.5, 0.1)
        loss = triplet_hinge(row(a), row(p), row(n), 0.3)
        assert abs(loss.item() - 0.7) < 1e-12

    def test_degenerate_coincidence_returns_margin(self):
        v = row(unit([1.0, 2.0, 3.0]))
        loss = triplet_hinge(v, Tensor(v.data.copy()), Tensor(v.data.copy()), 0.3)
        assert loss.item() == 0.3

    def test_category_version_is_symmetric(self):
        a, p, n = vectors_at_distances(0.5, 0.1)
        adapter = AdapterParams.init(4)  # zero output layer: the adapted rows are the input rows
        text, positive, negative = (np.append(v, 0.0)[None, :] for v in (a, p, n))
        s = style_triplet_loss(text, adapter, positive, negative, 0.3).item()
        c = category_triplet_loss(text, adapter, positive, negative, 0.3).item()
        assert s == c
        assert abs(s - 0.7) < 1e-12

    def test_nonnegative_and_zero_iff_margin_cleared(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            f = [row(unit(rng.standard_normal(6))) for _ in range(3)]
            loss = triplet_hinge(*f, 0.3).item()
            d_pos = np.linalg.norm(f[0].data - f[1].data)
            d_neg = np.linalg.norm(f[0].data - f[2].data)
            assert loss >= 0.0
            if d_pos + 0.3 <= d_neg:
                assert loss == 0.0
            else:
                assert loss > 0.0

    def test_negative_is_detached(self):
        rng = np.random.default_rng(9)
        f_s = Tensor(unit(rng.standard_normal(5))[None, :], requires_grad=True)
        f_i = row(unit(rng.standard_normal(5)))
        f_c = Tensor(unit(rng.standard_normal(5))[None, :], requires_grad=True)
        loss = triplet_hinge(f_s, f_i, f_c, 0.3)
        f_s.zero_grad()
        f_c.zero_grad()
        backward(loss)
        assert f_s.grad is not None
        assert f_c.grad is None

    def test_gradient_through_anchor_path(self):
        rng = np.random.default_rng(10)
        adapter = AdapterParams(w1=Tensor(rng.standard_normal((8, 2)), requires_grad=True),
                                b1=Tensor(rng.standard_normal(2), requires_grad=True),
                                w2=Tensor(rng.standard_normal((2, 8)), requires_grad=True),
                                b2=Tensor(rng.standard_normal(8), requires_grad=True))
        while True:
            text, f_i, f_c = (np.stack([unit(rng.standard_normal(8)) for _ in range(3)]) for _ in range(3))
            anchor = adapt_array(text, adapter)[0]
            hinge = np.linalg.norm(anchor - f_i, axis=1) - np.linalg.norm(anchor - f_c, axis=1) + 0.3
            pre = text @ adapter.w1.data + adapter.b1.data
            if np.abs(hinge).min() > 1e-2 and np.abs(pre).min() > 1e-2:  # stay off both kinks
                break
        loss_fn = lambda _: style_triplet_loss(text, adapter, f_i, f_c, 0.3)
        adapter.zero_grad()
        backward(loss_fn(None))
        assert adapter.flat_grad.any()
        for t in adapter.tensors():
            fd = finite_diff_grad(loss_fn, t).data
            assert relative_error(t.grad, fd) < 1e-4


def test_loss_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(lambda1=-0.1)
    with pytest.raises(ConfigError):
        TrainConfig(margin1=-1.0)
    with pytest.raises(ConfigError):
        TrainConfig(adversarial_mode="nope")
    with pytest.raises(ConfigError):
        TrainConfig(logit_scale=0.0)
