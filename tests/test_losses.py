"""Loss heads: exact value oracles, reductions, and gradient checks."""

import math

import numpy as np
import pytest

from stylecat import tensor as T
from stylecat.backbone import embed_captions, embed_image
from stylecat.datagen import SyntheticSpec, generate_classification_dataset
from stylecat.losses import (
    ConfigError,
    category_labeled_loss,
    category_triplet_loss,
    ce_loss,
    class_logits,
    confusion_loss,
    style_labeled_loss,
    style_triplet_loss,
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
    f_i = embed_image(np.stack([s.grid for s in batch]), backbone)
    labels = {kind: np.array([getattr(s, kind) for s in batch]) for kind in ("style", "category")}
    return spec, bundle, (f_i, labels)


class TestLabeledLosses:
    def test_lambda_zero_is_plain_ce_bitwise(self, labeled_world):
        _, bundle, (f_i, labels) = labeled_world
        cfg0 = TrainConfig(lambda1=0.0)
        full = style_labeled_loss(f_i, labels, bundle, cfg0).item()
        protos = bundle.adapted_prototypes("style", "style")
        plain = ce_loss(class_logits(f_i, protos, cfg0.logit_scale), labels["style"]).item()
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
    """(non-leaf nodes, trainable leaves) of the tape that ends at ``loss``."""
    seen, stack = {}, [loss]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node._parents)
    inner = [node for node in seen.values() if node._grad_fn is not None]
    leaves = [node for node in seen.values() if node._grad_fn is None and node.requires_grad]
    return inner, leaves


class TestTapes:
    """Each layer is one coarse node; these pin the node counts of one training step."""

    def test_labeled_objective_tapes_ten_nodes(self, labeled_world):
        # per factor: adapt, cosine, scale, ce or confusion; then scale(conf, lambda) and add
        _, bundle, (f_i, labels) = labeled_world
        for kind, loss_fn in (("style", style_labeled_loss), ("category", category_labeled_loss)):
            inner, leaves = tape(loss_fn(f_i, labels, bundle, TrainConfig()))
            assert len(inner) == 10
            assert sorted(map(id, leaves)) == sorted(map(id, bundle._adapter(kind).tensors()))

    def test_unlabeled_style_step_tapes_two_nodes(self, labeled_world):
        spec, bundle, (f_i, _) = labeled_world
        texts = [spec.caption(0, 0), spec.caption(1, 1)]
        frozen = embed_captions(texts, bundle.backbone)
        f_s = bundle.adapt_feature(Tensor(frozen.data[:1].repeat(12, axis=0)), "style")
        f_c = bundle.adapt_feature(Tensor(frozen.data[1:].repeat(12, axis=0)), "category")
        inner, leaves = tape(style_triplet_loss(f_s, f_i, f_c, 0.3))
        assert len(inner) == 2
        assert sorted(map(id, leaves)) == sorted(map(id, bundle.style_adapter.tensors()))


class TestTripletLosses:
    """The two hinges on one-row (1, D) features."""

    def test_inactive_hinge(self):
        a, p, n = vectors_at_distances(0.1, 0.5)
        loss = style_triplet_loss(row(a), row(p), row(n), 0.3)
        assert loss.item() == 0.0

    def test_active_hinge_value(self):
        a, p, n = vectors_at_distances(0.5, 0.1)
        loss = style_triplet_loss(row(a), row(p), row(n), 0.3)
        assert abs(loss.item() - 0.7) < 1e-12

    def test_degenerate_coincidence_returns_margin(self):
        v = row(unit([1.0, 2.0, 3.0]))
        loss = style_triplet_loss(v, Tensor(v.data.copy()), Tensor(v.data.copy()), 0.3)
        assert loss.item() == 0.3

    def test_category_version_is_symmetric(self):
        a, p, n = vectors_at_distances(0.5, 0.1)
        s = style_triplet_loss(row(a), row(p), row(n), 0.3).item()
        c = category_triplet_loss(row(a), row(p), row(n), 0.3).item()
        assert s == c

    def test_nonnegative_and_zero_iff_margin_cleared(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            f = [row(unit(rng.standard_normal(6))) for _ in range(3)]
            loss = style_triplet_loss(*f, 0.3).item()
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
        loss = style_triplet_loss(f_s, f_i, f_c, 0.3)
        f_s.zero_grad()
        f_c.zero_grad()
        backward(loss)
        assert f_s.grad is not None
        assert f_c.grad is None

    def test_gradient_through_anchor_path(self):
        rng = np.random.default_rng(10)
        while True:
            f_s = Tensor(unit(rng.standard_normal(6))[None, :], requires_grad=True)
            f_i = row(unit(rng.standard_normal(6)))
            f_c = row(unit(rng.standard_normal(6)))
            d_pos = np.linalg.norm(f_s.data - f_i.data)
            d_neg = np.linalg.norm(f_s.data - f_c.data)
            if abs(d_pos - d_neg + 0.3) > 1e-2:  # stay off the hinge kink
                break
        loss_fn = lambda _: style_triplet_loss(f_s, f_i, f_c, 0.3)
        f_s.zero_grad()
        backward(loss_fn(None))
        fd = finite_diff_grad(loss_fn, f_s).data
        assert relative_error(f_s.grad, fd) < 1e-4


def test_loss_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(lambda1=-0.1)
    with pytest.raises(ConfigError):
        TrainConfig(margin1=-1.0)
    with pytest.raises(ConfigError):
        TrainConfig(adversarial_mode="nope")
    with pytest.raises(ConfigError):
        TrainConfig(logit_scale=0.0)
