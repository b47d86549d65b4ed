"""Loss heads: exact value oracles, reductions, and gradient checks."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from stylecat import losses
from stylecat import tensor as T
from stylecat.backbone import embed_image
from stylecat.datagen import SyntheticSpec, generate_classification_dataset
from stylecat.encoders import AdapterParams, adapt_array
from stylecat.losses import (
    ADVERSARIAL_MODES,
    ConfigError,
    class_logits,
    style_labeled_loss,
    style_triplet_loss,
)
from stylecat.tensor import Tensor, backward, finite_diff_grad, relative_error
from stylecat.train import TrainConfig, build_backbone, fresh_bundle

from layered_ops import adapt, ce_loss, confusion_loss, layered_labeled, prompt_logits, triplet_hinge


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
        fd = finite_diff_grad(loss_fn, logits)
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
    f_i = embed_image(np.stack([s.grid for s in batch]), backbone)
    labels = {kind: np.array([getattr(s, kind) for s in batch]) for kind in ("style", "category")}
    return spec, bundle, (f_i, labels)


class TestLabeledLosses:
    def test_lambda_zero_is_plain_ce_bitwise(self, labeled_world):
        """With lambda1 = 0 the style value is the plain cross-entropy's, bit for bit, on any BLAS kernel:
        ``prompt_logits`` runs the GEMMs of the step's style slice."""
        _, bundle, (f_i, labels) = labeled_world
        cfg0 = TrainConfig(lambda1=0.0)
        run = losses._LabeledRun(f_i, labels, bundle)
        style_labeled_loss(run, cfg0)
        own, _ = prompt_logits(f_i, bundle, "style", cfg0.logit_scale)
        assert run.values["style"] == ce_loss(own, labels["style"]).item()  # bit-for-bit
        assert run.values["category"] != ce_loss(prompt_logits(f_i, bundle, "category", cfg0.logit_scale)[0],
                                                 labels["category"]).item()  # lambda2 is not 0

    def test_default_lambdas_from_sweep_optima(self):
        cfg = TrainConfig()
        assert cfg.lambda1 == 0.2 and cfg.lambda2 == 0.3
        assert cfg.margin1 == 0.3 and cfg.margin2 == 0.3

    def test_style_loss_gradient_wrt_adapter(self, labeled_world):
        _, bundle, batch = labeled_world
        cfg = TrainConfig()
        run = losses._LabeledRun(*batch, bundle)
        loss_fn = lambda _: style_labeled_loss(run, cfg)
        params = bundle.style_adapter.tensors()
        loss_fn(None)
        grads = [t.grad.copy() for t in params]  # each central difference runs the step, which rewrites them
        for t, g in zip(params, grads):
            fd = finite_diff_grad(loss_fn, t)
            assert relative_error(g, fd) < 1e-4

    @pytest.mark.parametrize("edit, error, message", [
        (lambda f, y: (f, {**y, "category": y["category"] + 4}), ValueError, r"labels must lie in \[0, 4\)"),
        (lambda f, y: (f, {**y, "style": y["style"][:-1]}), T.ShapeError, "labels shape"),
        (lambda f, y: (f[:, :16], y), T.ShapeError, "width"),
        (lambda f, y: (f[0], y), T.ShapeError, "width"),
        (lambda f, y: (np.concatenate([f[:-1], 0.0 * f[-1:]]), y), ValueError, "zero norm"),
    ], ids=["label-range", "label-shape", "feature-width", "one-row", "zero-row"])
    @pytest.mark.parametrize("kind", ["style", "category"])
    def test_direct_call_checks_its_inputs(self, labeled_world, kind, edit, error, message):
        """The run an objective takes checks its labels and feature rows when it is built."""
        _, bundle, (f_i, labels) = labeled_world
        with pytest.raises(error, match=message):
            losses._LabeledRun(*edit(f_i, labels), bundle)

    def test_category_loss_mirrors_style_loss(self, labeled_world):
        """One step scores both kinds and fills every gradient of both adapters; the step's value is the
        sum of the two."""
        _, bundle, batch = labeled_world
        run = losses._LabeledRun(*batch, bundle)
        bundle.adapters.zero_grad()
        loss = style_labeled_loss(run, TrainConfig())
        assert run.values["category"] > 0 and run.values["style"] > 0
        assert loss == run.values["style"] + run.values["category"]
        assert all(np.abs(t.grad).max() > 0 for kind in ("style", "category") for t in bundle.adapter(kind).tensors())


def tape(loss):
    """The non-leaf nodes of the tape that ends at ``loss``."""
    seen, stack = {}, [loss]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node._parents)
    return [node for node in seen.values() if node._grad_fn is not None]


KINDS = ("style", "category")


def triplet_inputs(labeled_world, positive=None):
    """The run of one stacked triplet step, its (2, N, D) frozen text rows, their stacked adapted rows
    and the positive that both kinds share.

    Each kind's text rows cycle through its prompt features. The positive
    rows are ``positive`` if given; otherwise the image rows, but row 0 is
    the style anchor's row 0 and row 1 the category anchor's row 1, so each
    kind meets one zero distance.
    """
    _, bundle, (f_i, _) = labeled_world
    text = np.stack([bundle.prompt_features[kind][np.arange(len(f_i)) % len(bundle.prompt_features[kind])]
                     for kind in KINDS])
    adapted = adapt_array(text, bundle.adapters)[0]
    if positive is None:
        positive = f_i.copy()
        positive[:2] = adapted[[0, 1], [0, 1]]
    return losses._TripletRun(positive, text, bundle), text, adapted, positive


def layered_hinges(bundle, text, positive, cfg):
    """Per kind, the layered reference of the stacked triplet step at the adapters' current parameters:
    ``triplet_hinge(adapt(...))`` of its text rows, the shared positive, and the other adapter's rows of
    the other kind's text as a constant negative."""
    margins = (cfg.margin1, cfg.margin2)
    return {kind: triplet_hinge(adapt(Tensor(text[k]), bundle.adapter(kind)), Tensor(positive),
                                Tensor(adapt_array(text[1 - k], bundle.adapter(KINDS[1 - k]))[0]), margins[k])
            for k, kind in enumerate(KINDS)}


def one_kind_active(labeled_world, kind):
    """A run on which only ``kind``'s hinge has active rows, and its config: the positive is the other
    kind's anchors moved by a hundredth of the image rows, with margin 0.3 for ``kind`` and 0 for the
    other, so every ``kind`` row is active and no row of the other kind is."""
    _, _, (f_i, _) = labeled_world
    _, _, adapted, _ = triplet_inputs(labeled_world)
    k = KINDS.index(kind)
    run = triplet_inputs(labeled_world, positive=adapted[1 - k] + 0.01 * f_i)[0]
    cfg = TrainConfig(**{f"margin{k + 1}": 0.3, f"margin{2 - k}": 0.0})
    assert losses._triplet_forward(run, cfg)[1].tolist() == [kind == "style", kind == "category"]
    return run, cfg


def adapters(style, category):
    """A stand-in for an ``EncoderBundle`` with only the two adapters and their stacked group, which is all
    a ``_TripletRun`` reads."""
    return SimpleNamespace(adapter={"style": style, "category": category}.__getitem__,
                           adapters=AdapterParams.stack(style, category))


def value_and_grads(loss, p):
    """Bytes of a layered reference's value and of each adapter gradient after ``zero_grad`` and ``backward``."""
    p.zero_grad()
    backward(loss)
    return [loss.data.tobytes()] + [t.grad.tobytes() for t in p.tensors()]


def triplet_value_and_grads(run, cfg, kind):
    """Bytes of the ``kind`` value of one stacked triplet step on ``run``, and of each gradient it leaves in
    that kind's adapter."""
    style_triplet_loss(run, cfg)
    return [np.float64(run.values[kind]).tobytes()] + [t.grad.tobytes() for t in run.encoders.adapter(kind).tensors()]


def labeled_value_and_grads(run, cfg, kind):
    """Bytes of the ``kind`` value of one labeled step on ``run``, and of each gradient it leaves in that
    kind's adapter."""
    style_labeled_loss(run, cfg)
    return [np.float64(run.values[kind]).tobytes()] + [t.grad.tobytes() for t in run.encoders.adapter(kind).tensors()]


def layered_labeled_grads(f_i, labels, bundle, cfg):
    """Bytes of both adapters' gradients, as one kind-major buffer, after ``zero_grad`` and ``backward``
    through each kind's layered objective."""
    return b"".join(b"".join(value_and_grads(layered_labeled(f_i, labels, bundle, cfg, kind), bundle.adapter(kind))[1:])
                    for kind in ("style", "category"))


class TestFusedObjectives:
    """Each objective matches the composition of the single-layer ops byte for byte."""

    @pytest.mark.parametrize("mode", ADVERSARIAL_MODES)
    @pytest.mark.parametrize("lam", [0.0, 0.2])
    @pytest.mark.parametrize("kind", ["style", "category"])
    def test_labeled_matches_layered_bitwise(self, labeled_world, kind, lam, mode):
        """The stacked step's value and gradients of each kind are the bits of that kind's layered
        objective, on any BLAS kernel: ``layered_labeled`` runs the GEMMs of the step's slice."""
        _, bundle, (f_i, labels) = labeled_world
        cfg = TrainConfig(lambda1=lam, lambda2=lam, adversarial_mode=mode)
        expected = value_and_grads(layered_labeled(f_i, labels, bundle, cfg, kind), bundle.adapter(kind))
        assert labeled_value_and_grads(losses._LabeledRun(f_i, labels, bundle), cfg, kind) == expected
        assert any(np.frombuffer(g).any() for g in expected[1:])

    @pytest.mark.parametrize("mode", ADVERSARIAL_MODES)
    @pytest.mark.parametrize("lam", [0.0, 0.2])
    @pytest.mark.parametrize("kind", ["style", "category"])
    def test_run_workspace_matches_one_off_bitwise(self, labeled_world, kind, lam, mode):
        """Rows selected from a run score as the same rows in a run of their own."""
        _, bundle, (f_i, labels) = labeled_world
        cfg = TrainConfig(lambda1=lam, lambda2=lam, adversarial_mode=mode)
        idx = np.random.default_rng(11).permutation(len(f_i))[:8]
        own = losses._LabeledRun(f_i[idx], {k: v[idx] for k, v in labels.items()}, bundle)
        expected = labeled_value_and_grads(own, cfg, kind)
        run = losses._LabeledRun(f_i, labels, bundle)
        run.select(idx)
        assert labeled_value_and_grads(run, cfg, kind) == expected

    @pytest.mark.parametrize("kind", ["style", "category"])
    def test_triplet_matches_layered_bitwise(self, labeled_world, kind):
        """The stacked step's ``kind`` value and gradients are the bits of that kind's layered hinge."""
        _, bundle, _ = labeled_world
        run, text, _, positive = triplet_inputs(labeled_world)
        expected = value_and_grads(layered_hinges(bundle, text, positive, TrainConfig())[kind], bundle.adapter(kind))
        assert triplet_value_and_grads(run, TrainConfig(), kind) == expected
        assert np.frombuffer(expected[1]).any()

    @pytest.mark.parametrize("kind", ["style", "category"])
    def test_triplet_run_workspace_matches_one_off_bitwise(self, labeled_world, kind):
        """Rows selected from a triplet run score as the same rows in a run of their own."""
        run = triplet_inputs(labeled_world)[0]
        idx = np.random.default_rng(12).permutation(len(run.f_all))[:8]
        own = losses._TripletRun(run.f_all[idx], run.text[:, idx], run.encoders)
        expected = triplet_value_and_grads(own, TrainConfig(), kind)
        run.select(idx)
        assert run.batch.flags.c_contiguous
        assert triplet_value_and_grads(run, TrainConfig(), kind) == expected


@pytest.fixture
def recorded(monkeypatch):
    """Every tape node recorded while the test runs, in order."""
    nodes, real = [], T._node

    def record(*args):
        nodes.append(real(*args))
        return nodes[-1]

    monkeypatch.setattr(T, "_node", record)
    return nodes


class TestTapes:
    """A labeled step records no tape node; a triplet step with an active row records one, over the four
    (2, …) tensors of the stacked adapters, whichever kind that row is of."""

    def test_labeled_step_records_no_node(self, labeled_world, recorded):
        _, bundle, (f_i, labels) = labeled_world
        style_labeled_loss(losses._LabeledRun(f_i, labels, bundle), TrainConfig())
        assert recorded == []

    @staticmethod
    def _one_node(labeled_world, recorded, kind):
        _, bundle, _ = labeled_world
        style_triplet_loss(*one_kind_active(labeled_world, kind))
        assert len(recorded) == 1 and tape(recorded[0]) == recorded
        assert list(map(id, recorded[0]._parents)) == list(map(id, bundle.adapters.tensors()))

    def test_unlabeled_style_step_records_one_node(self, labeled_world, recorded):
        self._one_node(labeled_world, recorded, "style")

    def test_unlabeled_category_step_records_one_node(self, labeled_world, recorded):
        self._one_node(labeled_world, recorded, "category")


# A positive on its anchor is at distance zero; at margin 0 no negative then makes a triplet active.
NO_MARGIN = TrainConfig(margin1=0.0, margin2=0.0)


def inactive_triplet_inputs(labeled_world, kind):
    """``triplet_inputs`` with the positive on the ``kind`` anchors: at ``NO_MARGIN``, no active triplet of
    either kind, as the other kind's positive is then its negative."""
    _, _, adapted, _ = triplet_inputs(labeled_world)
    return triplet_inputs(labeled_world, positive=adapted[KINDS.index(kind)])


class TestInactiveTriplets:
    """A triplet step with no active triplet returns 0.0 and leaves a zero gradient, recording no node."""

    @pytest.mark.parametrize("kind", ["style", "category"])
    def test_no_active_triplet_gives_a_parentless_zero(self, labeled_world, kind, recorded):
        """The step returns the float 0.0, not a tensor, and leaves +0.0 in every gradient."""
        _, bundle, _ = labeled_world
        run = inactive_triplet_inputs(labeled_world, kind)[0]
        bundle.adapters.flat_grad[:] = 1.0
        loss = style_triplet_loss(run, NO_MARGIN)
        assert type(loss) is float and np.float64(loss).tobytes() == np.float64(0.0).tobytes()
        assert recorded == []
        assert bundle.adapters.flat_grad.tobytes() == np.zeros_like(bundle.adapters.flat_grad).tobytes()

    @pytest.mark.parametrize("kind", ["style", "category"])
    def test_no_active_triplet_matches_layered_bitwise(self, labeled_world, kind):
        """The layered hinges back-propagate signed zeros that sum into the zeroed gradient as +0.0."""
        _, bundle, _ = labeled_world
        run, text, _, positive = inactive_triplet_inputs(labeled_world, kind)
        layered = layered_hinges(bundle, text, positive, NO_MARGIN)
        assert all(tape(loss) for loss in layered.values())
        expected = {k: value_and_grads(loss, bundle.adapter(k)) for k, loss in layered.items()}
        for k in KINDS:
            assert triplet_value_and_grads(run, NO_MARGIN, k) == expected[k]

    def test_an_active_row_whose_mean_underflows_keeps_its_node(self, labeled_world, recorded):
        """Activity is decided on the rows: one hinge of the least subnormal over four rows means 0.0."""
        _, _, adapted, _ = triplet_inputs(labeled_world)
        positive = adapted[0].copy()
        positive[0] = adapted[1, 0]  # on the style negative: the first style hinge argument is the margin itself
        run = triplet_inputs(labeled_world, positive=positive)[0]
        run.select(np.arange(4))
        loss = style_triplet_loss(run, TrainConfig(margin1=float(np.nextafter(0.0, 1.0)), margin2=0.0))
        assert loss == 0.0 and run.values == {"style": 0.0, "category": 0.0}
        assert len(recorded) == 1 and tape(recorded[0]) == recorded


FILLS = pytest.mark.parametrize("fill", [np.nan, 1.0], ids=["nan", "one"])


class TestStepsLeaveTheirGradients:
    """An encoder step writes its gradients into the stepped group's ``flat_grad``, overwriting what it
    held, as the bytes that ``zero_grad`` and ``backward`` through the layered reference leave there."""

    @FILLS
    def test_labeled_step_overwrites(self, labeled_world, fill):
        _, bundle, (f_i, labels) = labeled_world
        cfg = TrainConfig()
        expected = layered_labeled_grads(f_i, labels, bundle, cfg)
        bundle.adapters.flat_grad[:] = fill
        style_labeled_loss(losses._LabeledRun(f_i, labels, bundle), cfg)
        assert bundle.adapters.flat_grad.tobytes() == expected

    @FILLS
    @pytest.mark.parametrize("kind", ["style", "category"])
    def test_active_triplet_step_overwrites(self, labeled_world, kind, fill):
        _, bundle, _ = labeled_world
        run, text, _, positive = triplet_inputs(labeled_world)
        expected = value_and_grads(layered_hinges(bundle, text, positive, TrainConfig())[kind], bundle.adapter(kind))
        bundle.adapters.flat_grad[:] = fill
        assert triplet_value_and_grads(run, TrainConfig(), kind) == expected

    @FILLS
    @pytest.mark.parametrize("kind", ["style", "category"])
    def test_inactive_triplet_step_overwrites_with_zeros(self, labeled_world, kind, fill):
        _, bundle, _ = labeled_world
        run, text, _, positive = inactive_triplet_inputs(labeled_world, kind)
        expected = value_and_grads(layered_hinges(bundle, text, positive, NO_MARGIN)[kind], bundle.adapter(kind))
        bundle.adapters.flat_grad[:] = fill
        assert triplet_value_and_grads(run, NO_MARGIN, kind) == expected
        assert bundle.adapters.flat_grad.tobytes() == np.zeros_like(bundle.adapters.flat_grad).tobytes()

    @pytest.mark.parametrize("batch", ["both-active", "style-only", "category-only", "inactive"])
    def test_triplet_step_matches_both_layered_hinges(self, labeled_world, batch):
        """Both values of a stacked step and both halves of ``flat_grad``, filled with NaN before it, are
        the bits of the two layered hinges over the parameters before the step; a kind with no active
        row leaves +0.0 in its whole half."""
        _, bundle, _ = labeled_world
        if batch == "both-active":
            (run, text, _, positive), cfg = triplet_inputs(labeled_world), TrainConfig()
        elif batch == "inactive":
            (run, text, _, positive), cfg = inactive_triplet_inputs(labeled_world, "style"), NO_MARGIN
        else:
            run, cfg = one_kind_active(labeled_world, batch.partition("-")[0])
            text, positive = run.text, run.positive
        active = losses._triplet_forward(run, cfg)[1].tolist()
        assert active == {"both-active": [True, True], "style-only": [True, False],
                          "category-only": [False, True], "inactive": [False, False]}[batch]
        expected = {k: value_and_grads(loss, bundle.adapter(k)) for k, loss in layered_hinges(bundle, text, positive,
                                                                                            cfg).items()}
        bundle.adapters.flat_grad[:] = np.nan
        loss = style_triplet_loss(run, cfg)
        assert [np.float64(run.values[k]).tobytes() for k in KINDS] == [expected[k][0] for k in KINDS]
        assert np.float64(loss).tobytes() == np.float64(run.values["style"] + run.values["category"]).tobytes()
        assert bundle.adapters.flat_grad.tobytes() == b"".join(b"".join(expected[k][1:]) for k in KINDS)
        for k, on in zip(KINDS, active):
            assert bundle.adapter(k).flat_grad.any() == on

    def test_labeled_step_leaves_no_negative_zero(self, labeled_world, monkeypatch):
        """With every gradient the adapter pass returns written as -0.0, the step leaves +0.0, as
        ``backward``'s add into a zeroed buffer does."""
        _, bundle, (f_i, labels) = labeled_world
        real = losses.adapt_array

        def negative_zeros(x, p):
            y, grad = real(x, p)
            return y, lambda *args, **kwargs: [None if g is None else np.full_like(g, -0.0) for g in grad(*args, **kwargs)]

        monkeypatch.setattr(losses, "adapt_array", negative_zeros)
        bundle.adapters.flat_grad[:] = np.nan
        style_labeled_loss(losses._LabeledRun(f_i, labels, bundle), TrainConfig())
        assert bundle.adapters.flat_grad.tobytes() == np.zeros_like(bundle.adapters.flat_grad).tobytes()

    def test_step_loss_refuses_a_backward(self, labeled_world):
        """The labeled step's loss is a float, not a tensor, so a leftover ``backward`` fails loudly and
        leaves the step's gradients as they are."""
        _, bundle, (f_i, labels) = labeled_world
        loss = style_labeled_loss(losses._LabeledRun(f_i, labels, bundle), TrainConfig())
        written = bundle.adapters.flat_grad.tobytes()
        with pytest.raises(AttributeError):
            backward(loss)
        assert bundle.adapters.flat_grad.any() and bundle.adapters.flat_grad.tobytes() == written


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
        """Swapping the two kinds' text rows, over adapters that both adapt a row to itself, swaps the values."""
        a, p, n = vectors_at_distances(0.5, 0.1)
        # zero output layers: the adapted rows are the input rows
        encoders = adapters(AdapterParams.init(4), AdapterParams.init(4, seed=1))
        text, positive, negative = (np.append(v, 0.0)[None, :] for v in (a, p, n))
        cfg = TrainConfig()
        forward = losses._TripletRun(positive, np.stack([text, negative]), encoders)
        swapped = losses._TripletRun(positive, np.stack([negative, text]), encoders)
        style_triplet_loss(forward, cfg)
        style_triplet_loss(swapped, cfg)
        assert forward.values == {"style": swapped.values["category"], "category": swapped.values["style"]}
        assert abs(forward.values["style"] - 0.7) < 1e-12

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
        # a zero output layer adapts the unit rows f_c to themselves, up to rounding
        run = losses._TripletRun(f_i, np.stack([text, f_c]), adapters(adapter, AdapterParams.init(8)))

        def loss_fn(_):  # the style hinge alone: the category hinge's negative is the style anchor
            style_triplet_loss(run, TrainConfig())
            return run.values["style"]

        loss_fn(None)
        assert adapter.flat_grad.any()
        grads = [t.grad.copy() for t in adapter.tensors()]  # each central difference runs the step, which rewrites them
        for t, g in zip(adapter.tensors(), grads):
            fd = finite_diff_grad(loss_fn, t)
            assert relative_error(g, fd) < 1e-4


class TestTripletRun:
    @pytest.mark.parametrize("edit, message", [
        (lambda f, t: (f[:, :16], t), "image features"),
        (lambda f, t: (f[0], t), "image features"),
        (lambda f, t: (f, t[:, :-1]), r"text \(2, 11, 32\)"),
        (lambda f, t: (f, t[:, :, :16]), r"text \(2, 12, 16\)"),
        (lambda f, t: (f[:-1], t), r"text \(2, 12, 32\) must be 11 rows"),
    ], ids=["feature-width", "one-row", "short-text", "text-width", "fewer-images"])
    def test_misshaped_or_mismatched_rows_are_refused(self, labeled_world, edit, message):
        """The run checks the (2, N, D) text rows and the image rows once, when it is built."""
        run = triplet_inputs(labeled_world)[0]
        with pytest.raises(T.ShapeError, match=message):
            losses._TripletRun(*edit(run.f_all, run.text), run.encoders)


def test_loss_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(lambda1=-0.1)
    with pytest.raises(ConfigError):
        TrainConfig(margin1=-1.0)
    with pytest.raises(ConfigError):
        TrainConfig(adversarial_mode="nope")
    with pytest.raises(ConfigError):
        TrainConfig(logit_scale=0.0)
