"""Tensor engine: the generic ops, the tape walk and the coarse nodes' arithmetic,
checked against values and central differences; and who in the package uses the tape."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

from stylecat import tensor as T
from stylecat.encoders import AdapterParams
from stylecat.losses import ADVERSARIAL_MODES, ConfigError, category_triplet_loss, class_logits, style_triplet_loss
from stylecat.tensor import (
    ShapeError,
    Tensor,
    backward,
    finite_diff_grad,
    no_grad,
    relative_error,
)
from stylecat.train import LABELED_AUDITS, TRIPLET_AUDIT, _AuditWorld, gradcheck_suite

from layered_ops import adapt, add, ce_loss, confusion_loss, triplet_hinge


def grad_of(loss_fn, x):
    x.zero_grad()
    backward(loss_fn(x))
    return x.grad.copy()


def weighted_sum(x, w=1.0):
    """Scalar sum(w * x) with ``w`` constant: a test-local one-node op."""
    w = np.broadcast_to(np.asarray(w, dtype=float), x.shape)
    return T._node(np.asarray((x.data * w).sum()), (x,), lambda g: (float(g) * w,))


def sum_of_squares(x):
    """Scalar sum(x * x): a test-local one-node op."""
    return T._node(np.asarray((x.data * x.data).sum()), (x,), lambda g: (2.0 * float(g) * x.data,))


class TestMatmul:
    """The matrix product of the cosine logits, inside ``class_logits``' one node."""

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal((5, 4)), requires_grad=True)
        w = rng.standard_normal((3, 5))
        loss_fn = lambda _: weighted_sum(class_logits(a, b, 2.0), w)
        for x in (a, b):
            fd = finite_diff_grad(loss_fn, x)
            assert relative_error(grad_of(loss_fn, x), fd) < 1e-6

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
            class_logits(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 2))))


class TestLogSoftmax:
    """The row-wise log-softmax inside ``ce_loss`` and ``confusion_loss``."""

    def test_uniform_pair(self):
        assert abs(ce_loss(Tensor([[0.0, 0.0]]), [1]).item() - np.log(2)) <= 1e-15
        assert abs(confusion_loss(Tensor([[0.0, 0.0]]), [1], "uniform-kl").item() - np.log(2)) <= 1e-15

    def test_exp_normalizes(self):
        # n * grad is softmax - onehot for ce and softmax - 1/k for uniform-kl
        rng = np.random.default_rng(5)
        x = Tensor(rng.standard_normal((3, 9)) * 40, requires_grad=True)
        labels = rng.integers(0, 9, 3)
        onehot = np.eye(9)[labels]
        ce_p = 3 * grad_of(lambda t: ce_loss(t, labels), x) + onehot
        kl_p = 3 * grad_of(lambda t: confusion_loss(t, labels, "uniform-kl"), x) + 1 / 9
        for p in (ce_p, kl_p):
            assert p.min() > -1e-12
            assert np.abs(p.sum(axis=1) - 1.0).max() < 1e-12

    def test_gradient_random_vector(self):
        rng = np.random.default_rng(9)
        x = Tensor(rng.standard_normal((1, 8)), requires_grad=True)
        for loss_fn in (lambda t: ce_loss(t, [3]), lambda t: confusion_loss(t, [3], "uniform-kl")):
            fd = finite_diff_grad(loss_fn, x)
            assert relative_error(grad_of(loss_fn, x), fd) < 1e-6


class TestL2Distance:
    """The two row distances inside the triplet hinge, on one-row inputs."""

    def test_coincident_points(self):
        a = Tensor([[1.0, -2.0, 0.5]])
        negative = Tensor(a.data + [[3.0, 4.0, 0.0]])
        # hinge (0 - 5) + 7 = 2 holds exactly only if the coincident distance is exactly 0
        assert triplet_hinge(a, Tensor(a.data.copy()), negative, 7.0).item() == 2.0

    def test_three_four_five(self):
        a = Tensor([[3.0, 0.0]])
        assert triplet_hinge(a, Tensor([[0.0, 4.0]]), Tensor(a.data.copy()), 0.0).item() == 5.0

    def test_gradient_at_distinct_points(self):
        rng = np.random.default_rng(13)
        a = Tensor(rng.standard_normal((2, 6)), requires_grad=True)
        b = Tensor(rng.standard_normal((2, 6)), requires_grad=True)
        negative = Tensor(rng.standard_normal((2, 6)))
        loss_fn = lambda _: triplet_hinge(a, b, negative, 10.0)  # margin 10 keeps both hinges active
        for x in (a, b):
            fd = finite_diff_grad(loss_fn, x)
            assert relative_error(grad_of(loss_fn, x), fd) < 1e-5

    def test_zero_subgradient_at_coincidence(self):
        a = Tensor([[1.0, 2.0]], requires_grad=True)
        b = Tensor([[1.0, 2.0]], requires_grad=True)
        backward(triplet_hinge(a, b, Tensor([[4.0, 6.0]]), 10.0))
        assert np.array_equal(b.grad, np.zeros((1, 2)))
        assert np.array_equal(a.grad, [[0.6, 0.8]])  # the negative distance's gradient alone

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            triplet_hinge(Tensor([[1.0]]), Tensor([[1.0, 2.0]]), Tensor([[1.0]]), 0.3)


class TestElementwise:
    def test_add_shape_error(self):
        for b in (np.zeros((3, 2)), np.zeros(3), np.zeros(())):  # no broadcasting
            with pytest.raises(ShapeError):
                add(Tensor(np.zeros((2, 3))), Tensor(b))


class TestBackward:
    def test_sum_gives_ones(self):
        x = Tensor(np.arange(5, dtype=float), requires_grad=True)
        backward(weighted_sum(x))
        assert np.array_equal(x.grad, np.ones(5))

    def test_square_at_three(self):
        x = Tensor([3.0], requires_grad=True)
        backward(sum_of_squares(x))
        assert np.allclose(x.grad, [6.0])

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ShapeError):
            backward(T.scale(x, 2.0))

    def test_accumulation_and_determinism(self):
        rng = np.random.default_rng(23)
        x = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 3)))

        def loss():
            return ce_loss(class_logits(x, w, 3.0), [0, 2, 3])

        x.zero_grad()
        backward(loss())
        first = x.grad.copy()
        x.zero_grad()
        backward(loss())
        assert np.array_equal(first, x.grad)  # bit-for-bit
        backward(loss())  # no zeroing: accumulates
        assert np.array_equal(x.grad, 2 * first)

    def test_shared_node_grads_accumulate(self):
        x = Tensor([2.0], requires_grad=True)
        y = add(x, x)
        backward(weighted_sum(y))
        assert np.array_equal(x.grad, [2.0])

    def test_leaves_own_their_first_gradient(self):
        # add hands both parents the same array; each leaf must get its own copy
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = Tensor([3.0, 4.0], requires_grad=True)
        backward(weighted_sum(add(x, y)))
        x.grad[0] = 5.0
        assert np.array_equal(y.grad, [1.0, 1.0])


class TestParamGroup:
    def group(self):
        rng = np.random.default_rng(3)
        arrays = [rng.standard_normal(shape) for shape in [(3, 2), (2,), (2, 3), (3,)]]
        return arrays, AdapterParams(*(Tensor(x.copy(), requires_grad=True) for x in arrays))

    def test_fields_are_views_of_the_flat_buffers_in_field_order(self):
        arrays, p = self.group()
        assert np.array_equal(p.flat, np.concatenate([x.ravel() for x in arrays]))
        assert p.flat_grad.shape == p.flat.shape and not p.flat_grad.any()
        offset = 0
        for t, x in zip(p.tensors(), arrays):
            assert t.data.shape == t.grad.shape == x.shape
            assert np.shares_memory(t.data, p.flat[offset:offset + x.size])
            assert np.shares_memory(t.grad, p.flat_grad[offset:offset + x.size])
            offset += x.size
        p.b1.data[1] = 7.0
        p.b2.grad[2] = 5.0
        assert p.flat[6 + 1] == 7.0 and p.flat_grad[6 + 2 + 6 + 2] == 5.0

    def test_backward_and_zero_grad_keep_the_views(self):
        rng = np.random.default_rng(4)
        _, p = self.group()
        f, w = Tensor(rng.standard_normal((5, 3))), rng.standard_normal((5, 3))
        grads = []
        for _ in range(2):
            p.zero_grad()
            backward(weighted_sum(adapt(f, p), w))
            grads.append(p.flat_grad.copy())
        assert np.abs(grads[0]).max() > 0 and np.array_equal(grads[0], grads[1])
        backward(weighted_sum(adapt(f, p), w))  # no zero_grad: accumulates
        assert np.array_equal(p.flat_grad, grads[0] + grads[0])
        for t in p.tensors():
            t.zero_grad()
        assert not p.flat_grad.any()
        assert all(np.shares_memory(t.grad, p.flat_grad) for t in p.tensors())

    @pytest.mark.parametrize("edit, message", [
        ("misshaped", "AdapterParams: array b2 has shape (1, 3), expected (3,)"),
        ("missing", "AdapterParams: missing arrays ['w2'], unknown arrays []"),
        ("unknown", "AdapterParams: missing arrays [], unknown arrays ['w3']"),
    ], ids=["misshaped", "missing", "unknown"])
    def test_load_writes_every_array_or_none(self, edit, message):
        """``load`` writes through the views; a bad array set leaves ``flat`` byte for byte as it was,
        though the misshaped array is the last field and the unknown one comes with all the others."""
        _, p = self.group()
        new = {name: x + 1.0 for name, x in p.arrays().items()}
        p.load(new)
        assert np.array_equal(p.flat, np.concatenate([x.ravel() for x in new.values()]))
        assert all(np.shares_memory(t.data, p.flat) for t in p.tensors())
        before = p.flat.tobytes()
        bad = {name: x + 1.0 for name, x in new.items()}
        if edit == "misshaped":
            bad["b2"] = np.zeros((1, 3))
        elif edit == "missing":
            del bad["w2"]
        else:
            bad["w3"] = np.zeros(2)
        with pytest.raises(ValueError, match=re.escape(message)):
            p.load(bad)
        assert p.flat.tobytes() == before

    def test_engine_imports_nothing_of_the_package(self):
        """The tape and its parameter groups know no file format: ``tensor`` imports no module of the package."""
        tree = ast.parse(Path(T.__file__).read_text(encoding="utf-8"))
        assert not [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level]

    def test_free_tensor_copies_its_first_gradient(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = Tensor([3.0, 4.0], requires_grad=True)
        backward(weighted_sum(add(x, y)))  # both parents receive one shared gradient array
        assert not np.shares_memory(x.grad, y.grad)
        x.grad += 1.0
        assert np.array_equal(y.grad, [1.0, 1.0])


class TestFiniteDiff:
    def test_sum_yields_ones(self):
        x = Tensor(np.arange(4, dtype=float))
        g = finite_diff_grad(weighted_sum, x)
        assert type(g) is np.ndarray and g.shape == x.shape
        assert np.allclose(g, 1.0, atol=1e-9)

    def test_square_at_three(self):
        x = Tensor([3.0])
        g = finite_diff_grad(sum_of_squares, x)
        assert abs(g[0] - 6.0) < 1e-6

    def test_agrees_with_backward_on_adapter_pass(self):
        rng = np.random.default_rng(29)
        w1 = np.random.default_rng(1).uniform(-1 / np.sqrt(6), 1 / np.sqrt(6), size=(6, 3))
        w2, b2 = 0.5 * rng.standard_normal((3, 6)), 0.1 * rng.standard_normal(6)
        p = AdapterParams(*(Tensor(x, requires_grad=True) for x in (w1, np.zeros(3), w2, b2)))
        f = Tensor(rng.standard_normal((1, 6)))
        w = rng.standard_normal((1, 6))
        loss_fn = lambda _: weighted_sum(adapt(f, p), w)
        for t in p.tensors():
            t.zero_grad()
        backward(loss_fn(None))
        for t in p.tensors():
            fd = finite_diff_grad(loss_fn, t)
            assert relative_error(t.grad, fd) < 1e-5


class TestOpFamilyGradients:
    """Gradients at the inputs of every coarse node agree with the oracle across 20 seeds.

    ``gradcheck_suite`` checks the parameter gradients; here one (4, 5)
    input feeds the adapter, both sides of the cosine logits and the positive
    of the triplet hinge, so its gradient sums them all.
    """

    @pytest.mark.parametrize("seed", range(20))
    def test_composite_pipeline(self, seed):
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 4, size=4)
        negative = Tensor(rng.standard_normal((4, 5)))
        while True:  # redraw until no ReLU pre-activation or hinge argument is near its kink
            x = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
            p = AdapterParams(w1=Tensor(rng.standard_normal((5, 3))), b1=Tensor(rng.standard_normal(3)),
                              w2=Tensor(rng.standard_normal((3, 5))), b2=Tensor(rng.standard_normal(5)))
            with T.no_grad():
                h = adapt(x, p).data
            hinge = (np.linalg.norm(h - x.data, axis=1) - np.linalg.norm(h - negative.data, axis=1) + 0.3)
            if np.abs(x.data @ p.w1.data + p.b1.data).min() > 1e-3 and np.abs(hinge).min() > 1e-3:
                break

        def loss_fn(_):
            h = adapt(x, p)
            logits = class_logits(x, h, 3.0)
            conf = T.scale(confusion_loss(logits, labels, "uniform-kl"), 0.5)
            trip = T.scale(triplet_hinge(h, x, negative, 0.3), 0.1)
            return add(add(ce_loss(logits, labels), conf), trip)

        fd = finite_diff_grad(loss_fn, x)
        assert relative_error(grad_of(loss_fn, x), fd) < 1e-6


def test_gradcheck_suite_passes_every_component():
    results = gradcheck_suite(n_seeds=20)
    assert [name for name, _, _ in results] == [
        "style-labeled", "style-labeled-negated-ce", "style-labeled-lambda0", "category-labeled",
        "category-labeled-negated-ce", "category-labeled-lambda0", "style-triplet", "category-triplet",
        "denoiser-train-step"]
    assert [name for name, _, ok in results if not ok] == []


def test_labeled_audits_cover_every_adversarial_mode_and_lambda_zero():
    """A new adversarial mode, or the lambda = 0 branch, cannot go unaudited."""
    configs = LABELED_AUDITS.values()
    assert {cfg.adversarial_mode for cfg in configs if cfg.lambda1 > 0 and cfg.lambda2 > 0} == set(ADVERSARIAL_MODES)
    assert any(cfg.lambda1 == cfg.lambda2 == 0 for cfg in configs)


def test_every_audit_world_has_an_active_triplet_row():
    """Without one, a triplet audit compares a zero gradient with a zero difference and checks nothing."""
    for seed in range(20):
        world = _AuditWorld(seed)
        for kind, loss in (("style", style_triplet_loss), ("category", category_triplet_loss)):
            loss(world.triplet_runs[kind], TRIPLET_AUDIT)
            assert world.adapter(kind).flat_grad.any(), (seed, kind)  # a gradient: a row is active


def test_gradcheck_suite_fails_on_nan_gradients(monkeypatch):
    import stylecat.train as train_mod

    real = train_mod._ad_grads
    monkeypatch.setattr(train_mod, "_ad_grads", lambda loss_fn, params: [g * np.nan for g in real(loss_fn, params)])
    results = gradcheck_suite(n_seeds=2)
    assert all(worst == np.inf and not ok for _, worst, ok in results)


@pytest.mark.parametrize("kwargs", [dict(n_seeds=0), dict(n_seeds=-3), dict(tol=0.0), dict(tol=-1e-4),
                                    dict(tol=float("nan")), dict(tol=float("inf"))])
def test_gradcheck_suite_refuses_vacuous_audits(kwargs):
    with pytest.raises(ConfigError):
        gradcheck_suite(**kwargs)


def test_no_grad_suppresses_tape():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with no_grad():
        y = T.scale(x, 3.0)
    assert y._grad_fn is None and not y.requires_grad


def test_values_stay_finite_on_extreme_finite_input():
    x = Tensor([[1e8, -1e8, 0.0]], requires_grad=True)
    for loss_fn in (lambda t: ce_loss(t, [1]), lambda t: confusion_loss(t, [1], "uniform-kl")):
        assert np.isfinite(loss_fn(x).item())
        assert np.isfinite(grad_of(loss_fn, x)).all()


def callers_in_package(name):
    """``module.function`` (or ``module.Class.method``) of each function in ``src/stylecat`` whose body,
    nested closures included, calls ``name`` as a bare name or an attribute; ``module`` alone for a
    call outside any function."""
    found = set()
    for path in sorted(Path(T.__file__).parent.glob("*.py")):
        scopes = []
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scopes.append((f"{path.stem}.{top.name}", top))
            elif isinstance(top, ast.ClassDef):
                for member in top.body:
                    is_def = isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
                    scopes.append((f"{path.stem}.{top.name}" + (f".{member.name}" if is_def else ""), member))
            else:
                scopes.append((path.stem, top))
        for scope, tree in scopes:
            for node in ast.walk(tree):
                if isinstance(node, ast.Call) and name in (getattr(node.func, "id", None),
                                                           getattr(node.func, "attr", None)):
                    found.add(scope)
    return found


def test_the_tape_serves_only_the_training_steps_and_the_pinned_ops():
    """In the package only the triplet objective, ``class_logits`` and ``scale`` record tape nodes, and
    only the triplet objective walks the tape."""
    assert callers_in_package("_node") == {"losses._triplet_loss", "losses.class_logits", "tensor.scale"}
    assert callers_in_package("backward") == {"losses._triplet_loss"}
