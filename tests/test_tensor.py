"""Tensor engine: op semantics plus reverse-mode vs central-difference checks."""

import numpy as np
import pytest

from stylecat import tensor as T
from stylecat.tensor import (
    ShapeError,
    Tensor,
    backward,
    finite_diff_grad,
    no_grad,
    relative_error,
)


def grad_of(loss_fn, x):
    x.zero_grad()
    backward(loss_fn(x))
    return x.grad.copy()


class TestMatmul:
    def test_identity(self):
        a = Tensor(np.eye(2))
        b = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(T.matmul(a, b).data, b.data)

    def test_direct_arithmetic(self):
        out = T.matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[1.0], [1.0]]))
        assert np.array_equal(out.data, [[3.0], [7.0]])

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        a = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal((3, 3)))
        loss_fn = lambda x: T.tensor_sum(T.matmul(x, b))
        fd = finite_diff_grad(loss_fn, a).data
        assert relative_error(grad_of(loss_fn, a), fd) < 1e-6

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
            T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))


class TestLogSoftmax:
    def test_uniform_pair(self):
        out = T.log_softmax(Tensor([0.0, 0.0]))
        assert np.allclose(out.data, -np.log(2), atol=1e-15)

    def test_exp_normalizes(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((3, 9)) * 40
        y = T.log_softmax(Tensor(x), axis=1).data
        assert np.abs(np.exp(y).sum(axis=1) - 1.0).max() < 1e-12

    def test_gradient_random_vector(self):
        rng = np.random.default_rng(9)
        w = rng.standard_normal(8)
        x = Tensor(rng.standard_normal(8), requires_grad=True)
        loss_fn = lambda t: T.tensor_sum(T.mul(T.log_softmax(t), Tensor(w)))
        fd = finite_diff_grad(loss_fn, x).data
        assert relative_error(grad_of(loss_fn, x), fd) < 1e-6


class TestL2Distance:
    """``row_l2_distance`` on one-row inputs."""

    def test_coincident_points(self):
        a = Tensor([[1.0, -2.0, 0.5]])
        assert T.row_l2_distance(a, Tensor(a.data.copy())).item() == 0.0

    def test_three_four_five(self):
        assert T.row_l2_distance(Tensor([[3.0, 0.0]]), Tensor([[0.0, 4.0]])).item() == 5.0

    def test_gradient_at_distinct_points(self):
        rng = np.random.default_rng(13)
        a = Tensor(rng.standard_normal((1, 6)), requires_grad=True)
        b = Tensor(rng.standard_normal((1, 6)))
        loss_fn = lambda t: T.tensor_sum(T.row_l2_distance(t, b))
        fd = finite_diff_grad(loss_fn, a).data
        assert relative_error(grad_of(loss_fn, a), fd) < 1e-5

    def test_zero_subgradient_at_coincidence(self):
        a = Tensor([[1.0, 2.0]], requires_grad=True)
        backward(T.tensor_sum(T.row_l2_distance(a, Tensor([[1.0, 2.0]]))))
        assert np.array_equal(a.grad, np.zeros((1, 2)))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            T.row_l2_distance(Tensor([[1.0]]), Tensor([[1.0, 2.0]]))


class TestElementwise:
    def test_relu_values(self):
        assert T.relu(Tensor([-1.0])).data[0] == 0.0
        assert T.relu(Tensor([2.0])).data[0] == 2.0

    def test_mean(self):
        assert T.tensor_mean(Tensor([1.0, 2.0, 3.0])).item() == 2.0

    def test_add_row_broadcast_gradient(self):
        rng = np.random.default_rng(17)
        a = Tensor(rng.standard_normal((4, 3)))
        b = Tensor(rng.standard_normal(3), requires_grad=True)
        weights = rng.standard_normal((4, 3))
        loss_fn = lambda t: T.tensor_sum(T.mul(T.add(a, t), Tensor(weights)))
        fd = finite_diff_grad(loss_fn, b).data
        assert relative_error(grad_of(loss_fn, b), fd) < 1e-6

    def test_add_shape_error(self):
        with pytest.raises(ShapeError):
            T.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))


class TestBackward:
    def test_sum_gives_ones(self):
        x = Tensor(np.arange(5, dtype=float), requires_grad=True)
        backward(T.tensor_sum(x))
        assert np.array_equal(x.grad, np.ones(5))

    def test_square_at_three(self):
        x = Tensor([3.0], requires_grad=True)
        backward(T.tensor_sum(T.mul(x, x)))
        assert np.allclose(x.grad, [6.0])

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ShapeError):
            backward(T.scale(x, 2.0))

    def test_accumulation_and_determinism(self):
        rng = np.random.default_rng(23)
        x = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 3)))

        def loss():
            y = T.matmul(x, w)
            return T.tensor_sum(T.mul(T.log_softmax(y, axis=1), y))

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
        y = T.add(x, x)
        backward(T.tensor_sum(y))
        assert np.array_equal(x.grad, [2.0])

    def test_leaves_own_their_first_gradient(self):
        # add hands both parents the same array; each leaf must get its own copy
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = Tensor([3.0, 4.0], requires_grad=True)
        backward(T.tensor_sum(T.add(x, y)))
        x.grad[0] = 5.0
        assert np.array_equal(y.grad, [1.0, 1.0])


class TestFiniteDiff:
    def test_sum_yields_ones(self):
        x = Tensor(np.arange(4, dtype=float))
        g = finite_diff_grad(lambda t: T.tensor_sum(t), x).data
        assert np.allclose(g, 1.0, atol=1e-9)

    def test_square_at_three(self):
        x = Tensor([3.0])
        g = finite_diff_grad(lambda t: T.tensor_sum(T.mul(t, t)), x).data
        assert abs(g[0] - 6.0) < 1e-6

    def test_agrees_with_backward_on_adapter_pass(self):
        from stylecat.encoders import AdapterParams, adapter_forward

        rng = np.random.default_rng(29)
        p = AdapterParams.init(6, hidden=3, seed=1)
        p.w2.data = 0.5 * rng.standard_normal(p.w2.shape)
        p.b2.data = 0.1 * rng.standard_normal(p.b2.shape)
        f = Tensor(rng.standard_normal((1, 6)))
        loss_fn = lambda _: T.tensor_sum(T.mul(adapter_forward(f, p), adapter_forward(f, p)))
        for t in p.tensors():
            t.zero_grad()
        backward(loss_fn(None))
        for t in p.tensors():
            fd = finite_diff_grad(loss_fn, t).data
            assert relative_error(t.grad, fd) < 1e-5


class TestOpFamilyGradients:
    """Every differentiable op agrees with the oracle across 20 seeds."""

    @pytest.mark.parametrize("seed", range(20))
    def test_composite_pipeline(self, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
        w = Tensor(rng.standard_normal((5, 4)))
        bias = Tensor(rng.standard_normal(4))
        idx = rng.integers(0, 4, size=4)

        def loss_fn(_):
            h = T.relu(T.add(T.matmul(x, w), bias))
            y = T.normalize(T.add(h, Tensor(np.full((4, 4), 0.7))))
            lp = T.log_softmax(T.scale(y, 3.0), axis=1)
            picked = T.pick_rows(lp, idx)
            d = T.row_l2_distance(y, Tensor(np.tile(np.eye(4)[0], (4, 1))))
            return T.add(T.tensor_mean(picked), T.scale(T.tensor_sum(d), 0.1))

        x.zero_grad()
        backward(loss_fn(None))
        # ReLU kink guard: skip seeds whose pre-activations sit at the kink
        pre = x.data @ w.data + bias.data
        if np.abs(pre).min() < 1e-4:
            pytest.skip("kink-adjacent draw")
        fd = finite_diff_grad(loss_fn, x).data
        assert relative_error(x.grad, fd) < 1e-6


def test_no_grad_suppresses_tape():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with no_grad():
        y = T.scale(x, 3.0)
    assert y._grad_fn is None and not y.requires_grad


def test_normalize_rejects_zero_norm():
    with pytest.raises(ValueError, match="zero"):
        T.normalize(Tensor([0.0, 0.0, 0.0]))


def test_values_stay_finite_on_extreme_finite_input():
    x = Tensor([[1e8, -1e8, 0.0]])
    for out in (T.log_softmax(x, axis=1), T.relu(x)):
        assert np.isfinite(out.data).all()
