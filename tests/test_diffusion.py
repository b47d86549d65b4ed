"""Guided diffusion block: attention semantics, reductions, sampling, oracle."""

import math
from dataclasses import replace
from functools import reduce

import numpy as np
import pytest

from stylecat import diffusion as diffusion_mod
from stylecat import tensor as T
from stylecat import train as train_mod
from stylecat.datagen import DatasetError, SyntheticSpec, build_mixture, generate_diffusion_dataset
from stylecat.diffusion import (
    DenoiserParams,
    DiffusionSchedule,
    GuidanceCondition,
    attention,
    condition_for_caption,
    ddpm_train_step,
    noise_regression_loss,
    oracle_classify_batch,
    predict_noise,
    sample,
    split_cross_attention,
    standard_cross_attention,
)
from stylecat.tensor import Tensor, backward, finite_diff_grad, relative_error
from stylecat.train import TrainConfig, fresh_bundle, train_diffusion


def naive_attention(q, k, v):
    """Independent double-loop reference for softmax(q k^T / sqrt(d)) v."""
    n, d = q.shape
    l = k.shape[0]
    out = np.zeros((n, v.shape[1]))
    for i in range(n):
        scores = np.empty(l)
        for j in range(l):
            scores[j] = sum(q[i, m] * k[j, m] for m in range(d)) / math.sqrt(d)
        scores -= scores.max()
        w = np.exp(scores)
        w /= w.sum()
        for j in range(l):
            out[i] += w[j] * v[j]
    return out


def unit_rows(rng, n, d):
    m = rng.standard_normal((n, d))
    return m / np.linalg.norm(m, axis=1, keepdims=True)


class TestSchedule:
    def test_invariants(self):
        s = DiffusionSchedule.make(200)
        assert s.steps == 200
        assert (s.betas > 0).all() and (s.betas < 1).all()
        assert (np.diff(s.betas) >= 0).all()
        assert (np.diff(s.alpha_bars) < 0).all()
        assert (s.alpha_bars > 0).all() and (s.alpha_bars <= 1).all()

    def test_bad_betas_rejected(self):
        with pytest.raises(ValueError):
            DiffusionSchedule(betas=np.array([0.5, 0.1]))


class TestAttention:
    def test_single_key_returns_value_row(self):
        rng = np.random.default_rng(0)
        q = Tensor(rng.standard_normal((5, 4)))
        k = Tensor(rng.standard_normal((1, 4)))
        v = Tensor(rng.standard_normal((1, 4)))
        out = attention(q, k, v).data
        assert np.allclose(out, np.tile(v.data, (5, 1)), atol=1e-15)

    def test_identical_keys_average_values(self):
        rng = np.random.default_rng(1)
        q = Tensor(rng.standard_normal((3, 4)))
        k = Tensor(np.tile(rng.standard_normal(4), (6, 1)))
        v = Tensor(rng.standard_normal((6, 4)))
        out = attention(q, k, v).data
        assert np.allclose(out, np.tile(v.data.mean(axis=0), (3, 1)), atol=1e-12)

    def test_matches_naive_reference(self):
        rng = np.random.default_rng(2)
        q = rng.standard_normal((3, 4))
        k = rng.standard_normal((5, 4))
        v = rng.standard_normal((5, 4))
        out = attention(Tensor(q), Tensor(k), Tensor(v)).data
        assert np.abs(out - naive_attention(q, k, v)).max() < 1e-12

    def test_weights_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        q = Tensor(rng.standard_normal((4, 6)) * 10)
        k = Tensor(rng.standard_normal((3, 6)) * 10)
        scores = T.scale(T.matmul(q, T.transpose(k)), 1.0 / np.sqrt(6))
        w = T.softmax(scores, axis=1).data
        assert np.abs(w.sum(axis=1) - 1.0).max() < 1e-12

    def test_shape_errors(self):
        with pytest.raises(T.ShapeError):
            attention(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4))), Tensor(np.zeros((2, 4))))
        with pytest.raises(T.ShapeError):
            attention(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 3))))


class TestSplitCrossAttention:
    def test_equal_conditions_reduce_to_standard(self):
        rng = np.random.default_rng(4)
        dim = 8
        params = DenoiserParams.init(dim=dim, steps=4, seed=9)
        z = Tensor(rng.standard_normal((5, dim)))
        tau = unit_rows(rng, 2, dim)
        cond = GuidanceCondition(tau_style=tau, tau_category=tau.copy())
        split = split_cross_attention(z, cond, params).data
        standard = standard_cross_attention(z, tau, params).data
        assert np.abs(split - standard).max() <= 1e-12

    def test_zero_value_projection_passes_residual(self):
        rng = np.random.default_rng(5)
        dim = 6
        params = DenoiserParams.init(dim=dim, steps=4, seed=3)
        params.wv.data[:] = 0.0
        z = Tensor(rng.standard_normal((4, dim)))
        cond = GuidanceCondition(tau_style=unit_rows(rng, 1, dim), tau_category=unit_rows(rng, 1, dim))
        out = split_cross_attention(z, cond, params).data
        assert np.array_equal(out, z.data)

    def test_gradients_through_block(self):
        rng = np.random.default_rng(6)
        dim = 6
        params = DenoiserParams.init(dim=dim, steps=4, seed=11, n_cond_tokens=2)
        z = Tensor(rng.standard_normal((3, dim)))
        cond = GuidanceCondition(tau_style=unit_rows(rng, 1, dim), tau_category=unit_rows(rng, 1, dim))
        w = rng.standard_normal((3, dim))
        loss_fn = lambda _: T.tensor_sum(T.mul(split_cross_attention(z, cond, params), Tensor(w)))
        check = [params.wq, params.wk, params.wv, params.wo, params.cond_offsets]
        for t in check:
            t.zero_grad()
        backward(loss_fn(None))
        for t in check:
            fd = finite_diff_grad(loss_fn, t).data
            assert relative_error(t.grad, fd) < 1e-4

    def test_multi_token_rows_unit_norm(self):
        rng = np.random.default_rng(7)
        dim = 6
        params = DenoiserParams.init(dim=dim, steps=4, seed=2, n_cond_tokens=3)
        from stylecat.diffusion import _condition_tokens

        tokens = _condition_tokens(unit_rows(rng, 1, dim), params).data
        assert tokens.shape == (3, dim)
        assert np.abs(np.linalg.norm(tokens, axis=1) - 1.0).max() < 1e-12


@pytest.fixture(scope="module")
def world():
    spec = SyntheticSpec()
    config = TrainConfig()
    bundle = fresh_bundle(spec, config)
    return spec, config, bundle


class TestBuildConditions:
    def test_alpha_zero_gives_frozen_caption_feature(self, world):
        spec, _, bundle = world
        rng = np.random.default_rng(8)
        bundle2 = fresh_bundle(spec, TrainConfig(), bundle.backbone)
        bundle2.style_adapter.w2.data = rng.standard_normal(bundle2.style_adapter.w2.shape)
        from stylecat.backbone import embed_caption

        caption = spec.caption(1, 2)
        cond = condition_for_caption(caption, bundle2, 0.0)
        f_text = embed_caption(caption, bundle.backbone).data[0]
        assert np.abs(cond.tau_style[0] - f_text).max() <= 1e-12
        assert np.abs(cond.tau_category[0] - f_text).max() <= 1e-12

    def test_zero_init_adapters_give_frozen_feature_any_alpha(self, world):
        spec, _, bundle = world
        from stylecat.backbone import embed_caption

        caption = spec.caption(0, 3)
        f_text = embed_caption(caption, bundle.backbone).data[0]
        for alpha in (0.0, 0.1, 0.5, 1.0):
            cond = condition_for_caption(caption, bundle, alpha)
            assert np.abs(cond.tau_style[0] - f_text).max() < 1e-12
            assert np.abs(cond.tau_category[0] - f_text).max() < 1e-12

    def test_default_generation_alpha_is_point_one(self):
        assert TrainConfig().generation_alpha == 0.1

    def test_unit_row_validation(self):
        with pytest.raises(ValueError, match="unit"):
            GuidanceCondition(tau_style=np.array([[2.0, 0.0]]), tau_category=np.array([[1.0, 0.0]]))


class TestTrainStep:
    def test_perfect_prediction_gives_zero_loss(self):
        rng = np.random.default_rng(9)
        eps = rng.standard_normal((6, 2))
        assert noise_regression_loss(Tensor(eps.copy()), eps).item() == 0.0

    def test_zero_output_denoiser_loss_near_two(self, world):
        spec, config, bundle = world
        params = DenoiserParams.init(dim=config.dim, steps=50, seed=0)
        params.mlp_w2.data[:] = 0.0
        params.mlp_b2.data[:] = 0.0
        schedule = DiffusionSchedule.make(50)
        points, _ = generate_diffusion_dataset(spec, n_per_cell=40)
        captions = list(dict.fromkeys(p.caption for p in points))
        conditions = [condition_for_caption(c, bundle, 0.1) for c in captions]
        xy = np.array([[p.x, p.y] for p in points])
        cond_idx = np.array([captions.index(p.caption) for p in points])
        rng = np.random.default_rng(10)
        loss = ddpm_train_step(xy, cond_idx, conditions, schedule, params, rng)
        assert abs(loss.item() - 2.0) < 0.2

    def test_gradcheck_small_params(self, world):
        spec, config, bundle = world
        rng = np.random.default_rng(11)
        params = DenoiserParams.init(dim=8, steps=6, seed=5)
        cond = GuidanceCondition(tau_style=unit_rows(rng, 1, 8), tau_category=unit_rows(rng, 1, 8))
        z_t = rng.standard_normal((3, 2))
        t_idx = rng.integers(0, 6, 3)
        eps = rng.standard_normal((3, 2))
        loss_fn = lambda _: noise_regression_loss(predict_noise(params, z_t, t_idx, cond), eps)
        for t in params.tensors():
            t.zero_grad()
        backward(loss_fn(None))
        for t in (params.wk, params.wv, params.mlp_w1, params.in_w, params.time_embed):
            fd = finite_diff_grad(loss_fn, t).data
            assert relative_error(t.grad, fd) < 1e-4


def per_caption_step(points, cond_idx, conditions, schedule, params, rng):
    """Reference objective: one denoiser forward per caption group, summed.

    Draws t and then the noise exactly as ``ddpm_train_step`` does.
    """
    n = len(points)
    t = rng.integers(0, schedule.steps, size=n)
    eps = rng.standard_normal((n, 2))
    ab = schedule.alpha_bars[t][:, None]
    z_t = np.sqrt(ab) * points + np.sqrt(1.0 - ab) * eps
    parts = []
    for g in np.unique(cond_idx):
        sel = np.flatnonzero(cond_idx == g)
        diff = T.sub(predict_noise(params, z_t[sel], t[sel], conditions[g]), Tensor(eps[sel]))
        parts.append(T.tensor_sum(T.mul(diff, diff)))
    return T.scale(reduce(T.add, parts), 1.0 / n)


def loss_and_grads(step_fn, params, *args):
    for p in params.tensors():
        p.zero_grad()
    loss = step_fn(*args)
    backward(loss)
    return loss.item(), [p.grad.copy() for p in params.tensors()]


class TestGroupedForward:
    DIM = 8
    STEPS = 10

    def conditions(self, rng, groups):
        return [GuidanceCondition(tau_style=unit_rows(rng, 1, self.DIM),
                                  tau_category=unit_rows(rng, 1, self.DIM)) for _ in range(groups)]

    @pytest.mark.parametrize("n_cond_tokens", [1, 3])
    def test_one_forward_matches_per_caption_reference(self, n_cond_tokens):
        rng = np.random.default_rng(20)
        params = DenoiserParams.init(dim=self.DIM, steps=self.STEPS, seed=4, n_cond_tokens=n_cond_tokens)
        params.wk.data *= 4.0  # peaked attention over the L tokens
        schedule = DiffusionSchedule.make(self.STEPS)
        conditions = self.conditions(rng, 12)
        points = rng.standard_normal((64, 2))
        cond_idx = rng.choice([0, 2, 3, 5, 7, 8, 11], size=64)  # five captions absent
        args = (points, cond_idx, conditions, schedule, params)
        loss, grads = loss_and_grads(ddpm_train_step, params, *args, np.random.default_rng(21))
        ref_loss, ref_grads = loss_and_grads(per_caption_step, params, *args, np.random.default_rng(21))
        assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
        for p, g, ref in zip(params.tensors(), grads, ref_grads):
            assert relative_error(g, ref) <= 1e-12, p
        if n_cond_tokens > 1:
            assert np.abs(params.wk.grad).max() > 0

    def test_single_condition_equals_one_element_list(self):
        rng = np.random.default_rng(22)
        params = DenoiserParams.init(dim=self.DIM, steps=self.STEPS, seed=6)
        (cond,) = self.conditions(rng, 1)
        z = rng.standard_normal((9, 2))
        t = rng.integers(0, self.STEPS, 9)
        single = predict_noise(params, z, t, cond).data
        listed = predict_noise(params, z, t, [cond], cond_idx=np.zeros(9, dtype=int)).data
        assert np.array_equal(single, listed)

    def test_rows_see_only_their_own_condition(self):
        rng = np.random.default_rng(23)
        params = DenoiserParams.init(dim=self.DIM, steps=self.STEPS, seed=7, n_cond_tokens=2)
        conditions = self.conditions(rng, 3)
        z = rng.standard_normal((6, 2))
        t = rng.integers(0, self.STEPS, 6)
        cond_idx = np.array([2, 0, 1, 1, 0, 2])
        before = predict_noise(params, z, t, conditions, cond_idx).data
        conditions[1] = self.conditions(rng, 1)[0]
        after = predict_noise(params, z, t, conditions, cond_idx).data
        changed = np.abs(after - before).max(axis=1) > 0
        assert changed.tolist() == (cond_idx == 1).tolist()

    def test_bad_condition_index_rejected(self):
        rng = np.random.default_rng(24)
        params = DenoiserParams.init(dim=self.DIM, steps=self.STEPS, seed=8)
        conditions = self.conditions(rng, 2)
        z = rng.standard_normal((3, 2))
        t = np.zeros(3, dtype=int)
        with pytest.raises(ValueError, match="cond_idx"):
            predict_noise(params, z, t, conditions)
        for bad in (np.array([0, 1, 2]), np.array([0, 1]), np.array([0.0, 1.0, 0.0])):
            with pytest.raises(T.ShapeError):
                predict_noise(params, z, t, conditions, bad)


class TestTrainDiffusion:
    def test_empty_dataset_is_a_dataset_error(self, world):
        _, config, bundle = world
        with pytest.raises(DatasetError, match="empty"):
            train_diffusion(config, [], bundle)

    def test_one_forward_per_step_and_one_condition_per_caption(self, world, monkeypatch):
        spec, config, bundle = world
        points, _ = generate_diffusion_dataset(spec, n_per_cell=4)
        forwards, built = [], []
        real_predict, real_condition = diffusion_mod.predict_noise, train_mod.condition_for_caption

        def counting_predict(*args, **kwargs):
            forwards.append(1)
            return real_predict(*args, **kwargs)

        def counting_condition(caption, *args, **kwargs):
            built.append(caption)
            return real_condition(caption, *args, **kwargs)

        monkeypatch.setattr(diffusion_mod, "predict_noise", counting_predict)
        monkeypatch.setattr(train_mod, "condition_for_caption", counting_condition)
        steps = 4
        cfg = replace(config, diffusion_steps=steps, diffusion_batch=32, timesteps=20)
        train_diffusion(cfg, points, bundle)
        assert len(forwards) == steps
        assert sorted(built) == sorted({p.caption for p in points})


class TestSampling:
    def test_same_seed_identical(self, world):
        _, config, _ = world
        params = DenoiserParams.init(dim=config.dim, steps=20, seed=1)
        schedule = DiffusionSchedule.make(20)
        rng = np.random.default_rng(12)
        cond = GuidanceCondition(
            tau_style=unit_rows(rng, 1, config.dim), tau_category=unit_rows(rng, 1, config.dim)
        )
        a = sample(17, cond, schedule, params, seed=123)
        b = sample(17, cond, schedule, params, seed=123)
        assert np.array_equal(a, b)
        c = sample(17, cond, schedule, params, seed=124)
        assert not np.array_equal(a, c)

    def test_zero_samples(self, world):
        _, config, _ = world
        params = DenoiserParams.init(dim=config.dim, steps=10, seed=1)
        schedule = DiffusionSchedule.make(10)
        rng = np.random.default_rng(13)
        cond = GuidanceCondition(
            tau_style=unit_rows(rng, 1, config.dim), tau_category=unit_rows(rng, 1, config.dim)
        )
        out = sample(0, cond, schedule, params, seed=0)
        assert out.shape == (0, 2)
        with pytest.raises(ValueError, match="n must be >= 0"):
            sample(-3, cond, schedule, params, seed=0)


class TestOracle:
    def test_component_means_classified_to_own_labels(self):
        spec = SyntheticSpec()
        mix = build_mixture(spec)
        s_hat, c_hat = oracle_classify_batch(mix.means.reshape(-1, 2), mix)
        cells = [(i, j) for i in range(spec.n_styles) for j in range(spec.n_categories)]
        assert list(zip(s_hat, c_hat)) == cells

    def test_far_outlier_still_classified(self):
        mix = build_mixture(SyntheticSpec())
        s, c = oracle_classify_batch(np.array([[1e6, -1e6]]), mix)
        assert 0 <= s[0] < mix.n_styles and 0 <= c[0] < mix.n_categories

    def test_agrees_with_brute_force_likelihood(self):
        """Equal-weight, equal-determinant mixture: max likelihood equals
        min Mahalanobis. The reference computes full log densities."""
        spec = SyntheticSpec()
        mix = build_mixture(spec)
        rng = np.random.default_rng(14)
        pts = rng.uniform(-4, 4, size=(1000, 2))
        s_hat, c_hat = oracle_classify_batch(pts, mix)
        means = mix.means.reshape(-1, 2)
        covs = mix.covs.reshape(-1, 2, 2)
        for n, p in enumerate(pts):
            ll = np.array([
                -0.5 * (p - m) @ np.linalg.inv(cv) @ (p - m)
                - 0.5 * math.log(np.linalg.det(cv))
                - math.log(2 * math.pi)
                for m, cv in zip(means, covs)
            ])
            best = ll.argmax()
            assert (s_hat[n], c_hat[n]) == (best // spec.n_categories, best % spec.n_categories)
