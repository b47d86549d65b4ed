"""Guided diffusion: the fused denoiser, condition building, training, sampling, oracle."""

import math
import tracemalloc
from dataclasses import replace
from functools import reduce

import numpy as np
import pytest

from stylecat import diffusion as diffusion_mod
from stylecat import tensor as T
from stylecat import train as train_mod
from stylecat.backbone import embed_caption
from stylecat.datagen import DatasetError, SyntheticSpec, build_mixture, generate_diffusion_dataset
from stylecat.diffusion import (
    DenoiserParams,
    DiffusionSchedule,
    GuidanceCondition,
    condition_for_caption,
    ddpm_train_step,
    noise_regression_loss,
    oracle_classify_batch,
    predict_noise,
    sample,
)
from stylecat.losses import ConfigError
from stylecat.tensor import ShapeError, Tensor, backward, finite_diff_grad, no_grad, relative_error
from stylecat.train import TrainConfig, fresh_bundle, train_diffusion


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


def reference_forward(params, z, t, cond, cond_idx):
    """The denoiser written out in numpy, with its pre-activation: (pre, a, estimate)."""
    p = params.arrays()
    values = cond.tau_style @ p["ws"] + cond.tau_category @ p["wv"]
    a = z @ p["in_w"] + p["in_b"] + p["time_embed"][t] + values[cond_idx]
    pre = a @ p["mlp_w1"] + p["mlp_b1"]
    return pre, a, np.where(pre > 0, pre, 0.0) @ p["mlp_w2"] + p["mlp_b2"]


def reference_grads(params, z, t, cond, cond_idx, eps):
    """Gradients of the mean squared noise error, each row gather scattered back with np.add.at."""
    p = params.arrays()
    style, category = cond.tau_style, cond.tau_category
    pre, a, out = reference_forward(params, z, t, cond, cond_idx)
    diff = out - eps
    gd = (1.0 / len(z)) * diff
    g = gd + gd
    hidden = np.where(pre > 0, pre, 0.0)
    g_pre = (g @ p["mlp_w2"].T) * (pre > 0)
    g_a = g_pre @ p["mlp_w1"].T
    g_time = np.zeros_like(p["time_embed"])
    np.add.at(g_time, t, g_a)
    g_values = np.zeros((len(style), g_a.shape[1]))
    np.add.at(g_values, cond_idx, g_a)
    return {"time_embed": g_time, "in_w": z.T @ g_a, "in_b": g_a.sum(axis=0),
            "ws": style.T @ g_values, "wv": category.T @ g_values, "mlp_w1": a.T @ g_pre,
            "mlp_b1": g_pre.sum(axis=0), "mlp_w2": hidden.T @ g, "mlp_b2": g.sum(axis=0)}


class TestValuePaths:
    DIM = 6
    STEPS = 4

    def parts(self, seed):
        rng = np.random.default_rng(seed)
        params = DenoiserParams.init(dim=self.DIM, steps=self.STEPS, seed=seed)
        params.mlp_b1.data[:] = 0.3 * rng.standard_normal(self.DIM)
        conds = [GuidanceCondition(tau_style=unit_rows(rng, 1, self.DIM), tau_category=unit_rows(rng, 1, self.DIM))
                 for _ in range(3)]
        return rng, params, conds

    def test_each_row_adds_its_conditions_two_value_projections(self):
        rng, params, conds = self.parts(4)
        z = rng.standard_normal((5, 2))
        t = np.array([3, 0, 1, 3, 2])
        cond_idx = np.array([2, 0, 0, 1, 2])
        out = predict_noise(params, z, t, GuidanceCondition.stack(conds), cond_idx).data
        p = params.arrays()
        for i, g in enumerate(cond_idx):
            a = (z[i] @ p["in_w"] + p["in_b"] + p["time_embed"][t[i]]
                 + conds[g].tau_style[0] @ p["ws"] + conds[g].tau_category[0] @ p["wv"])
            expected = np.maximum(a @ p["mlp_w1"] + p["mlp_b1"], 0.0) @ p["mlp_w2"] + p["mlp_b2"]
            assert np.abs(out[i] - expected).max() <= 1e-14

    def test_zero_value_weights_pass_the_residual(self):
        rng, params, conds = self.parts(5)
        params.ws.data[:] = 0.0
        params.wv.data[:] = 0.0
        z = rng.standard_normal((5, 2))
        t = rng.integers(0, self.STEPS, 5)
        p = params.arrays()
        pre = (z @ p["in_w"] + p["in_b"] + p["time_embed"][t]) @ p["mlp_w1"] + p["mlp_b1"]
        residual_only = np.where(pre > 0, pre, 0.0) @ p["mlp_w2"] + p["mlp_b2"]
        for cond in conds:
            assert np.array_equal(predict_noise(params, z, t, cond).data, residual_only)

    def test_replacing_only_the_style_row_changes_the_noise_estimate(self):
        rng, params, conds = self.parts(6)
        z = rng.standard_normal((8, 2))
        t = rng.integers(0, self.STEPS, 8)
        swapped = GuidanceCondition(tau_style=conds[1].tau_style, tau_category=conds[0].tau_category)
        before = predict_noise(params, z, t, conds[0]).data
        after = predict_noise(params, z, t, swapped).data
        assert np.abs(after - before).max() > 1e-3


@pytest.fixture(scope="module")
def world():
    spec = SyntheticSpec()
    config = TrainConfig()
    bundle = fresh_bundle(spec, config)
    return spec, config, bundle


class TestBuildConditions:
    def frozen(self, spec, bundle, i, j):
        """Frozen features of the style text and the category text of cell (i, j)'s caption."""
        return (embed_caption(f"a {spec.style_names[i]} style", bundle.backbone)[0],
                embed_caption(spec.category_names[j], bundle.backbone)[0])

    def test_alpha_zero_gives_frozen_caption_feature(self, world):
        spec, _, bundle = world
        rng = np.random.default_rng(8)
        bundle2 = fresh_bundle(spec, TrainConfig(), bundle.backbone)
        bundle2.style_adapter.w2.data[...] = rng.standard_normal(bundle2.style_adapter.w2.shape)
        cond = condition_for_caption(spec.caption(1, 2), bundle2, 0.0)
        f_style, f_category = self.frozen(spec, bundle, 1, 2)
        assert np.abs(cond.tau_style[0] - f_style).max() <= 1e-12
        assert np.abs(cond.tau_category[0] - f_category).max() <= 1e-12

    def test_zero_init_adapters_give_frozen_feature_any_alpha(self, world):
        spec, _, bundle = world
        f_style, f_category = self.frozen(spec, bundle, 0, 3)
        for alpha in (0.0, 0.1, 0.5, 1.0):
            cond = condition_for_caption(spec.caption(0, 3), bundle, alpha)
            assert np.abs(cond.tau_style[0] - f_style).max() < 1e-12
            assert np.abs(cond.tau_category[0] - f_category).max() < 1e-12

    def test_each_factor_reads_only_its_own_half(self, world):
        spec, _, bundle = world
        base = condition_for_caption(spec.caption(0, 0), bundle, 0.1)
        other_style = condition_for_caption(spec.caption(1, 0), bundle, 0.1)
        other_category = condition_for_caption(spec.caption(0, 1), bundle, 0.1)
        assert np.array_equal(base.tau_category, other_style.tau_category)
        assert np.array_equal(base.tau_style, other_category.tau_style)
        assert not np.array_equal(base.tau_style, other_style.tau_style)

    @pytest.mark.parametrize("caption", ["a neon style", "cat", ""])
    def test_caption_without_both_halves_is_a_config_error(self, world, caption):
        _, _, bundle = world
        with pytest.raises(ConfigError, match="does not decompose"):
            condition_for_caption(caption, bundle, 0.1)

    def test_default_generation_alpha_is_point_one(self):
        assert TrainConfig().generation_alpha == 0.1

    def test_unit_row_validation(self):
        with pytest.raises(ValueError, match="unit"):
            GuidanceCondition(tau_style=np.array([[2.0, 0.0]]), tau_category=np.array([[1.0, 0.0]]))
        with pytest.raises(ValueError, match="unit"):
            GuidanceCondition(tau_style=np.array([[np.nan, 0.0]]), tau_category=np.array([[1.0, 0.0]]))



class TestStackedConditions:
    def test_stack_concatenates_in_order(self):
        rng = np.random.default_rng(27)
        conds = [GuidanceCondition(tau_style=unit_rows(rng, 1, 4), tau_category=unit_rows(rng, 1, 4))
                 for _ in range(3)]
        stacked = GuidanceCondition.stack(conds)
        assert stacked.tau_style.shape == stacked.tau_category.shape == (3, 4)
        for g, c in enumerate(conds):
            assert np.array_equal(stacked.tau_style[g], c.tau_style[0])
            assert np.array_equal(stacked.tau_category[g], c.tau_category[0])
        assert np.array_equal(GuidanceCondition.stack(conds[:1]).tau_style, conds[0].tau_style)

    @pytest.mark.parametrize("style_shape, category_shape", [
        ((0, 4), (0, 4)),     # zero rows
        ((3, 4), (2, 4)),     # stacks of unequal height
        ((2, 4), (2, 3)),     # or width
        ((2, 2, 4), (2, 2, 4)),
    ])
    def test_misshaped_stacks_rejected(self, style_shape, category_shape):
        rows = lambda shape: np.ones(shape) / np.sqrt(shape[-1])
        with pytest.raises(ValueError, match="G >= 1 style rows"):
            GuidanceCondition(tau_style=rows(style_shape), tau_category=rows(category_shape))

    @pytest.mark.parametrize("bad", [2.0, np.nan, 0.0])
    @pytest.mark.parametrize("factor", ["tau_style", "tau_category"])
    def test_one_bad_row_among_three_rejected(self, factor, bad):
        rng = np.random.default_rng(28)
        rows = {name: unit_rows(rng, 3, 4) for name in ("tau_style", "tau_category")}
        rows[factor][1] = [bad, 0.0, 0.0, 0.0]
        with pytest.raises(ValueError, match=f"{factor} rows must be unit-norm"):
            GuidanceCondition(**rows)


class TestTrainStep:
    def test_perfect_prediction_gives_zero_loss(self):
        rng = np.random.default_rng(9)
        eps = rng.standard_normal((6, 2))
        assert noise_regression_loss(Tensor(eps.copy()), eps).item() == 0.0
        with pytest.raises(ShapeError, match="noise"):
            noise_regression_loss(Tensor(eps), eps[:5])

    def test_zero_output_denoiser_loss_near_two(self, world):
        spec, config, bundle = world
        params = DenoiserParams.init(dim=config.dim, steps=50, seed=0)
        params.mlp_w2.data[:] = 0.0
        params.mlp_b2.data[:] = 0.0
        schedule = DiffusionSchedule.make(50)
        points, _ = generate_diffusion_dataset(spec, n_per_cell=40)
        captions = list(dict.fromkeys(p.caption for p in points))
        conditions = GuidanceCondition.stack([condition_for_caption(c, bundle, 0.1) for c in captions])
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
        for t in (params.ws, params.wv, params.mlp_w1, params.in_w, params.time_embed):
            fd = finite_diff_grad(loss_fn, t)
            assert relative_error(t.grad, fd) < 1e-4

    def test_repeated_rows_scatter_their_gradients(self):
        """Repeated timesteps and conditions: gradients equal np.add.at's bit for bit, and finite differences."""
        rng = np.random.default_rng(15)
        params = DenoiserParams.init(dim=8, steps=6, seed=9)
        params.mlp_b1.data[:] = 0.3 * rng.standard_normal(8)
        conds = GuidanceCondition.stack([GuidanceCondition(tau_style=unit_rows(rng, 1, 8),
                                                           tau_category=unit_rows(rng, 1, 8)) for _ in range(3)])
        z_t = rng.standard_normal((7, 2))
        t_idx = np.array([0, 2, 2, 5, 2, 0, 4])
        cond_idx = np.array([1, 1, 0, 2, 1, 0, 0])
        eps = rng.standard_normal((7, 2))
        pre, _, _ = reference_forward(params, z_t, t_idx, conds, cond_idx)
        assert np.abs(pre).min() > 1e-3  # central differences stay off the ReLU kink
        loss_fn = lambda _: noise_regression_loss(predict_noise(params, z_t, t_idx, conds, cond_idx), eps)
        params.zero_grad()
        backward(loss_fn(None))
        expected = reference_grads(params, z_t, t_idx, conds, cond_idx, eps)
        for name, p in zip(params.arrays(), params.tensors()):
            assert np.array_equal(p.grad, expected[name]), name
        for p in (params.time_embed, params.ws, params.wv):
            assert relative_error(p.grad, finite_diff_grad(loss_fn, p)) < 1e-6

    def test_one_step_tapes_one_node(self, world):
        """The denoiser and its loss are one node over the nine parameter leaves, with or without a workspace."""
        spec, config, bundle = world
        points, _ = generate_diffusion_dataset(spec, n_per_cell=4)
        captions = list(dict.fromkeys(p.caption for p in points))
        conditions = GuidanceCondition.stack([condition_for_caption(c, bundle, 0.1) for c in captions])
        xy = np.array([[p.x, p.y] for p in points])
        cond_idx = np.array([captions.index(p.caption) for p in points])
        params = DenoiserParams.init(dim=config.dim, steps=20, seed=0)
        schedule = DiffusionSchedule.make(20)
        buffers = diffusion_mod._TrainBuffers(schedule, params, conditions, len(xy))
        for kwargs in ({}, {"buffers": buffers}):
            loss = ddpm_train_step(xy, cond_idx, conditions, schedule, params, np.random.default_rng(16), **kwargs)
            assert loss._grad_fn is not None
            assert [id(p) for p in loss._parents] == [id(p) for p in params.tensors()]
            assert all(p._grad_fn is None and not p._parents for p in loss._parents)

    def test_backward_fills_the_flat_gradient(self):
        """After one step's backward, ``flat_grad`` holds the nine reference gradients in field order."""
        rng = np.random.default_rng(18)
        params = DenoiserParams.init(dim=8, steps=6, seed=3)
        cond = GuidanceCondition(tau_style=unit_rows(rng, 3, 8), tau_category=unit_rows(rng, 3, 8))
        points = rng.standard_normal((9, 2))
        cond_idx = np.array([0, 2, 1, 1, 0, 2, 2, 0, 1])
        schedule = DiffusionSchedule.make(6)
        params.zero_grad()
        backward(ddpm_train_step(points, cond_idx, cond, schedule, params, np.random.default_rng(19)))
        draws = np.random.default_rng(19)  # ddpm_train_step's draws: timesteps, then noise
        t = draws.integers(0, 6, size=9)
        eps = draws.standard_normal((9, 2))
        ab = schedule.alpha_bars[t][:, None]
        z_t = np.sqrt(ab) * points + np.sqrt(1.0 - ab) * eps
        expected = reference_grads(params, z_t, t, cond, cond_idx, eps)
        assert np.array_equal(params.flat_grad, np.concatenate([expected[name].ravel() for name in params.arrays()]))

    def step_parts(self, rows=6, groups=3, steps=6, seed=30):
        rng = np.random.default_rng(seed)
        params = DenoiserParams.init(dim=8, steps=steps, seed=seed)
        cond = GuidanceCondition(tau_style=unit_rows(rng, groups, 8), tau_category=unit_rows(rng, groups, 8))
        return params, cond, DiffusionSchedule.make(steps), rng.standard_normal((rows, 2)), np.arange(rows) % groups

    @pytest.mark.parametrize("with_buffers", [False, True], ids=["one-off", "workspace"])
    @pytest.mark.parametrize("shape", [(2,), (3,), (3, 3), (3, 1), (0, 2), (3, 2, 1)])
    def test_malformed_points_refused_before_drawing(self, shape, with_buffers):
        """Only (n, 2) points train: a (2,) vector would broadcast into a (2, 2) batch."""
        params, cond, schedule, _, cond_idx = self.step_parts(rows=3)
        kwargs = {"buffers": diffusion_mod._TrainBuffers(schedule, params, cond, 3)} if with_buffers else {}
        rng = np.random.default_rng(31)
        state = rng.bit_generator.state
        with pytest.raises(ShapeError, match="points must be"):
            ddpm_train_step(np.zeros(shape), cond_idx, cond, schedule, params, rng, **kwargs)
        assert rng.bit_generator.state == state

    def test_stale_node_refuses_its_backward(self):
        """A node whose workspace a later step has overwritten raises; the latest node back-propagates."""
        params, cond, schedule, points, cond_idx = self.step_parts()
        buffers = diffusion_mod._TrainBuffers(schedule, params, cond, len(points))
        rng = np.random.default_rng(32)
        first = ddpm_train_step(points, cond_idx, cond, schedule, params, rng, buffers=buffers)
        second = ddpm_train_step(points, cond_idx, cond, schedule, params, rng, buffers=buffers)
        params.zero_grad()
        with pytest.raises(RuntimeError, match="overwritten"):
            backward(first)
        assert not params.flat_grad.any()
        backward(second)
        assert params.flat_grad.any()

    def test_workspace_of_another_run_refused(self):
        """A workspace is for one denoiser, condition, schedule and batch size, all checked before drawing."""
        params, cond, schedule, points, cond_idx = self.step_parts()
        buffers = diffusion_mod._TrainBuffers(schedule, params, cond, len(points))
        other_params = DenoiserParams.init(dim=8, steps=6, seed=30)
        equal_cond = GuidanceCondition(tau_style=cond.tau_style.copy(), tau_category=cond.tau_category.copy())
        rng = np.random.default_rng(33)
        state = rng.bit_generator.state
        for args in ((points, cond_idx, cond, schedule, other_params),
                     (points, cond_idx, equal_cond, schedule, params),
                     (points, cond_idx, cond, DiffusionSchedule.make(6), params)):
            with pytest.raises(ValueError, match="another denoiser, condition or schedule"):
                ddpm_train_step(*args, rng, buffers=buffers)
        with pytest.raises(ShapeError, match=r"workspace's \(6, 2\) batch"):
            ddpm_train_step(points[:5], cond_idx[:5], cond, schedule, params, rng, buffers=buffers)
        with pytest.raises(ShapeError, match="cond_idx"):
            ddpm_train_step(points, cond_idx + 1, cond, schedule, params, rng, buffers=buffers)
        with pytest.raises(ValueError, match="cond_idx is required"):
            ddpm_train_step(points, None, cond, schedule, params, rng, buffers=buffers)
        assert rng.bit_generator.state == state

    def test_workspace_checks_its_run_once(self):
        """The schedule and the condition are checked when the workspace is built."""
        params, cond, schedule, _, _ = self.step_parts()
        rng = np.random.default_rng(34)
        with pytest.raises(ShapeError, match="schedule has 7 steps but the denoiser embeds 6"):
            diffusion_mod._TrainBuffers(DiffusionSchedule.make(7), params, cond, 6)
        with pytest.raises(TypeError, match="one GuidanceCondition"):
            diffusion_mod._TrainBuffers(schedule, params, [cond], 6)
        narrow = GuidanceCondition(tau_style=unit_rows(rng, 3, 4), tau_category=unit_rows(rng, 3, 4))
        with pytest.raises(ShapeError, match="width"):
            diffusion_mod._TrainBuffers(schedule, params, narrow, 6)


def per_caption_step(points, cond_idx, condition, schedule, params, rng):
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
        own = GuidanceCondition(tau_style=condition.tau_style[g], tau_category=condition.tau_category[g])
        group_loss = noise_regression_loss(predict_noise(params, z_t[sel], t[sel], own), eps[sel])
        parts.append(T.scale(group_loss, len(sel) / n))
    return reduce(T.add, parts)


def loss_and_grads(step_fn, params, *args):
    params.zero_grad()
    loss = step_fn(*args)
    backward(loss)
    return loss.item(), [p.grad.copy() for p in params.tensors()]


class TestGroupedForward:
    DIM = 8
    STEPS = 10

    def conditions(self, rng, groups):
        return GuidanceCondition(tau_style=unit_rows(rng, groups, self.DIM),
                                 tau_category=unit_rows(rng, groups, self.DIM))

    @pytest.mark.parametrize("present", [1, 3, 7])
    def test_one_forward_matches_per_caption_reference(self, present):
        """Grouped forward == one forward per caption, with 12 - ``present`` captions absent."""
        rng = np.random.default_rng(20)
        params = DenoiserParams.init(dim=self.DIM, steps=self.STEPS, seed=4)
        schedule = DiffusionSchedule.make(self.STEPS)
        conditions = self.conditions(rng, 12)
        points = rng.standard_normal((64, 2))
        cond_idx = rng.choice([0, 2, 3, 5, 7, 8, 11][:present], size=64)
        args = (points, cond_idx, conditions, schedule, params)
        loss, grads = loss_and_grads(ddpm_train_step, params, *args, np.random.default_rng(21))
        ref_loss, ref_grads = loss_and_grads(per_caption_step, params, *args, np.random.default_rng(21))
        assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
        for p, g, ref in zip(params.tensors(), grads, ref_grads):
            assert relative_error(g, ref) <= 1e-12, p

    def test_one_row_needs_no_condition_index(self):
        rng = np.random.default_rng(22)
        params = DenoiserParams.init(dim=self.DIM, steps=self.STEPS, seed=6)
        cond = self.conditions(rng, 1)
        z = rng.standard_normal((9, 2))
        t = rng.integers(0, self.STEPS, 9)
        broadcast = predict_noise(params, z, t, cond).data
        indexed = predict_noise(params, z, t, cond, cond_idx=np.zeros(9, dtype=int)).data
        assert np.array_equal(broadcast, indexed)

    def test_rows_see_only_their_own_condition(self):
        rng = np.random.default_rng(23)
        params = DenoiserParams.init(dim=self.DIM, steps=self.STEPS, seed=7)
        conditions = self.conditions(rng, 3)
        z = rng.standard_normal((6, 2))
        t = rng.integers(0, self.STEPS, 6)
        cond_idx = np.array([2, 0, 1, 1, 0, 2])
        before = predict_noise(params, z, t, conditions, cond_idx).data
        other = self.conditions(rng, 1)
        conditions.tau_style[1], conditions.tau_category[1] = other.tau_style[0], other.tau_category[0]
        after = predict_noise(params, z, t, conditions, cond_idx).data
        changed = np.abs(after - before).max(axis=1) > 0
        assert changed.tolist() == (cond_idx == 1).tolist()

    def test_bad_condition_index_rejected(self):
        rng = np.random.default_rng(24)
        params = DenoiserParams.init(dim=self.DIM, steps=self.STEPS, seed=8)
        conditions = self.conditions(rng, 2)
        z = rng.standard_normal((3, 2))
        t = np.zeros(3, dtype=int)
        with pytest.raises(ValueError, match="cond_idx is required with a condition of 2 rows"):
            predict_noise(params, z, t, conditions)
        for bad in (np.array([0, 1, 2]), np.array([0, 1]), np.array([0.0, 1.0, 0.0])):
            with pytest.raises(T.ShapeError):
                predict_noise(params, z, t, conditions, bad)
        with pytest.raises(T.ShapeError):
            predict_noise(params, z, t, self.conditions(rng, 1), np.array([0, 1, 0]))

    def test_list_of_conditions_rejected(self):
        rng = np.random.default_rng(29)
        params = DenoiserParams.init(dim=self.DIM, steps=self.STEPS, seed=8)
        cond = self.conditions(rng, 1)
        with pytest.raises(TypeError, match="one GuidanceCondition, got list"):
            predict_noise(params, np.zeros((2, 2)), np.zeros(2, dtype=int), [cond, cond], np.array([0, 1]))

    @pytest.mark.parametrize("z_shape, t_idx", [
        ((3, 2), [0, -1, 2]),               # negative: must not wrap to the last timestep
        ((3, 2), [0, 1, STEPS]),            # past the last timestep
        ((3, 2), [0, 1]),                   # one per row
        ((3, 2), [[0, 1, 2]]),              # a 1-D array
        ((3, 2), [0.0, 1.0, 2.0]),          # integer timesteps
        ((3, 3), [0, 1, 2]),                # two coordinates per point
        ((3, 1, 2), [0, 1, 2]),             # a 2-D array of points
        ((3, 2), True),                     # one timestep for every row: not a bool,
        ((3, 2), -1),                       # not negative,
        ((3, 2), STEPS),                    # not past the last timestep,
        ((3, 2), 2.0),                      # and an integer
    ])
    def test_bad_timesteps_and_points_rejected(self, z_shape, t_idx):
        rng = np.random.default_rng(25)
        params = DenoiserParams.init(dim=self.DIM, steps=self.STEPS, seed=8)
        cond = self.conditions(rng, 1)
        for t in (t_idx, np.array(t_idx)):
            with pytest.raises(ShapeError):
                predict_noise(params, np.zeros(z_shape), t, cond)

    def test_condition_of_another_width_rejected(self):
        rng = np.random.default_rng(26)
        params = DenoiserParams.init(dim=self.DIM, steps=self.STEPS, seed=8)
        narrow = GuidanceCondition(tau_style=unit_rows(rng, 1, 4), tau_category=unit_rows(rng, 1, 4))
        with pytest.raises(ShapeError, match="width"):
            predict_noise(params, np.zeros((2, 2)), np.zeros(2, dtype=int), narrow)


class TestTrainDiffusion:
    def test_empty_dataset_is_a_dataset_error(self, world):
        _, config, bundle = world
        with pytest.raises(DatasetError, match="empty"):
            train_diffusion(config, [], bundle)

    def test_non_finite_point_is_a_dataset_error(self, world):
        spec, config, bundle = world
        points, _ = generate_diffusion_dataset(spec, n_per_cell=4)
        points[5] = replace(points[5], x=float("nan"))
        with pytest.raises(DatasetError, match="point 5 is not finite"):
            train_diffusion(replace(config, diffusion_steps=50, timesteps=20), points, bundle)

    def test_non_finite_parameter_is_a_numerical_error(self, world, monkeypatch):
        # A NaN weight under a ReLU leaves the loss finite but poisons every upstream gradient.
        spec, config, bundle = world
        points, _ = generate_diffusion_dataset(spec, n_per_cell=4)
        real_init = DenoiserParams.init.__func__

        def poisoned_init(cls, *args, **kwargs):
            params = real_init(cls, *args, **kwargs)
            params.mlp_w1.data[0, 0] = np.nan
            return params

        monkeypatch.setattr(DenoiserParams, "init", classmethod(poisoned_init))
        with pytest.raises(train_mod.NumericalError, match="non-finite denoiser parameters"):
            train_diffusion(replace(config, diffusion_steps=50, timesteps=20), points, bundle)

    def test_style_and_category_value_weights_both_train(self, world):
        spec, config, bundle = world
        points, _ = generate_diffusion_dataset(spec, n_per_cell=4)
        cfg = replace(config, diffusion_steps=3, diffusion_batch=32, timesteps=20)
        params, _, _ = train_diffusion(cfg, points, bundle)
        init = DenoiserParams.init(dim=cfg.dim, steps=cfg.timesteps, seed=cfg.seed)
        for name in ("ws", "wv"):
            assert np.abs(getattr(params, name).data - getattr(init, name).data).min() > 0, name

    def test_one_forward_per_step_and_one_condition_per_caption(self, world, monkeypatch):
        spec, config, bundle = world
        points, _ = generate_diffusion_dataset(spec, n_per_cell=4)
        forwards, built = [], []
        real_forward, real_condition = diffusion_mod._LayeredBuffers.forward, train_mod.condition_for_caption

        def counting_forward(self, *args, **kwargs):
            forwards.append(len(args[0]))
            return real_forward(self, *args, **kwargs)

        def counting_condition(caption, *args, **kwargs):
            built.append(caption)
            return real_condition(caption, *args, **kwargs)

        monkeypatch.setattr(diffusion_mod._LayeredBuffers, "forward", counting_forward)
        monkeypatch.setattr(train_mod, "condition_for_caption", counting_condition)
        steps = 4
        cfg = replace(config, diffusion_steps=steps, diffusion_batch=32, timesteps=20)
        train_diffusion(cfg, points, bundle)
        assert forwards == [32] * steps
        assert sorted(built) == sorted({p.caption for p in points})

    def test_every_step_reads_one_stacked_condition(self, world, monkeypatch):
        """Every step gets the one stacked condition and the one workspace built before the loop."""
        spec, config, bundle = world
        points, _ = generate_diffusion_dataset(spec, n_per_cell=4)
        seen = []
        real_step = train_mod.ddpm_train_step

        def recording_step(points, cond_idx, condition, *args, **kwargs):
            seen.append((condition, kwargs["buffers"]))
            return real_step(points, cond_idx, condition, *args, **kwargs)

        monkeypatch.setattr(train_mod, "ddpm_train_step", recording_step)
        train_diffusion(replace(config, diffusion_steps=3, diffusion_batch=32, timesteps=20), points, bundle)
        assert len(seen) == 3 and all(step == seen[0] for step in seen)
        cond, buffers = seen[0]
        assert isinstance(cond, GuidanceCondition) and buffers.cond is cond
        assert cond.tau_style.shape == cond.tau_category.shape == (12, config.dim)

    @pytest.mark.parametrize("seed", [0, 7])
    def test_equals_the_two_node_reference_loop(self, seed):
        """Parameters, loss rows and the last flat gradient equal a loop over ``predict_noise``,
        ``noise_regression_loss``, ``backward`` and ``Adam``, to the bit."""
        spec = SyntheticSpec(n_styles=2, n_categories=2, style_names=SyntheticSpec.style_names[:2],
                             category_names=SyntheticSpec.category_names[:2])
        config = TrainConfig(dim=8, timesteps=20, diffusion_steps=40, diffusion_batch=32, seed=seed)
        bundle = fresh_bundle(spec, config)
        points, _ = generate_diffusion_dataset(spec, n_per_cell=10)
        params, _, rows = train_diffusion(config, points, bundle)
        ref_params, ref_rows = reference_train(config, points, bundle)
        assert rows == ref_rows and [r["step"] for r in rows] == [0, 39]
        assert params.flat.tobytes() == ref_params.flat.tobytes()
        assert params.flat_grad.tobytes() == ref_params.flat_grad.tobytes()


def reference_train(config, points, bundle):
    """``train_diffusion``'s loop with the denoiser and its loss as two tape nodes: (params, rows)."""
    schedule = DiffusionSchedule.make(config.timesteps)
    params = DenoiserParams.init(dim=config.dim, steps=config.timesteps, seed=config.seed)
    opt = train_mod.Adam(params, config.lr)
    rng = np.random.default_rng([config.seed, 21])
    captions = list(dict.fromkeys(p.caption for p in points))
    conditions = GuidanceCondition.stack([condition_for_caption(c, bundle, config.generation_alpha)
                                          for c in captions])
    xy = np.array([[p.x, p.y] for p in points])
    cond_idx = np.array([captions.index(p.caption) for p in points])
    n = min(config.diffusion_batch, len(points))
    rows = []
    for step in range(config.diffusion_steps):
        batch = rng.integers(0, len(points), size=n)
        t = rng.integers(0, schedule.steps, size=n)
        eps = rng.standard_normal((n, 2))
        ab = schedule.alpha_bars[t][:, None]
        z_t = np.sqrt(ab) * xy[batch] + np.sqrt(1.0 - ab) * eps
        loss = noise_regression_loss(predict_noise(params, z_t, t, conditions, cond_idx[batch]), eps)
        params.zero_grad()
        backward(loss)
        opt.step()
        if step % 100 == 0 or step == config.diffusion_steps - 1:
            rows.append({"step": step, "loss": loss.item()})
    return params, rows


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

    def test_bad_count_and_condition_name_sample(self, world):
        _, config, _ = world
        params = DenoiserParams.init(dim=config.dim, steps=10, seed=1)
        schedule = DiffusionSchedule.make(10)
        rng = np.random.default_rng(14)
        cond = GuidanceCondition(
            tau_style=unit_rows(rng, 1, config.dim), tau_category=unit_rows(rng, 1, config.dim)
        )
        assert np.array_equal(sample(np.int64(3), cond, schedule, params), sample(3, cond, schedule, params))
        for n in (2.0, np.float64(3.0), True, "3", None):
            with pytest.raises(ValueError, match="sample: n must be an integer"):
                sample(n, cond, schedule, params)
        for n in (0, 3):
            with pytest.raises(ValueError, match="sample takes a one-row condition, got one of 2 rows"):
                sample(n, GuidanceCondition.stack([cond, cond]), schedule, params)


def reference_sample(n, condition, schedule, params, seed):
    """The reverse loop as first written: np.where ReLU, one timestep per row, scalar coefficients."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, 2))
    for t in range(schedule.steps - 1, -1, -1):
        eps_hat = reference_forward(params, z, np.full(n, t), condition, np.zeros(n, dtype=int))[2]
        beta = schedule.betas[t]
        z = (z - beta / np.sqrt(1.0 - schedule.alpha_bars[t]) * eps_hat) / np.sqrt(schedule.alphas[t])
        if t > 0:
            var = (1.0 - schedule.alpha_bars[t - 1]) / (1.0 - schedule.alpha_bars[t]) * beta
            z = z + np.sqrt(var) * rng.standard_normal((n, 2))
    return z


class TestReverseStep:
    DIM = 8
    STEPS = 20

    def parts(self, seed):
        rng = np.random.default_rng(seed)
        params = DenoiserParams.init(dim=self.DIM, steps=self.STEPS, seed=seed)
        for bias in (params.in_b, params.mlp_b1, params.mlp_b2):
            bias.data[:] = 0.3 * rng.standard_normal(bias.shape)
        cond = GuidanceCondition(tau_style=unit_rows(rng, 1, self.DIM), tau_category=unit_rows(rng, 1, self.DIM))
        return rng, params, cond

    @pytest.mark.parametrize("seed", [0, 7])
    def test_sample_matches_reference_loop(self, seed):
        """The folded reverse step reassociates sums: equal to the layered loop within rounding."""
        _, params, cond = self.parts(30 + seed)
        schedule = DiffusionSchedule.make(self.STEPS)
        for n in (1, 64):
            out = sample(n, cond, schedule, params, seed=seed)
            np.testing.assert_allclose(out, reference_sample(n, cond, schedule, params, seed), rtol=0, atol=1e-10)

    def test_integer_timestep_equals_one_per_row(self):
        """Output and all nine gradients, to the bit."""
        rng, params, cond = self.parts(31)
        z = rng.standard_normal((9, 2))
        eps = rng.standard_normal((9, 2))
        results = []
        for t in (np.full(9, 11), 11, np.int64(11), np.array(11)):
            params.zero_grad()
            loss = noise_regression_loss(predict_noise(params, z, t, cond), eps)
            backward(loss)
            results.append([loss.data] + [p.grad.copy() for p in params.tensors()])
        for other in results[1:]:
            for ref, got in zip(results[0], other):
                assert ref.tobytes() == got.tobytes()

    def test_nan_weight_keeps_the_forward_finite(self):
        rng, params, cond = self.parts(32)
        params.mlp_w1.data[0, 0] = np.nan
        z = rng.standard_normal((6, 2))
        out = predict_noise(params, z, 4, cond).data
        assert np.isfinite(out).all()
        expected = reference_forward(params, z, np.full(6, 4), cond, np.zeros(6, dtype=int))[2]
        assert out.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n", [1, 7, 9, 33, 100])
    def test_relu_is_np_where_to_the_bit(self, n):
        """Signed zeros and NaNs of either sign included, at every offset of a vector loop."""
        x = np.random.default_rng(n).standard_normal((n, 3))
        specials = [-0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf]
        x.ravel()[::2] = np.resize(specials, x.ravel()[::2].shape)
        expected = np.where(x > 0, x, 0.0)
        assert diffusion_mod._relu_(x).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("steps", [5, 30])
    def test_schedule_of_another_length_rejected(self, steps):
        _, params, cond = self.parts(33)
        for n in (0, 4):
            with pytest.raises(ShapeError, match=f"schedule has {steps} steps but the denoiser embeds 20"):
                sample(n, cond, DiffusionSchedule.make(steps), params)
        rng = np.random.default_rng(34)
        state = rng.bit_generator.state
        with pytest.raises(ShapeError, match=f"schedule has {steps} steps but the denoiser embeds 20"):
            ddpm_train_step(np.zeros((4, 2)), np.zeros(4, dtype=int), cond, DiffusionSchedule.make(steps),
                            params, rng)
        assert rng.bit_generator.state == state  # refused before drawing anything


class TestReverseBuffers:
    """``predict_noise`` into the workspace ``sample`` builds once per call: the folded forward."""

    DIM = 8
    STEPS = 20
    parts = TestReverseStep.parts

    def forwards(self, params, cond, z, t):
        """(plain, buffered) estimates at one timestep; the buffered one lies in its workspace's ``out``."""
        buffers = diffusion_mod._ReverseBuffers(params, cond, len(z))
        with no_grad():
            plain = predict_noise(params, z, t, cond).data
            buffered = predict_noise(params, z, t, cond, buffers=buffers).data
        assert np.shares_memory(buffered, buffers.out)
        return plain, buffered

    @pytest.mark.parametrize("nan_at", [None, "mlp_w1", "in_w", "time_embed"])
    @pytest.mark.parametrize("n", [1, 7, 64])
    @pytest.mark.parametrize("t", [0, 5, STEPS - 1])
    def test_buffered_forward_matches_plain(self, t, n, nan_at):
        """Within the fold's rounding; a NaN weight or time row still gives the plain, finite estimate."""
        rng, params, cond = self.parts(40 + n)
        if nan_at is not None:
            getattr(params, nan_at).data[t if nan_at == "time_embed" else 0, 0] = np.nan
        z = rng.standard_normal((n, 2))
        plain, buffered = self.forwards(params, cond, z, t)
        assert np.isfinite(buffered).all()
        np.testing.assert_allclose(buffered, plain, rtol=1e-12, atol=1e-12)
        layered = reference_forward(params, z, np.full(n, t), cond, np.zeros(n, dtype=int))[2]
        assert plain.tobytes() == layered.tobytes()

    @pytest.mark.parametrize("nan_weight", [False, True])
    @pytest.mark.parametrize("n", [1, 7, 64])
    @pytest.mark.parametrize("t", [0, 5, STEPS - 1])
    def test_buffered_forward_equals_plain_to_the_bit(self, t, n, nan_weight):
        """Dyadic weights and points, one-hot conditions: every sum is exact, so the fold is the same function."""
        rng = np.random.default_rng(50 + n)
        params = DenoiserParams.init(dim=self.DIM, steps=self.STEPS)
        for p in params.tensors():
            p.data[...] = rng.integers(-8, 9, p.shape) / 8
        if nan_weight:
            params.mlp_w1.data[0, 0] = np.nan
        one_hot = np.eye(self.DIM)
        cond = GuidanceCondition(tau_style=one_hot[[2]], tau_category=one_hot[[5]])
        z = rng.integers(-16, 17, (n, 2)) / 4
        plain, buffered = self.forwards(params, cond, z, t)
        assert np.isfinite(buffered).all()
        assert buffered.tobytes() == plain.tobytes()

    def test_misuse_rejected(self):
        rng, params, cond = self.parts(41)
        buffers = diffusion_mod._ReverseBuffers(params, cond, 5)
        z = rng.standard_normal((5, 2))
        other_params = DenoiserParams.init(dim=self.DIM, steps=self.STEPS, seed=41)
        equal_cond = GuidanceCondition(tau_style=cond.tau_style.copy(), tau_category=cond.tau_category.copy())
        with pytest.raises(RuntimeError, match="no_grad"):
            predict_noise(params, z, 3, cond, buffers=buffers)
        with no_grad():
            with pytest.raises(ValueError, match="another denoiser or condition"):
                predict_noise(other_params, z, 3, cond, buffers=buffers)
            with pytest.raises(ValueError, match="another denoiser or condition"):
                predict_noise(params, z, 3, equal_cond, buffers=buffers)
            with pytest.raises(ValueError, match="no cond_idx"):
                predict_noise(params, z, 3, cond, np.zeros(5, dtype=int), buffers=buffers)
            for shape in ((4, 2), (6, 2), (5, 3), (10,), (5, 1, 2)):
                with pytest.raises(ShapeError, match=r"workspace's \(5, 2\) points"):
                    predict_noise(params, np.zeros(shape), 3, cond, buffers=buffers)
            for t in (-1, self.STEPS, 2.0, True, np.array([0, 1])):
                with pytest.raises(ShapeError, match="t_idx"):
                    predict_noise(params, z, t, cond, buffers=buffers)

    def test_every_step_writes_one_buffer(self, monkeypatch):
        """One workspace per ``sample`` call: no step allocates its own output."""
        _, params, cond = self.parts(42)
        calls = []
        real_predict = diffusion_mod.predict_noise

        def capturing_predict(*args, **kwargs):
            out = real_predict(*args, **kwargs)
            calls.append((kwargs.get("buffers"), out.data))
            return out

        monkeypatch.setattr(diffusion_mod, "predict_noise", capturing_predict)
        z = sample(6, cond, DiffusionSchedule.make(self.STEPS), params, seed=3)
        assert len(calls) == self.STEPS
        buffers, first = calls[0]
        assert buffers is not None and np.shares_memory(first, buffers.out)
        for step_buffers, out in calls:
            assert step_buffers is buffers and np.shares_memory(out, first)
        assert z.shape == (6, 2) and z.flags.c_contiguous
        workspace = [v for v in vars(buffers).values() if isinstance(v, np.ndarray)]
        assert len(workspace) >= 8 and not any(np.shares_memory(z, b) for b in workspace)

    def test_sample_allocates_only_its_workspace_and_result(self):
        """A 20-step sample at n = 1000, D = 32 raises the traced peak by its workspace, its fresh
        (n, 2) result and under 8 KiB: no step allocates (n, D) rows or keeps what it allocates."""
        dim, n = 32, 1000
        rng = np.random.default_rng(45)
        params = DenoiserParams.init(dim=dim, steps=self.STEPS, seed=45)
        cond = GuidanceCondition(tau_style=unit_rows(rng, 1, dim), tau_category=unit_rows(rng, 1, dim))
        schedule = DiffusionSchedule.make(self.STEPS)
        sample(2, cond, schedule, params)  # first call outside the trace
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            workspace = diffusion_mod._ReverseBuffers(params, cond, n)
            held = tracemalloc.get_traced_memory()[0] - before
            del workspace
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            sample(n, cond, schedule, params, seed=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert held >= 2 * n * dim * 8
        assert peak - before <= held + n * 2 * 8 + 8 * 1024

    def test_workspace_points_equal_an_outside_copy(self):
        """``buffers.z`` is read in place; any other array of its shape is copied in, to the same bits."""
        rng, params, cond = self.parts(46)
        z = rng.standard_normal((9, 2))
        buffers = diffusion_mod._ReverseBuffers(params, cond, len(z))
        with no_grad():
            outside = predict_noise(params, z, 4, cond, buffers=buffers).data.copy()
            assert np.array_equal(buffers.z, z)
            inside = predict_noise(params, buffers.z, 4, cond, buffers=buffers).data
        assert inside.tobytes() == outside.tobytes()
        assert np.array_equal(buffers.z, z)

    def test_reverse_step_allocates_no_rows(self):
        """20 buffered steps at n = 1000, D = 32 raise the traced peak by under 8 KiB, not by (n, D) rows."""
        dim, n = 32, 1000
        rng = np.random.default_rng(43)
        params = DenoiserParams.init(dim=dim, steps=self.STEPS, seed=43)
        cond = GuidanceCondition(tau_style=unit_rows(rng, 1, dim), tau_category=unit_rows(rng, 1, dim))
        buffers = diffusion_mod._ReverseBuffers(params, cond, n)
        z = rng.standard_normal((n, 2))
        with no_grad():
            predict_noise(params, z, 0, cond, buffers=buffers)  # first call outside the trace
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                for t in range(self.STEPS - 1, -1, -1):
                    predict_noise(params, z, t, cond, buffers=buffers)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak - before < 8 * 1024

    def test_buffered_forward_leaves_z_unchanged(self):
        """The points are copied into the workspace, never written or aliased."""
        rng, params, cond = self.parts(44)
        z = rng.standard_normal((7, 2))
        expected = z.copy()
        buffers = diffusion_mod._ReverseBuffers(params, cond, len(z))
        with no_grad():
            for t in (self.STEPS - 1, 0):
                out = predict_noise(params, z, t, cond, buffers=buffers).data
                assert z.tobytes() == expected.tobytes()
        assert not any(np.shares_memory(z, b) for b in (out, buffers.z1, buffers.hidden))


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

    @pytest.mark.parametrize("seed", [0, 7, 23])
    def test_closed_form_labels_equal_the_einsum(self, seed):
        """The written-out 2 x 2 quadratic form labels every point as the three-operand einsum does."""
        mix = build_mixture(SyntheticSpec())
        rng = np.random.default_rng([seed, 15])
        ks, kc = mix.n_styles, mix.n_categories
        means = mix.means.reshape(ks * kc, 2)
        near = means[rng.integers(0, ks * kc, 2000)] + 0.5 * rng.standard_normal((2000, 2))
        pts = np.concatenate([rng.uniform(-4, 4, size=(1000, 2)), near])
        diff = pts[:, None, :] - means[None, :, :]
        best = np.einsum("nki,kij,nkj->nk", diff, mix.inv_covs.reshape(ks * kc, 2, 2), diff).argmin(axis=1)
        s_hat, c_hat = oracle_classify_batch(pts, mix)
        assert np.array_equal(s_hat, best // kc) and np.array_equal(c_hat, best % kc)

    def test_points_of_another_width_rejected(self):
        with pytest.raises(ShapeError, match=r"\(n, 2\)"):
            oracle_classify_batch(np.zeros((5, 3)), build_mixture(SyntheticSpec()))

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
