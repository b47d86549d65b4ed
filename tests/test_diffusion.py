"""Guided diffusion: the fused denoiser, condition building, training, sampling, oracle."""

import contextlib
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
from stylecat.captions import CategoryLexicon
from stylecat.datagen import DatasetError, SyntheticSpec, build_mixture, generate_diffusion_dataset
from stylecat.diffusion import (
    DenoiserParams,
    DiffusionSchedule,
    GuidanceCondition,
    condition_for_caption,
    ddpm_train_step,
    oracle_classify_batch,
    predict_noise,
    sample,
)
from stylecat.losses import ConfigError
from stylecat.tensor import ShapeError, Tensor, backward, finite_diff_grad, no_grad, relative_error
from stylecat.train import TrainConfig, fresh_bundle, train_diffusion

import layered_ops
from layered_ops import noise_regression_loss


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
    """Gradients of the mean squared noise error, each row gather scattered back with np.add.at.

    ``in_w`` and ``in_b`` come from the step's own GEMM, ``[z | 1].T @ g_a``,
    since a kernel may order the sum of ``g_a.sum(axis=0)`` otherwise; the
    other seven are computed independently, and ``gradcheck`` audits all nine."""
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
    first = np.vstack([z.T, np.ones(len(z))]) @ g_a
    return {"time_embed": g_time, "in_w": first[:-1], "in_b": first[-1],
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

    def test_caption_is_split_by_the_bundles_lexicon(self, world, monkeypatch):
        """The bundle builds its category names' lexicon once; a condition builds none of its own."""
        spec, _, bundle = world
        assert bundle.lexicon == spec.lexicon
        expected = condition_for_caption(spec.caption(1, 2), bundle, 0.1)

        def refuse(cls, words):
            raise AssertionError("condition_for_caption built a lexicon")

        monkeypatch.setattr(CategoryLexicon, "from_words", classmethod(refuse))
        got = condition_for_caption(spec.caption(1, 2), bundle, 0.1)
        assert np.array_equal(got.tau_style, expected.tau_style)
        assert np.array_equal(got.tau_category, expected.tau_category)

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


def step_draws(points, cond_idx, schedule, rng):
    """``ddpm_train_step``'s draws of a batch as large as the run, its point indices, then its timesteps,
    then its noise, and the noised batch: (t, z_t, eps, the batch's condition indices)."""
    rows = rng.integers(0, len(points), size=len(points))
    t = rng.integers(0, schedule.steps, size=len(points))
    eps = rng.standard_normal((len(points), 2))
    ab = schedule.alpha_bars[t][:, None]
    return t, np.sqrt(ab) * points[rows] + np.sqrt(1.0 - ab) * eps, eps, cond_idx[rows]


def workspace(points, cond_idx, condition, schedule, params):
    """The training workspace of a run on these points, with batches as large as the run."""
    return diffusion_mod._TrainBuffers(schedule, params, condition, points, cond_idx, len(points))


def one_step(points, cond_idx, condition, schedule, params, rng):
    """``ddpm_train_step`` on a workspace built for this one run."""
    return ddpm_train_step(workspace(points, cond_idx, condition, schedule, params), rng)


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
        loss = one_step(xy, cond_idx, conditions, schedule, params, rng)
        assert abs(loss - 2.0) < 0.2

    def test_gradcheck_small_params(self, world):
        spec, config, bundle = world
        rng = np.random.default_rng(11)
        params = DenoiserParams.init(dim=8, steps=6, seed=5)
        cond = GuidanceCondition(tau_style=unit_rows(rng, 1, 8), tau_category=unit_rows(rng, 1, 8))
        z_t = rng.standard_normal((3, 2))
        t_idx = rng.integers(0, 6, 3)
        eps = rng.standard_normal((3, 2))
        loss_fn = lambda _: noise_regression_loss(layered_ops.predict_noise(params, z_t, t_idx, cond), eps)
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
        loss_fn = lambda _: noise_regression_loss(layered_ops.predict_noise(params, z_t, t_idx, conds, cond_idx), eps)
        params.zero_grad()
        backward(loss_fn(None))
        expected = reference_grads(params, z_t, t_idx, conds, cond_idx, eps)
        for name, p in zip(params.arrays(), params.tensors()):
            assert np.array_equal(p.grad, expected[name]), name
        for p in (params.time_embed, params.ws, params.wv):
            assert relative_error(p.grad, finite_diff_grad(loss_fn, p)) < 1e-6

    def test_one_step_returns_a_float_with_or_without_a_workspace(self, world):
        """The step returns its loss as a float, and the same loss and gradient bytes on a new workspace
        as on one that a step of other draws has used: a workspace carries nothing between steps."""
        spec, config, bundle = world
        points, _ = generate_diffusion_dataset(spec, n_per_cell=4)
        captions = list(dict.fromkeys(p.caption for p in points))
        conditions = GuidanceCondition.stack([condition_for_caption(c, bundle, 0.1) for c in captions])
        xy = np.array([[p.x, p.y] for p in points])
        cond_idx = np.array([captions.index(p.caption) for p in points])
        params = DenoiserParams.init(dim=config.dim, steps=20, seed=0)
        schedule = DiffusionSchedule.make(20)
        used = workspace(xy, cond_idx, conditions, schedule, params)
        ddpm_train_step(used, np.random.default_rng(15))
        results = []
        for buffers in (workspace(xy, cond_idx, conditions, schedule, params), used):
            loss = ddpm_train_step(buffers, np.random.default_rng(16))
            assert type(loss) is float
            results.append((loss, params.flat_grad.tobytes()))
        assert results[0] == results[1]

    def test_backward_fills_the_flat_gradient(self):
        """After one step, ``flat_grad`` holds the nine reference gradients in field order."""
        rng = np.random.default_rng(18)
        params = DenoiserParams.init(dim=8, steps=6, seed=3)
        cond = GuidanceCondition(tau_style=unit_rows(rng, 3, 8), tau_category=unit_rows(rng, 3, 8))
        points = rng.standard_normal((9, 2))
        cond_idx = np.array([0, 2, 1, 1, 0, 2, 2, 0, 1])
        schedule = DiffusionSchedule.make(6)
        one_step(points, cond_idx, cond, schedule, params, np.random.default_rng(19))
        t, z_t, eps, batch_cond = step_draws(points, cond_idx, schedule, np.random.default_rng(19))
        expected = reference_grads(params, z_t, t, cond, batch_cond, eps)
        assert np.array_equal(params.flat_grad, np.concatenate([expected[name].ravel() for name in params.arrays()]))

    def test_step_overwrites_the_flat_gradient(self):
        """A step writes every gradient: after one into a NaN-filled ``flat_grad``, its bytes are a fresh step's."""
        params, cond, schedule, points, cond_idx = self.step_parts()
        results = []
        for fill in (np.nan, 0.0):
            params.flat_grad[:] = fill
            loss = one_step(points, cond_idx, cond, schedule, params, np.random.default_rng(35))
            results.append((loss, params.flat_grad.tobytes()))
        assert results[0] == results[1]
        assert not np.isnan(params.flat_grad).any()

    def test_dead_relu_units_leave_no_negative_zero(self, monkeypatch):
        """With hidden units dead on the batch, the step's gradient bytes equal ``zero_grad`` and
        ``backward`` through the two-node reference, whose add into zeros turns any -0.0 into +0.0;
        also when the gradient body writes every zero as -0.0."""
        params, cond, schedule, points, cond_idx = self.step_parts(rows=1, groups=1, seed=36)
        params.mlp_b1.data[::2] = -50.0  # every other hidden unit is dead
        params.mlp_w2.data[:] = np.abs(params.mlp_w2.data)
        params.mlp_b2.data[:] = -50.0  # the estimate is far below the noise: its gradient is negative
        t, z_t, eps, batch_cond = step_draws(points, cond_idx, schedule, np.random.default_rng(37))
        params.zero_grad()
        backward(noise_regression_loss(layered_ops.predict_noise(params, z_t, t, cond, batch_cond), eps))
        reference = params.flat_grad.tobytes()
        assert (params.mlp_b1.grad[::2] == 0).all() and not np.signbit(params.flat_grad[params.flat_grad == 0]).any()
        real_grads = diffusion_mod._TrainBuffers._grads

        def negative_zeros(self, g):
            real_grads(self, g)
            for x in self.grads:
                np.copysign(x, -1.0, out=x, where=x == 0)

        for patch in (False, True):
            if patch:
                monkeypatch.setattr(diffusion_mod._TrainBuffers, "_grads", negative_zeros)
            params.flat_grad[:] = np.nan
            one_step(points, cond_idx, cond, schedule, params, np.random.default_rng(37))
            assert params.flat_grad.tobytes() == reference

    def step_parts(self, rows=6, groups=3, steps=6, seed=30):
        rng = np.random.default_rng(seed)
        params = DenoiserParams.init(dim=8, steps=steps, seed=seed)
        cond = GuidanceCondition(tau_style=unit_rows(rng, groups, 8), tau_category=unit_rows(rng, groups, 8))
        return params, cond, DiffusionSchedule.make(steps), rng.standard_normal((rows, 2)), np.arange(rows) % groups

    @pytest.mark.parametrize("n", [3], ids=["workspace"])
    @pytest.mark.parametrize("shape", [(2,), (3,), (3, 3), (3, 1), (0, 2), (3, 2, 1), (2, 2)])
    def test_malformed_points_refused_before_drawing(self, shape, n):
        """The workspace holds N rows of two coordinates and their N condition indices: a (2,) vector
        would broadcast into a (2, 2) batch, and two points cannot take the three indices given.
        Refused when the workspace is built, before any step; no gradient is written."""
        params, cond, schedule, _, cond_idx = self.step_parts(rows=n)
        with pytest.raises(ShapeError, match="points must be N >= 1 rows of 2|cond_idx must be 2 integers"):
            diffusion_mod._TrainBuffers(schedule, params, cond, np.zeros(shape), cond_idx, n)
        assert not params.flat_grad.any()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "minus-inf"])
    def test_non_finite_points_refused_before_drawing(self, bad):
        """A NaN or infinite coordinate would leave the loss finite and poison two gradients: it is a
        ``DatasetError`` that names the first such point when the workspace is built, before any
        step; no gradient is written, and later changes to the caller's array reach no step."""
        params, cond, schedule, points, cond_idx = self.step_parts()
        bad_points = points.copy()
        bad_points[4, 1] = bad_points[5, 0] = bad
        with pytest.raises(DatasetError, match=r"diffusion point 4 is not finite"):
            diffusion_mod._TrainBuffers(schedule, params, cond, bad_points, cond_idx, 2)
        assert not params.flat_grad.any()
        buffers = diffusion_mod._TrainBuffers(schedule, params, cond, points, cond_idx, 2)
        points[:] = bad
        cond_idx[:] = 99
        assert np.isfinite(ddpm_train_step(buffers, np.random.default_rng(38)))
        assert np.isfinite(params.flat_grad).all()

    def test_malformed_cond_idx_refused_before_drawing(self):
        """The workspace checks its condition indices once: N integers in range, with no missing form."""
        params, cond, schedule, points, cond_idx = self.step_parts()
        for bad in (cond_idx + 1, cond_idx - 1, cond_idx[:5], cond_idx.astype(float), None):
            with pytest.raises(ShapeError, match=r"cond_idx must be 6 integers in \[0, 3\)"):
                diffusion_mod._TrainBuffers(schedule, params, cond, points, bad, 6)
        assert not params.flat_grad.any()

    def test_step_loss_refuses_a_backward(self):
        """The loss is a float, not a parentless tensor, so a leftover ``backward`` fails loudly, not silently."""
        params, cond, schedule, points, cond_idx = self.step_parts()
        loss = one_step(points, cond_idx, cond, schedule, params, np.random.default_rng(32))
        written = params.flat_grad.tobytes()
        with pytest.raises(AttributeError):
            backward(loss)
        assert params.flat_grad.any() and params.flat_grad.tobytes() == written

    def test_workspace_checks_its_run_once(self):
        """The batch size, the schedule and the condition are checked when the workspace is built."""
        params, cond, schedule, points, cond_idx = self.step_parts()
        rng = np.random.default_rng(34)
        with pytest.raises(ShapeError, match="schedule has 7 steps but the denoiser embeds 6"):
            diffusion_mod._TrainBuffers(DiffusionSchedule.make(7), params, cond, points, cond_idx, 6)
        with pytest.raises(TypeError, match="one GuidanceCondition"):
            diffusion_mod._TrainBuffers(schedule, params, [cond], points, cond_idx, 6)
        narrow = GuidanceCondition(tau_style=unit_rows(rng, 3, 4), tau_category=unit_rows(rng, 3, 4))
        with pytest.raises(ShapeError, match="width"):
            diffusion_mod._TrainBuffers(schedule, params, narrow, points, cond_idx, 6)
        with pytest.raises(ShapeError, match="n >= 1 rows, got 0"):
            diffusion_mod._TrainBuffers(schedule, params, cond, points, cond_idx, 0)


def per_caption_step(points, cond_idx, condition, schedule, params, rng):
    """Reference objective: one denoiser forward per caption group, summed.

    Draws the batch, then t, then the noise exactly as ``ddpm_train_step`` does.
    """
    t, z_t, eps, batch_cond = step_draws(points, cond_idx, schedule, rng)
    parts = []
    for g in np.unique(batch_cond):
        sel = np.flatnonzero(batch_cond == g)
        own = GuidanceCondition(tau_style=condition.tau_style[g], tau_category=condition.tau_category[g])
        group_loss = noise_regression_loss(layered_ops.predict_noise(params, z_t[sel], t[sel], own), eps[sel])
        parts.append(T.scale(group_loss, len(sel) / len(points)))
    return reduce(layered_ops.add, parts)


def loss_and_grads(step_fn, params, *args):
    """The loss and the nine gradients: through ``backward`` for a tape reference, and as the fused
    step, which returns a float, leaves them in ``flat_grad``."""
    params.zero_grad()
    loss = step_fn(*args)
    if isinstance(loss, Tensor):
        backward(loss)
    return float(loss), [p.grad.copy() for p in params.tensors()]


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
        loss, grads = loss_and_grads(one_step, params, *args, np.random.default_rng(21))
        ref_loss, ref_grads = loss_and_grads(per_caption_step, params, *args, np.random.default_rng(21))
        assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
        for p, g, ref in zip(params.tensors(), grads, ref_grads):
            assert relative_error(g, ref) <= 1e-12, p

    def test_one_row_needs_no_condition_index(self):
        """The layered forward gives a one-row condition's missing indices as n zeros: the same output to
        the bit; the training workspace takes indices always (``test_malformed_cond_idx_refused_before_drawing``)."""
        rng = np.random.default_rng(22)
        params = DenoiserParams.init(dim=self.DIM, steps=self.STEPS, seed=6)
        cond = self.conditions(rng, 1)
        z = rng.standard_normal((9, 2))
        t = rng.integers(0, self.STEPS, 9)
        outs = [predict_noise(params, z, t, cond, cond_idx=cond_idx).data for cond_idx in (None, np.zeros(9, int))]
        assert outs[0].tobytes() == outs[1].tobytes()

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
        ((3, 2), True),                     # one scalar timestep for every row: n are required,
        ((3, 2), -1),
        ((3, 2), STEPS),
        ((3, 2), 2.0),
        ((3, 2), 3),                        # even one in range
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

    def test_non_finite_point_is_a_dataset_error(self, world, monkeypatch):
        """Refused once, by the run's workspace, before the first step draws anything."""
        spec, config, bundle = world
        points, _ = generate_diffusion_dataset(spec, n_per_cell=4)
        points[5] = replace(points[5], x=float("nan"))

        def never(*args):
            raise AssertionError("train_diffusion stepped on a non-finite point")

        monkeypatch.setattr(train_mod, "ddpm_train_step", never)
        with pytest.raises(DatasetError, match="diffusion point 5 is not finite"):
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
        """Every step gets the one workspace built before the loop, which holds the one stacked condition."""
        spec, config, bundle = world
        points, _ = generate_diffusion_dataset(spec, n_per_cell=4)
        seen = []
        real_step = train_mod.ddpm_train_step

        def recording_step(buffers, *args):
            seen.append(buffers)
            return real_step(buffers, *args)

        monkeypatch.setattr(train_mod, "ddpm_train_step", recording_step)
        train_diffusion(replace(config, diffusion_steps=3, diffusion_batch=32, timesteps=20), points, bundle)
        assert len(seen) == 3 and all(buffers is seen[0] for buffers in seen)
        cond = seen[0].cond
        assert isinstance(cond, GuidanceCondition)
        assert cond.tau_style.shape == cond.tau_category.shape == (12, config.dim)

    def test_runs_no_backward_and_no_zero_grad(self, world, monkeypatch):
        """A step's gradients come from ``ddpm_train_step`` alone: no tape walk, no zeroing."""
        spec, config, bundle = world
        points, _ = generate_diffusion_dataset(spec, n_per_cell=4)

        def never(*args, **kwargs):
            raise AssertionError("train_diffusion entered backward or zero_grad")

        for owner, name in ((T, "backward"), (T.ParamGroup, "zero_grad"), (T.Tensor, "zero_grad")):
            monkeypatch.setattr(owner, name, never)
        _, _, rows = train_diffusion(replace(config, diffusion_steps=3, diffusion_batch=32, timesteps=20),
                                     points, bundle)
        assert [r["step"] for r in rows] == [0, 2] and all(r["grad_norm"] > 0 for r in rows)

    @pytest.mark.parametrize("seed", [0, 7])
    def test_equals_the_two_node_reference_loop(self, seed):
        """Parameters, loss rows and the last flat gradient equal a loop over the test-side nodes
        ``predict_noise`` and ``noise_regression_loss``, ``backward`` and ``Adam``, to the bit."""
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
        loss = noise_regression_loss(layered_ops.predict_noise(params, z_t, t, conditions, cond_idx[batch]), eps)
        params.zero_grad()
        backward(loss)
        opt.step()
        if step % 100 == 0 or step == config.diffusion_steps - 1:
            rows.append({"step": step, "loss": loss.item(), "grad_norm": float(np.linalg.norm(params.flat_grad))})
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
        for n in (0, 3):  # a negative seed is named by the sampler, not left to numpy's seeding
            with pytest.raises(ValueError, match=r"^sample: seed must be >= 0, got -1$"):
                sample(n, cond, schedule, params, seed=-1)

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


class TestFirstLayer:
    """The layered forward's input layer and its bias are one GEMM, ``[z | 1] @ [in_w; in_b]``, and so
    are their gradients, ``[z | 1].T @ g_a``."""

    @pytest.mark.parametrize("dim", [8, 32, 64])
    @pytest.mark.parametrize("n", [1, 2, 7, 256, 1000, 4096])
    def test_ones_column_gemm_equals_matmul_plus_bias(self, n, dim):
        """To the bit, because the BLAS adds the ones column's term last; and so are the whole forward
        and the two gradients, against ``z.T @ g_a`` and the column sums."""
        rng = np.random.default_rng(n)
        params = DenoiserParams.init(dim=dim, steps=10, seed=n)
        for bias in (params.in_b, params.mlp_b1, params.mlp_b2):
            bias.data[:] = rng.standard_normal(bias.shape)
        cond = GuidanceCondition(tau_style=unit_rows(rng, 3, dim), tau_category=unit_rows(rng, 3, dim))
        layers = diffusion_mod._LayeredBuffers(params, cond, n)
        z = 3.0 * rng.standard_normal((n, 2))
        layers.z[...] = z
        expected = z @ params.in_w.data
        expected += params.in_b.data
        assert np.matmul(layers.z1.T, layers.first).tobytes() == expected.tobytes()
        t, cond_idx = rng.integers(0, 10, n), rng.integers(0, 3, n)
        out = predict_noise(params, z, t, cond, cond_idx).data
        assert out.tobytes() == reference_forward(params, z, t, cond, cond_idx)[2].tobytes()
        g_a = rng.standard_normal((n, dim))
        expected = np.vstack([z.T @ g_a, g_a.sum(axis=0)])
        assert np.matmul(layers.z1, g_a).tobytes() == expected.tobytes()

    def test_operands_are_the_flat_views_of_in_w_then_in_b(self):
        """A reordering of the ``DenoiserParams`` fields that parts ``in_w`` from ``in_b`` fails here."""
        rng = np.random.default_rng(40)
        params = DenoiserParams.init(dim=8, steps=5, seed=40)
        cond = GuidanceCondition(tau_style=unit_rows(rng, 1, 8), tau_category=unit_rows(rng, 1, 8))
        buffers = diffusion_mod._TrainBuffers(DiffusionSchedule.make(5), params, cond, np.zeros((3, 2)), [0] * 3, 3)
        others = [p for name, p in zip(params.arrays(), params.tensors()) if name not in ("in_w", "in_b")]
        params.flat[:] = np.arange(params.flat.size)
        params.flat_grad[:] = -np.arange(params.flat.size)
        for rows, attr in ((buffers.first, "data"), (buffers.g_first, "grad")):
            in_w, in_b = getattr(params.in_w, attr), getattr(params.in_b, attr)
            assert rows.shape == (3, 8) and np.shares_memory(rows, in_w) and np.shares_memory(rows, in_b)
            assert not any(np.shares_memory(rows, getattr(p, attr)) for p in others)
            assert np.array_equal(rows[:2], in_w) and np.array_equal(rows[2], in_b)


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

    def test_nan_weight_keeps_the_forward_finite(self):
        rng, params, cond = self.parts(32)
        params.mlp_w1.data[0, 0] = np.nan
        z = rng.standard_normal((6, 2))
        out = predict_noise(params, z, np.full(6, 4), cond).data
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
        assert diffusion_mod._relu_(x, np.zeros_like(x)).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("steps", [5, 30])
    def test_schedule_of_another_length_rejected(self, steps):
        _, params, cond = self.parts(33)
        for n in (0, 4):
            with pytest.raises(ShapeError, match=f"schedule has {steps} steps but the denoiser embeds 20"):
                sample(n, cond, DiffusionSchedule.make(steps), params)
        with pytest.raises(ShapeError, match=f"schedule has {steps} steps but the denoiser embeds 20"):
            diffusion_mod._TrainBuffers(DiffusionSchedule.make(steps), params, cond, np.zeros((4, 2)), [0] * 4, 4)


class TestReverseBuffers:
    """``predict_noise`` into the workspace ``sample`` builds once per call: the folded forward."""

    DIM = 8
    STEPS = 20
    parts = TestReverseStep.parts

    def forwards(self, params, cond, z, t):
        """(plain, buffered) estimates at one timestep; the buffered one lies in its workspace's ``out``."""
        buffers = diffusion_mod._ReverseBuffers(params, cond, len(z))
        buffers.z[...] = z
        plain = predict_noise(params, z, np.full(len(z), t), cond).data
        buffered = predict_noise(params, buffers.z, t, cond, buffers=buffers).data
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
        buffers.z[...] = rng.standard_normal((5, 2))
        z = buffers.z
        other_params = DenoiserParams.init(dim=self.DIM, steps=self.STEPS, seed=41)
        equal_cond = GuidanceCondition(tau_style=cond.tau_style.copy(), tau_category=cond.tau_category.copy())
        with pytest.raises(ValueError, match="another denoiser or condition"):
            predict_noise(other_params, z, 3, cond, buffers=buffers)
        with pytest.raises(ValueError, match="another denoiser or condition"):
            predict_noise(params, z, 3, equal_cond, buffers=buffers)
        with pytest.raises(ValueError, match="no cond_idx"):
            predict_noise(params, z, 3, cond, np.zeros(5, dtype=int), buffers=buffers)
        for t in (-1, self.STEPS, 2.0, True, np.int64(3), np.array(3), np.array([0, 1])):
            with pytest.raises(ShapeError, match=r"t_idx must be one plain int in \[0, 20\)"):
                predict_noise(params, z, t, cond, buffers=buffers)

    def test_both_forms_return_a_parentless_tensor(self):
        """Neither form records a tape node, in grad mode or under ``no_grad``, and neither raises."""
        rng, params, cond = self.parts(47)
        buffers = diffusion_mod._ReverseBuffers(params, cond, 5)
        buffers.z[...] = rng.standard_normal((5, 2))
        for grad_mode in (True, False):
            with contextlib.nullcontext() if grad_mode else no_grad():
                for out in (predict_noise(params, buffers.z.copy(), np.full(5, 3), cond),
                            predict_noise(params, buffers.z, 3, cond, buffers=buffers)):
                    assert type(out) is Tensor and out.shape == (5, 2)
                    assert out._parents == () and out._grad_fn is None and not out.requires_grad

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

    def test_points_other_than_the_workspace_z_refused(self):
        """The buffered forward reads ``buffers.z`` in place and takes no other points: an equal copy,
        another view of the same rows and an array of another shape are refused, and the refusal
        writes neither the points, the outside array nor the output."""
        rng, params, cond = self.parts(46)
        buffers = diffusion_mod._ReverseBuffers(params, cond, 9)
        buffers.z[...] = rng.standard_normal((9, 2))
        out = predict_noise(params, buffers.z, 4, cond, buffers=buffers).data
        expected_z, expected_out = buffers.z.tobytes(), out.tobytes()
        for outside in (buffers.z.copy(), buffers.z1[:2].T, rng.standard_normal((9, 2)), np.zeros((9, 3))):
            before = outside.tobytes()
            with pytest.raises(ValueError, match=r"z_t must be the workspace's own points, buffers\.z"):
                predict_noise(params, outside, 4, cond, buffers=buffers)
            assert outside.tobytes() == before
            assert buffers.z.tobytes() == expected_z and out.tobytes() == expected_out

    def test_reverse_step_allocates_no_rows(self):
        """20 buffered steps at n = 1000, D = 32 raise the traced peak by under 8 KiB, not by (n, D) rows."""
        dim, n = 32, 1000
        rng = np.random.default_rng(43)
        params = DenoiserParams.init(dim=dim, steps=self.STEPS, seed=43)
        cond = GuidanceCondition(tau_style=unit_rows(rng, 1, dim), tau_category=unit_rows(rng, 1, dim))
        buffers = diffusion_mod._ReverseBuffers(params, cond, n)
        buffers.z[...] = rng.standard_normal((n, 2))
        z = buffers.z
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
        """The workspace points are read in place, never written, and no output buffer aliases them."""
        rng, params, cond = self.parts(44)
        buffers = diffusion_mod._ReverseBuffers(params, cond, 7)
        buffers.z[...] = rng.standard_normal((7, 2))
        expected = buffers.z.tobytes()
        for t in (self.STEPS - 1, 0):
            out = predict_noise(params, buffers.z, t, cond, buffers=buffers).data
            assert buffers.z.tobytes() == expected
        assert not any(np.shares_memory(buffers.z, b) for b in (out, buffers.hidden, buffers.noise))


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

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_point_rejected(self, value):
        """A NaN point's distances are all NaN, and their argmin would label it cell (0, 0)."""
        pts = np.zeros((5, 2))
        pts[3, 1], pts[4, 0] = value, value
        with pytest.raises(ValueError, match="point 3 is not finite"):
            oracle_classify_batch(pts, build_mixture(SyntheticSpec()))

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
