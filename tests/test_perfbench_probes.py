"""The benchmark's probes still find the program functions they patch.

``perfbench`` patches functions by module and name. A refactor that renames
or inlines one of them would otherwise fail only when the benchmark runs.
"""

import sys
from pathlib import Path

import pytest

from stylecat import captions, diffusion, train
from stylecat.datagen import SyntheticSpec, generate_classification_dataset, generate_diffusion_dataset

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_probes_find_a_site(name):
    with tracing.step_probes(tracing.StepClock(), WORKLOADS[name].step_targets):
        pass
    with tracing.captured("diffusion", "sample"):
        pass


def test_generate_reads_one_sample_per_cell_and_one_forward_per_step():
    """``generate`` captures ``sample`` per cell and times a step at each ``predict_noise``.

    Batching the cells into one reverse loop, or inlining the forward into
    the sampler, would fail that workload's operations or leave it no steps.
    """
    spec, config = SyntheticSpec(), train.TrainConfig(timesteps=5)
    bundle = train.fresh_bundle(spec, config)
    params = diffusion.DenoiserParams.init(dim=config.dim, steps=config.timesteps)
    schedule = diffusion.DiffusionSchedule.make(config.timesteps)
    clock = tracing.StepClock()
    with tracing.step_probes(clock, WORKLOADS["generate"].step_targets), \
            tracing.captured("diffusion", "sample") as points:
        rows = train.guidance_eval(bundle, params, schedule, spec, alpha=0.1, n_per_cell=3, seed=0)
    cells = spec.n_styles * spec.n_categories
    assert len(rows) == len(points) == cells
    assert len(clock.periods["reverse"]) == cells * schedule.steps - 1  # the first tick starts the clock


def test_diffusion_train_times_one_step_per_ddpm_step():
    """``diffusion-train`` ticks its clock at each entry to ``ddpm_train_step``.

    A step inlined into ``train_diffusion``, or split into several calls,
    would leave that workload with no steps or the wrong number of them.
    """
    spec = SyntheticSpec()
    config = train.TrainConfig(timesteps=5, diffusion_steps=4, diffusion_batch=16)
    bundle = train.fresh_bundle(spec, config)
    points, _ = generate_diffusion_dataset(spec, n_per_cell=2)
    clock = tracing.StepClock()
    with tracing.step_probes(clock, WORKLOADS["diffusion-train"].step_targets):
        train.train_diffusion(config, points, bundle)
    assert list(clock.periods) == ["train"]
    assert len(clock.periods["train"]) == config.diffusion_steps - 1  # the first tick starts the clock


@pytest.mark.parametrize("mode", ["labeled", "unlabeled"])
def test_encoders_times_one_step_per_batch_in_each_mode(mode):
    """``encoders`` ticks its phase's clock at each entry to that phase's style objective.

    An objective that training renames, inlines or calls twice per batch
    would leave the phase with the wrong number of steps.
    """
    spec = SyntheticSpec(n_train=4, n_test=1)
    train_set, _ = generate_classification_dataset(spec)
    config = train.TrainConfig(mode=mode, epochs=2, batch_size=16)
    lexicon = captions.CategoryLexicon.from_words(spec.category_names)
    clock = tracing.StepClock()
    with tracing.step_probes(clock, WORKLOADS["encoders"].step_targets):
        train.train_encoders(config, spec, train_set, lexicon=lexicon)
    batches = -(-len(train_set) // config.batch_size)
    assert batches > 1
    assert list(clock.periods) == [mode]
    assert len(clock.periods[mode]) == config.epochs * batches - 1  # the first tick starts the clock
