"""The three workloads: set-up, one measured pass, output checks, digests.

Every workload uses the default dataset (``SyntheticSpec()``, the one
``stylecat gen-data`` writes with its default seed 0). The workload seed
drives every training, noise and sampling seed the program is given, so the
same seed gives the same inputs and the same outputs.

A pass is the measured phase at the default sizes; the runner repeats it
until the run's time is up. A step is the unit of ``step_ms_*``; its
boundaries are the entries to the one public call made per step, listed in
``step_targets``.
"""

from __future__ import annotations

import hashlib
import os
import sys
import traceback
from dataclasses import dataclass, replace

import numpy as np

# The program is called through its modules' attributes, never through
# names bound here, so that spans and probes patched onto those modules
# also see the benchmark's own calls.
from stylecat import captions, datagen, diffusion, train
from stylecat.tensor import no_grad
from tracing import captured

# The CLI's default dataset. Other data seeds can put labeled test top-1
# below the floor (data seed 10 gives category top-1 0.883), which would make
# a run fail on the dataset drawn rather than on the program.
DATA_SEED = 0
LABELED_TOP1_FLOOR = 0.95
MATCHED_ACC_FLOOR = 0.95


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; the benchmark runs ``Sizes()``, the CLI defaults."""

    train_per_cell: int = 64
    test_per_cell: int = 32
    epochs: int = 30
    batch_size: int = 32
    diffusion_steps: int = 3000
    diffusion_batch: int = 256
    timesteps: int = 200
    points_per_cell: int = 1000


class Ops:
    """Attempted and failed operations; each failure is explained on stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def call(self, label: str, fn, count: int = 1):
        """Run a stage call worth ``count`` operations; None if it raised."""
        self.attempted += count
        try:
            return fn()
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.fail(label, "raised", count)
            return None

    def fail(self, label: str, problem: str, count: int = 1) -> None:
        """Mark ``count`` already attempted operations as failed."""
        self.failed += count
        print(f"FAILED {label}: {problem}", file=sys.stderr)


def digest(parts: dict) -> str:
    """sha256 over named float64 arrays, in name order, shapes included."""
    h = hashlib.sha256()
    for name in sorted(parts):
        arr = np.ascontiguousarray(parts[name], dtype=np.float64)
        h.update(f"{name}{arr.shape}".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def _prefixed(prefix: str, arrays: dict) -> dict:
    return {f"{prefix}.{k}": v for k, v in arrays.items()}


def _bundle_arrays(prefix: str, bundle) -> dict:
    return {**_prefixed(f"{prefix}.style", bundle.style_adapter.arrays()),
            **_prefixed(f"{prefix}.category", bundle.category_adapter.arrays())}


def _finite(values) -> bool:
    return bool(np.all(np.isfinite(np.asarray(values, dtype=np.float64))))


class Workload:
    name = ""
    step_targets: tuple = ()  # (phase, module, function) per kind of step
    # An untraced run sets up twice, then again until the set-ups add up to
    # this many seconds; setup_s is the fastest set-up.
    setup_seconds = 0.0

    def __init__(self, seed: int, workdir: str, sizes: Sizes = Sizes()):
        self.seed = seed
        self.workdir = workdir
        self.sizes = sizes
        self.spec = datagen.SyntheticSpec(n_train=sizes.train_per_cell, n_test=sizes.test_per_cell,
                                          seed=DATA_SEED)
        self.config = train.TrainConfig(
            seed=seed, epochs=sizes.epochs, batch_size=sizes.batch_size,
            diffusion_steps=sizes.diffusion_steps, diffusion_batch=sizes.diffusion_batch,
            timesteps=sizes.timesteps,
        )
        self.quality: dict[str, float] = {}
        self.outputs: dict[str, np.ndarray] = {}
        self.checkpoint_bytes = 0
        self.bundle = None
        self.denoiser = None

    def setup(self) -> None:
        """Build the workload's inputs and models; raises if that fails."""
        raise NotImplementedError

    def check_setup(self, ops: Ops) -> None:
        """Untimed checks of what ``setup`` built."""

    def run_pass(self, ops: Ops, clock) -> int:
        """One measured pass; returns the work items it processed."""
        raise NotImplementedError

    def _top1(self, ops: Ops, bundle, label: str, floor: float | None = None):
        cfg = self.config
        top1 = ops.call(label, lambda: train.evaluate_classification(
            bundle, self.test_set, cfg.alpha_style, cfg.alpha_category, cfg.logit_scale))
        if top1 is not None and floor is not None and min(top1) < floor:
            ops.fail(label, f"test top-1 {top1} below {floor}")
        return top1

    def _labeled_quality(self, ops: Ops, bundle, label: str) -> None:
        top1 = self._top1(ops, bundle, label, LABELED_TOP1_FLOOR)
        if top1 is not None:
            self.quality["style_top1"], self.quality["category_top1"] = top1

    def _train_labeled(self):
        self.train_set, self.test_set = datagen.generate_classification_dataset(self.spec)
        self.points, self.mixture = datagen.generate_diffusion_dataset(self.spec)
        self.bundle = train.train_encoders(self.config, self.spec, self.train_set)[0]


class Encoders(Workload):
    """Labeled then unlabeled adapter training, each evaluated on the test split.

    A step is one optimiser batch. Unlabeled batches take about half as
    long as labeled ones, so the two are separate phases of steps.
    """

    name = "encoders"
    step_targets = (("labeled", "losses", "style_labeled_loss"),
                    ("unlabeled", "losses", "style_triplet_loss"))
    setup_seconds = 3.0  # a set-up takes 10-20 ms

    def setup(self):
        self.train_set, self.test_set = datagen.generate_classification_dataset(self.spec)
        self.lexicon = captions.CategoryLexicon.from_words(self.spec.category_names)

    def run_pass(self, ops, clock):
        clock.cut()
        labeled = ops.call("train_encoders labeled",
                           lambda: train.train_encoders(self.config, self.spec, self.train_set)[0])
        clock.cut()
        unl_config = replace(self.config, mode="unlabeled")
        unlabeled = ops.call("train_encoders unlabeled", lambda: train.train_encoders(
            unl_config, self.spec, self.train_set, lexicon=self.lexicon)[0])
        if labeled is not None:
            self._labeled_quality(ops, labeled, "evaluate labeled")
            self.outputs.update(_bundle_arrays("labeled", labeled))
        if unlabeled is not None:
            top1 = self._top1(ops, unlabeled, "evaluate unlabeled")
            if top1 is not None:
                self.quality["unl_style_top1"], self.quality["unl_category_top1"] = top1
            self.outputs.update(_bundle_arrays("unlabeled", unlabeled))
        return 2 * self.config.epochs * len(self.train_set)


class DiffusionTrain(Workload):
    """Denoiser training on the frozen labeled encoders."""

    name = "diffusion-train"
    step_targets = (("train", "diffusion", "ddpm_train_step"),)
    setup_seconds = 6.0  # a set-up trains the labeled encoders, 2-3.5 s

    def setup(self):
        self._train_labeled()

    def check_setup(self, ops):
        self._labeled_quality(ops, self.bundle, "evaluate labeled")
        self.outputs.update(_bundle_arrays("encoders", self.bundle))

    def run_pass(self, ops, clock):
        clock.cut()
        trained = ops.call("train_diffusion",
                           lambda: train.train_diffusion(self.config, self.points, self.bundle))
        if trained is not None:
            self.denoiser, _, rows = trained
            losses = [r["loss"] for r in rows]
            if not _finite(losses):
                ops.fail("train_diffusion", "non-finite loss")
            self.quality["final_loss"] = losses[-1]
            self.outputs.update(_prefixed("denoiser", self.denoiser.arrays()))
        steps = self.config.diffusion_steps
        return steps * min(self.config.diffusion_batch, len(self.points))


class Generate(Workload):
    """Guided sampling of every cell plus the compositional-swap probe."""

    name = "generate"
    step_targets = (("reverse", "diffusion", "predict_noise"),)
    # Only the two set-ups: each trains the denoiser too, 13-20 s.

    def setup(self):
        self._train_labeled()
        params, _, rows = train.train_diffusion(self.config, self.points, self.bundle)
        path = os.path.join(self.workdir, "model.ckpt")
        train.save_encoder_checkpoint(path, self.bundle, self.config, self.spec, denoiser=params)
        self.checkpoint_bytes = os.path.getsize(path)
        self.trained = {**_bundle_arrays("encoders", self.bundle), **_prefixed("denoiser", params.arrays())}
        self.bundle, _, _, self.denoiser = train.load_encoder_checkpoint(path)
        self.final_loss = rows[-1]["loss"]
        self.schedule = diffusion.DiffusionSchedule.make(self.config.timesteps)

    def check_setup(self, ops):
        loaded = {**_bundle_arrays("encoders", self.bundle), **_prefixed("denoiser", self.denoiser.arrays())}
        ops.attempted += 1  # the reload check
        drift = [k for k, v in self.trained.items()
                 if k not in loaded or not np.array_equal(loaded[k], v.astype(np.float32).astype(np.float64))]
        if drift:
            ops.fail("checkpoint reload", f"arrays differ beyond float32 rounding: {drift}")
        self.outputs.update(loaded)
        self._labeled_quality(ops, self.bundle, "evaluate reloaded labeled")
        self.quality["final_loss"] = self.final_loss

    def run_pass(self, ops, clock):
        spec, n = self.spec, self.sizes.points_per_cell
        cells = [(i, j) for i in range(spec.n_styles) for j in range(spec.n_categories)]
        alpha = self.config.generation_alpha

        clock.cut()
        with captured("diffusion", "sample") as points:
            rows = ops.call("guidance_eval", lambda: train.guidance_eval(
                self.bundle, self.denoiser, self.schedule, spec, alpha=alpha, n_per_cell=n, seed=self.seed),
                count=len(cells))
        if rows is not None:
            if len(rows) != len(cells) or len(points) != len(cells):
                ops.fail("guidance_eval", f"{len(rows)} rows and {len(points)} point sets "
                         f"for {len(cells)} cells", len(cells))
            else:
                matched = [r["matched_accuracy"] for r in rows]
                self.quality["matched_acc"] = float(np.mean(matched))
                nonfinite = [c for c, pts in enumerate(points) if not _finite(pts)]
                if self.quality["matched_acc"] < MATCHED_ACC_FLOOR:
                    ops.fail("guidance_eval", f"matched_acc {self.quality['matched_acc']} below "
                             f"{MATCHED_ACC_FLOOR}", len(cells))
                elif nonfinite:
                    ops.fail("guidance_eval", f"non-finite points in cells {nonfinite}", len(nonfinite))
                self.outputs.update({f"guidance.points.{c:02d}": pts for c, pts in enumerate(points)})
                self.outputs["guidance.matched"] = np.asarray(matched)

        hits = []
        for c, (i, j) in enumerate(cells):
            partner = ((i + 1) % spec.n_styles, (j + 1) % spec.n_categories)

            def swap_sample(i=i, j=j, partner=partner, c=c):
                cond = swapped_condition(self.bundle, spec, alpha, (i, j), partner)
                return diffusion.sample(n, cond, self.schedule, self.denoiser, seed=self.seed + len(cells) + c)

            clock.cut()
            pts = ops.call(f"swap sample {i},{j}", swap_sample)
            if pts is None:
                continue
            if not _finite(pts):
                ops.fail(f"swap sample {i},{j}", "non-finite point")
            s_hat, c_hat = diffusion.oracle_classify_batch(pts, self.mixture)
            hits.append((s_hat == i) & (c_hat == partner[1]))
            self.outputs[f"swap.points.{c:02d}"] = pts
        if hits:
            self.quality["swap_acc"] = float(np.concatenate(hits).mean())
        return 2 * len(cells) * n


def swapped_condition(bundle, spec, alpha, style_cell, category_cell) -> diffusion.GuidanceCondition:
    """``tau_style`` of one cell's caption with ``tau_category`` of another's."""
    style = diffusion.condition_for_caption(spec.caption(*style_cell), bundle, alpha)
    category = diffusion.condition_for_caption(spec.caption(*category_cell), bundle, alpha)
    return diffusion.GuidanceCondition(tau_style=style.tau_style, tau_category=category.tau_category)


def style_key_effect(wl: Workload, rows: int = 256) -> float:
    """Mean |change| of ``predict_noise`` when only ``tau_style`` is replaced.

    Averaged over every cell, each paired with the cell one style and one
    category further on; 0.0 when the workload has no denoiser.
    """
    if wl.denoiser is None:
        return 0.0
    spec, alpha = wl.spec, wl.config.generation_alpha
    rng = np.random.default_rng([wl.seed, 41])
    z = rng.standard_normal((rows, 2))
    t = rng.integers(0, wl.config.timesteps, rows)
    effects = []
    with no_grad():
        for i in range(spec.n_styles):
            for j in range(spec.n_categories):
                cell = (i, j)
                other = ((i + 1) % spec.n_styles, (j + 1) % spec.n_categories)
                base = diffusion.condition_for_caption(spec.caption(*cell), wl.bundle, alpha)
                swapped = swapped_condition(wl.bundle, spec, alpha, other, cell)
                a = diffusion.predict_noise(wl.denoiser, z, t, base).data
                b = diffusion.predict_noise(wl.denoiser, z, t, swapped).data
                effects.append(np.abs(a - b).mean())
    return float(np.mean(effects))


WORKLOADS = {w.name: w for w in (Encoders, DiffusionTrain, Generate)}
