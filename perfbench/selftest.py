"""Tests of the benchmark itself, at small sizes so they take seconds.

    python3 perfbench/selftest.py        (or: python3 -m pytest perfbench/selftest.py)
"""

from __future__ import annotations

import contextlib
import inspect
import io
import json
import sys
import tempfile
import unittest
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(ROOT / "src"), str(HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)

import harness  # noqa: E402
from tracing import Stats, Tracer, program_modules  # noqa: E402
from workloads import WORKLOADS, Ops, Sizes, digest  # noqa: E402

SMALL = Sizes(train_per_cell=4, test_per_cell=4, epochs=2, batch_size=16,
              diffusion_steps=4, diffusion_batch=16, timesteps=8, points_per_cell=8)
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(name: str, seed: int, traced: bool, with_info: bool = False):
    """(workload, metrics[, info]) of one small run; failure reports are swallowed."""
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir, \
            contextlib.redirect_stderr(io.StringIO()):
        wl = WORKLOADS[name](seed, workdir, SMALL)
        wl.setup_seconds = 0.0  # two set-ups are enough at these sizes
        measure = harness.measure_traced if traced else harness.measure
        metrics, info = measure(wl, 0.0, Ops())
    return (wl, metrics, info) if with_info else (wl, metrics)


def _attribute_snapshot() -> dict:
    """Identity of every attribute of the program's modules and their classes."""
    snap = {}
    for module in program_modules():
        for name, value in vars(module).items():
            snap[(module.__name__, name)] = value
            if inspect.isclass(value) and value.__module__.startswith("stylecat"):
                for attr, member in vars(value).items():
                    snap[(module.__name__, name, attr)] = member
    return snap


class DigestTest(unittest.TestCase):
    def test_same_seed_gives_same_digest(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                first, _ = _run(name, 3, traced=False)
                second, _ = _run(name, 3, traced=False)
                self.assertTrue(first.outputs)
                self.assertEqual(digest(first.outputs), digest(second.outputs))

    def test_generated_points_are_in_the_digest(self):
        wl, _ = _run("generate", 3, traced=False)
        cells = wl.spec.n_styles * wl.spec.n_categories
        for c in range(cells):
            self.assertEqual(wl.outputs[f"guidance.points.{c:02d}"].shape, (SMALL.points_per_cell, 2))

    def test_other_seed_gives_other_digest(self):
        a, _ = _run("diffusion-train", 3, traced=False)
        b, _ = _run("diffusion-train", 4, traced=False)
        self.assertNotEqual(digest(a.outputs), digest(b.outputs))


class TracingTest(unittest.TestCase):
    def test_traced_run_restores_every_patched_attribute(self):
        before = _attribute_snapshot()
        for name in WORKLOADS:
            _run(name, 0, traced=True)
        after = _attribute_snapshot()
        self.assertEqual(before.keys(), after.keys())
        changed = [k for k in before if before[k] is not after[k]]
        self.assertEqual(changed, [])

    def test_by_name_imports_are_traced(self):
        # train.py calls embed_image, backward and ddpm_train_step through
        # names it imported; those calls must reach the spans.
        _, metrics = _run("encoders", 0, traced=True)
        self.assertGreater(metrics["backbone.embed_image.calls"], 0)
        self.assertGreater(metrics["tensor.backward.calls"], 0)
        _, metrics = _run("diffusion-train", 0, traced=True)
        self.assertGreater(metrics["diffusion.ddpm_train_step.incl_ms"], 0)
        self.assertEqual(metrics["backbone.embed_image.calls"], 0)

    def test_self_time_excludes_traced_callees(self):
        import stylecat.losses as L
        import stylecat.tensor as T

        stats = Stats()
        with Tracer(stats):
            L.class_logits(T.Tensor(np.ones((2, 4))), T.Tensor(np.eye(3, 4)))
        incl, own = stats.table["losses.class_logits"][1:]
        children = sum(row[1] for key, row in stats.table.items() if key.startswith("tensor."))
        self.assertGreater(children, 0)
        self.assertAlmostEqual(own, incl - children, places=9)


class DeclaredMetricsTest(unittest.TestCase):
    def test_every_declared_metric_is_emitted_with_its_unit(self):
        for traced, section, units in ((False, "end_to_end", harness.END_TO_END_UNITS),
                                       (True, "per_layer", harness.LAYER_UNITS)):
            for name in WORKLOADS:
                with self.subTest(workload=name, section=section):
                    _, metrics = _run(name, 0, traced)
                    for m in DECLARED[section]:
                        self.assertIn(m["name"], metrics)
                        self.assertEqual(units[m["name"]], m["unit"])

    def test_encoder_steps_cover_both_phases(self):
        _, metrics, info = _run("encoders", 0, traced=False, with_info=True)
        self.assertGreater(info["steps"].get("labeled", 0), 0)
        self.assertGreater(info["steps"].get("unlabeled", 0), 0)
        self.assertGreater(metrics["step_ms_p50"], 0)

    def test_declared_workloads_match(self):
        import run

        self.assertEqual([w["name"] for w in DECLARED["workloads"]], list(WORKLOADS))
        self.assertEqual(run.WORKLOAD_NAMES, tuple(WORKLOADS))


if __name__ == "__main__":
    unittest.main()
