"""Measurement loops, metric definitions and the report for one workload."""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from reference import HostGauge
from tracing import TENSOR_NON_OPS, Stats, StepClock, Tracer, layer_callables, step_probes
from workloads import WORKLOADS, Ops, digest, style_key_effect

ROOT = Path(__file__).resolve().parent.parent
STEP_WINDOW = 100  # consecutive steps per window of the step percentiles

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "train_samples_per_s": "1/s",
    "gen_points_per_s": "1/s",
    "step_ms_p50": "ms",
    "step_ms_p90": "ms",
    "wall_ref": "ref",
    "ref_ms": "ms",
    "peak_rss_mb": "MB",
    "failed_frac": "frac",
    "style_top1": "frac",
    "category_top1": "frac",
    "unl_style_top1": "frac",
    "unl_category_top1": "frac",
    "final_loss": "mse",
    "matched_acc": "frac",
    "swap_acc": "frac",
}

LAYER_UNITS = {
    "tensor.op.calls": "count",
    "tensor.op.self_ms": "ms",
    "tensor.backward.calls": "count",
    "tensor.backward.self_ms": "ms",
    "backbone.embed_image.calls": "count",
    "backbone.embed_image.self_ms": "ms",
    "backbone.embed_image.distinct_ratio": "ratio",
    "backbone.embed_text.calls": "count",
    "backbone.embed_text.self_ms": "ms",
    "encoders.adapt_feature.calls": "count",
    "encoders.adapt_feature.incl_ms": "ms",
    "encoders.adapt_feature.self_ms": "ms",
    "losses.class_logits.incl_ms": "ms",
    "losses.objective.incl_ms": "ms",
    "captions.decompose.calls": "count",
    "captions.decompose.self_ms": "ms",
    "diffusion.predict_noise.calls": "count",
    "diffusion.predict_noise.incl_ms": "ms",
    "diffusion.split_cross_attention.incl_ms": "ms",
    "diffusion.attention.incl_ms": "ms",
    "diffusion.ddpm_train_step.incl_ms": "ms",
    "diffusion.condition_for_caption.calls": "count",
    "diffusion.condition.distinct_ratio": "ratio",
    "diffusion.sample.incl_ms": "ms",
    "diffusion.oracle_classify_batch.self_ms": "ms",
    "diffusion.style_key_effect": "abs",
    "train.adam_step.calls": "count",
    "train.adam_step.self_ms": "ms",
    "train.evaluate_classification.incl_ms": "ms",
    "train.guidance_eval.incl_ms": "ms",
    "checkpoint.save_ms": "ms",
    "checkpoint.load_ms": "ms",
    "checkpoint.bytes": "bytes",
    "datagen.generate_ms": "ms",
    "trace_overhead_frac": "frac",
}

# Input identities for the distinct-input ratios.
DISTINCT_KEYS = {
    "backbone.embed_image": lambda args, kwargs: np.asarray(args[0]).tobytes(),
    "diffusion.condition_for_caption": lambda args, kwargs: (args[0], args[2] if len(args) > 2 else None),
}


def _layer_metrics(run: Stats, setup: Stats, checkpoint_bytes: int) -> dict:
    """Per-layer figures of one traced pass; set-up layers from the traced set-up."""
    keys = [k for k in layer_callables() if k.startswith("tensor.") and k.count(".") == 1]
    ops = [k for k in keys if k.split(".")[1] not in TENSOR_NON_OPS]
    objectives = [k for k in layer_callables()
                  if k.startswith("losses.") and k.endswith(("labeled_loss", "triplet_loss"))]
    return {
        "tensor.op.calls": run.calls(*ops),
        "tensor.op.self_ms": run.self_ms(*ops),
        "tensor.backward.calls": run.calls("tensor.backward"),
        "tensor.backward.self_ms": run.self_ms("tensor.backward"),
        "backbone.embed_image.calls": run.calls("backbone.embed_image"),
        "backbone.embed_image.self_ms": run.self_ms("backbone.embed_image"),
        "backbone.embed_image.distinct_ratio": run.distinct_ratio("backbone.embed_image"),
        "backbone.embed_text.calls": run.calls("backbone.embed_text"),
        "backbone.embed_text.self_ms": run.self_ms("backbone.embed_text"),
        "encoders.adapt_feature.calls": run.calls("encoders.EncoderBundle.adapt_feature"),
        "encoders.adapt_feature.incl_ms": run.incl_ms("encoders.EncoderBundle.adapt_feature"),
        "encoders.adapt_feature.self_ms": run.self_ms("encoders.EncoderBundle.adapt_feature"),
        "losses.class_logits.incl_ms": run.incl_ms("losses.class_logits"),
        "losses.objective.incl_ms": run.incl_ms(*objectives),
        "captions.decompose.calls": run.calls("captions.decompose"),
        "captions.decompose.self_ms": run.self_ms("captions.decompose"),
        "diffusion.predict_noise.calls": run.calls("diffusion.predict_noise"),
        "diffusion.predict_noise.incl_ms": run.incl_ms("diffusion.predict_noise"),
        "diffusion.split_cross_attention.incl_ms": run.incl_ms("diffusion.split_cross_attention"),
        "diffusion.attention.incl_ms": run.incl_ms("diffusion.attention"),
        "diffusion.ddpm_train_step.incl_ms": run.incl_ms("diffusion.ddpm_train_step"),
        "diffusion.condition_for_caption.calls": run.calls("diffusion.condition_for_caption"),
        "diffusion.condition.distinct_ratio": run.distinct_ratio("diffusion.condition_for_caption"),
        "diffusion.sample.incl_ms": run.incl_ms("diffusion.sample"),
        "diffusion.oracle_classify_batch.self_ms": run.self_ms("diffusion.oracle_classify_batch"),
        "train.adam_step.calls": run.calls("train.Adam.step"),
        "train.adam_step.self_ms": run.self_ms("train.Adam.step"),
        "train.evaluate_classification.incl_ms": run.incl_ms("train.evaluate_classification"),
        "train.guidance_eval.incl_ms": run.incl_ms("train.guidance_eval"),
        "checkpoint.save_ms": setup.incl_ms("checkpoint.save_checkpoint"),
        "checkpoint.load_ms": setup.incl_ms("checkpoint.load_checkpoint"),
        "checkpoint.bytes": checkpoint_bytes,
        "datagen.generate_ms": setup.incl_ms("datagen.generate_classification_dataset",
                                             "datagen.generate_diffusion_dataset"),
    }


def _step_percentile(passes: list, q: float) -> float:
    """Step time at percentile ``q`` over every pass's ``{phase: periods}``.

    Per phase, the periods of each pass are cut into windows of
    ``STEP_WINDOW`` consecutive steps, and the median of the windows'
    ``q`` percentiles is taken: it passes over host slowdowns that cover
    less than half of the windows, and it does not drift with the number
    of windows, as a minimum would. The phases are averaged weighted by
    their step counts.
    """
    total, count = 0.0, 0
    for phase in sorted({k for steps in passes for k in steps}):
        periods = [steps.get(phase, ()) for steps in passes]
        windows = [w for p in periods for w in np.array_split(p, max(1, len(p) // STEP_WINDOW)) if len(w)]
        n = sum(len(p) for p in periods)
        if windows:
            total += n * float(np.median([np.percentile(w, q) for w in windows]))
            count += n
    return total / count


def _timed_pass(wl, ops: Ops, clock: StepClock):
    """(wall seconds, work items) of one measured pass."""
    gc.collect()
    start = time.perf_counter()
    work = wl.run_pass(ops, clock)
    return time.perf_counter() - start, work


def measure(wl, seconds: float, ops: Ops) -> tuple[dict, dict]:
    """End-to-end metrics of set-up plus passes until ``seconds`` have passed."""
    setups = []
    while len(setups) < 2 or sum(setups) < wl.setup_seconds:
        gc.collect()
        start = time.perf_counter()
        wl.setup()
        setups.append(time.perf_counter() - start)
    wl.check_setup(ops)

    # The host runs everything up to 70% slower for seconds to minutes at a
    # time. Each pass is therefore also timed in units of a reference kernel
    # run between its steps (reference.py), and set-up, which must be
    # reported in seconds, by its fastest repeat.
    gauge = HostGauge()
    passes = []  # (wall s, wall in reference-kernel times, {phase: step periods ms}) per pass
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        clock = StepClock(gauge)
        spent, sampled = gauge.spent, len(gauge.samples)
        with step_probes(clock, wl.step_targets):
            wall, work = _timed_pass(wl, ops, clock)
        wall -= gauge.spent - spent
        ref = statistics.median(gauge.samples[sampled:] or [gauge.sample()])
        passes.append((wall, wall / ref, {k: np.asarray(v) * 1000.0 for k, v in clock.periods.items()}))
    wall = statistics.median(p[0] for p in passes)
    steps = [p[2] for p in passes]
    metrics = {
        "setup_s": min(setups),
        "wall_s": wall,
        ("gen_points_per_s" if wl.name == "generate" else "train_samples_per_s"): work / wall,
        "wall_ref": statistics.median(p[1] for p in passes),
        "ref_ms": 1000.0 * statistics.median(gauge.samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failed_frac": ops.failed / max(ops.attempted, 1),
        **wl.quality,
    }
    counts = {}
    for pass_steps in steps:
        for phase, periods in pass_steps.items():
            counts[phase] = counts.get(phase, 0) + len(periods)
    if any(counts.values()):  # none only when every pass failed early
        metrics["step_ms_p50"] = _step_percentile(steps, 50)
        metrics["step_ms_p90"] = _step_percentile(steps, 90)
    info = {"setup_walls": setups, "pass_walls": [p[0] for p in passes], "steps": counts}
    return metrics, info


def measure_traced(wl, seconds: float, ops: Ops) -> tuple[dict, dict]:
    """Per-layer metrics: a traced set-up, then untraced and traced passes in turn."""
    setup_stats = Stats()
    with Tracer(setup_stats, DISTINCT_KEYS):
        wl.setup()
    wl.check_setup(ops)

    plain, traced, per_pass = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        plain.append(_timed_pass(wl, ops, StepClock())[0])
        stats = Stats()
        with Tracer(stats, DISTINCT_KEYS):
            traced.append(_timed_pass(wl, ops, StepClock())[0])
        per_pass.append(_layer_metrics(stats, setup_stats, wl.checkpoint_bytes))
    metrics = {name: float(np.mean([m[name] for m in per_pass])) for name in per_pass[0]}
    metrics["diffusion.style_key_effect"] = style_key_effect(wl)
    metrics["trace_overhead_frac"] = min(traced) / min(plain) - 1.0
    return metrics, {"pass_walls": plain, "traced_pass_walls": traced}


def _git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "stylecat").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        return "unknown"


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "seed": seed,
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
    }


def _brief(value):
    if isinstance(value, list) and len(value) > 8:
        return f"{len(value)}x[{min(value):.3f}..{max(value):.3f}]"
    if isinstance(value, list):
        return "[" + ",".join(f"{v:.3f}" for v in value) + "]"
    return value


def run(args, declared: dict) -> int:
    ops = Ops()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        if args.trace:
            metrics, info = measure_traced(wl, args.seconds, ops)
        else:
            metrics, info = measure(wl, args.seconds, ops)
    units = LAYER_UNITS if args.trace else END_TO_END_UNITS
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    for m in wanted:
        if units.get(m["name"]) != m["unit"]:
            raise ValueError(f"BENCHMARK.json unit of {m['name']} is {m['unit']!r}, "
                             f"the benchmark measures {units.get(m['name'])!r}")
    record = {
        "workload": wl.name,
        "trace": args.trace,
        **info,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "outputs_sha256": digest(wl.outputs),
        "environment": environment(args.seed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(f"perfbench {wl.name} seed={args.seed} trace={args.trace} " +
          " ".join(f"{k}={_brief(v)}" for k, v in info.items()))
    for name, v in metrics.items():
        print(f"  {name:42s} {v:>16.6g} {units[name]}")
    if args.trace:
        print("  no layer has a wait-time metric: the program is single-threaded and has no queues")
    print(f"  outputs sha256 {record['outputs_sha256']}")
    print("record: " + json.dumps(record, sort_keys=True))
    correct = ops.failed == 0 and not missing
    if missing:
        print(f"missing metrics: {missing}", file=sys.stderr)
    final = {
        "correct": correct,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(final), flush=True)
    return 0
