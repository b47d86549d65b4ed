"""Benchmark of the stylecat pipeline, run in-process through its public API.

    python3 perfbench/run.py --workload encoders|diffusion-train|generate|all \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the program is imported from ``src/``.
Each workload runs in its own process (``all`` starts one per workload in
turn), so set-up time and peak memory belong to that workload. Set-up is
repeated (at least twice, see ``Workload.setup_seconds``) and the
measured pass is then repeated until ``--seconds`` have passed (at least
once). The host runs everything up to 70% slower for seconds to minutes
at a time, so ``setup_s`` is the fastest set-up, and ``wall_ref`` is the
median over passes of the pass's wall time in units of a reference kernel
timed between its steps (``reference.py``). Wall time and throughput are
those of the median pass in seconds. Step times are, per phase of steps
(labeled and unlabeled batches on ``encoders``), the median over windows
of 100 consecutive steps of each window's percentile, averaged weighted by
step count (``harness._step_percentile``). ``record`` lists every
set-up's and every pass's wall time. BLAS is pinned to one thread.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs untraced
and traced passes alternately and prints per-layer metrics from spans
recorded around every public function of the program's modules
(``tracing.py``); the wrappers exist only during traced set-up and passes.
The program is single-threaded and has no queues, so no layer has a
wait-time metric. The MLP head and the key and value attention paths are
not separate functions, so they cannot be split from outside.

The last line of output is one JSON object with ``correct``, ``attempted``,
``failed`` and the metrics that ``BENCHMARK.json`` declares for the mode:
the end-to-end metrics that every workload has and that repeat within their
bounds on a shared host. The line before it, ``record: {...}``, holds every
metric the workload has with its unit (also ``wall_s``,
``train_samples_per_s`` or ``gen_points_per_s``, ``step_ms_p50``,
``step_ms_p90``, ``ref_ms``, ``failed_frac``, the unlabeled top-1s,
``final_loss``, ``matched_acc`` and ``swap_acc``), the environment and the
sha256 of the workload's outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("encoders", "diffusion-train", "generate")


def _single_blas_thread() -> None:
    """Pin BLAS to one thread; must run before numpy is imported.

    The program's matrices are at most a few hundred rows by 32 columns, so a
    second BLAS thread does not shorten a step, but it makes step times
    depend on whatever else runs on the other core.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def _import_program() -> None:
    """Import stylecat from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import stylecat

    if not Path(stylecat.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"stylecat imported from {stylecat.__file__}, not from {src}")


def _parse(argv):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=declared["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv), declared


def _run_all(args) -> int:
    """Each workload in a fresh process; a summary table at the end."""
    import subprocess

    status, finals = 0, {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        print(proc.stdout, end="", flush=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = 1
            continue
        finals[name] = json.loads(lines[-1])
        status |= 0 if finals[name]["correct"] else 1
    if finals:
        names = list(next(iter(finals.values()))["metrics"])
        print(f"\n{'metric':34s}" + "".join(f"{w:>18s}" for w in finals))
        for m in names:
            unit = next(iter(finals.values()))["metrics"][m]["unit"]
            cells = "".join(f"{f['metrics'][m]['value']:>18.6g}" for f in finals.values())
            print(f"{m + ' [' + unit + ']':34s}{cells}")
        print(f"{'correct':34s}" + "".join(f"{str(f['correct']):>18s}" for f in finals.values()))
    return status


def main(argv=None) -> int:
    args, declared = _parse(argv)
    if args.workload == "all":
        return _run_all(args)
    _single_blas_thread()
    try:
        _import_program()
    except ImportError as e:
        print(f"error: cannot import the program: {e}", file=sys.stderr)
        return 2
    import harness

    return harness.run(args, declared)


if __name__ == "__main__":
    sys.exit(main())
