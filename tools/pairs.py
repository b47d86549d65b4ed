"""Alternating ``perfbench`` pairs of two revisions of this repository.

    python3 tools/pairs.py REV_A REV_B --workload W [--seed S] [--pairs N]
        [--seconds S] [--trace 0|1]

Extracts each revision with ``git archive`` into one of two sibling
directories, ``rev_a`` and ``rev_b``, of a temporary directory that is
removed at the end: the benchmark's metrics move with the length of the
checkout's path, so the two names have one length. Then runs
``perfbench/run.py`` in each checkout N times, alternating, with A first in
even pairs and B first in odd ones, so that a slow stretch of a shared host
falls on both sides. Prints, per metric of the ``record:`` lines, each
side's median and quartiles, B's median change against A, and in how many
pairs B was better (lower, or higher where ``BENCHMARK.json`` says so and
for rates, unit ``1/s``), and whether that is a gain one may claim: ``yes``
when B was better in at least nine tenths of the pairs, ties counting for
neither, and B's median is better than A's by more than A's interquartile
range; then each side's output digests. A revision is
anything ``git archive`` takes; for uncommitted changes, ``git stash
create`` names one. Exits 1 if a run reports ``failed`` > 0; a run that
exits non-zero stops the tool with its command in the error.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("A", "B")
WORKLOADS = ("encoders", "diffusion-train", "generate")


def parse_record(stdout: str) -> dict:
    """The ``record: {...}`` line of one ``perfbench/run.py`` output, as a dict."""
    for line in stdout.splitlines():
        if line.startswith("record: "):
            return json.loads(line[len("record: "):])
    raise ValueError("no 'record:' line in the benchmark's output")


def directions(declared: dict) -> dict[str, str]:
    """``better`` ("lower" or "higher") by metric name, from a ``BENCHMARK.json`` object."""
    return {m["name"]: m["better"] for key in ("end_to_end", "per_layer") for m in declared.get(key, [])}


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); a single value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def _cell(q: tuple[float, float, float]) -> str:
    return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"


def summarize(pairs: list[tuple[dict, dict]], better: dict[str, str]) -> str:
    """A table over N pairs of (A record, B record): per metric both sides' median [q1, q3], B's
    median change against A's median, the pairs in which B was better, and whether B's gain may be
    claimed (see the module docstring); then the digests."""
    n = len(pairs)
    names = sorted(set.intersection(*(set(r["metrics"]) for pair in pairs for r in pair)))
    lines = [f"{n} pairs; B is better when lower, unless the metric is marked (higher)",
             f"{'metric':28s} {'unit':>5s} {'A median [q1, q3]':>34s} {'B median [q1, q3]':>34s} "
             f"{'change':>8s} {'B better':>9s} {'claim':>5s}"]
    for name in names:
        a, b = ([pair[i]["metrics"][name]["value"] for pair in pairs] for i in range(2))
        unit = pairs[0][0]["metrics"][name]["unit"]
        higher = better.get(name, "higher" if unit == "1/s" else "lower") == "higher"
        wins = sum((y > x) if higher else (y < x) for x, y in zip(a, b))
        qa, qb = _quartiles(a), _quartiles(b)
        change = f"{(qb[1] - qa[1]) / abs(qa[1]):+.2%}" if qa[1] else "-"
        gain = (qb[1] - qa[1]) if higher else (qa[1] - qb[1])
        claim = "yes" if 10 * wins >= 9 * n and gain > qa[2] - qa[0] else "no"
        label = name + (" (higher)" if higher else "")
        lines.append(f"{label:28s} {unit:>5s} {_cell(qa):>34s} {_cell(qb):>34s} "
                     f"{change:>8s} {wins:>6d}/{n} {claim:>5s}")
    for i, side in enumerate(SIDES):
        digests = [pair[i]["outputs_sha256"] for pair in pairs]
        counts = {d: digests.count(d) for d in dict.fromkeys(digests)}
        lines.append(f"digests {side}: " + ", ".join(f"{d} ({c}/{n})" for d, c in counts.items()))
        failed = sum(pair[i]["failed"] for pair in pairs)
        lines.append(f"failed {side}: {failed} of {sum(pair[i]['attempted'] for pair in pairs)} attempted")
    same = {p[0]["outputs_sha256"] for p in pairs} == {p[1]["outputs_sha256"] for p in pairs}
    lines.append("digests " + ("the same on both sides" if same else "DIFFER between the sides"))
    return "\n".join(lines)


def extract(rev: str, dest: Path) -> None:
    """The files of ``rev`` under ``dest``, through ``git archive``."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                         stdout=subprocess.PIPE, check=True).stdout
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")


def run_once(checkout: Path, args) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}")
    return parse_record(proc.stdout)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("rev_a")
    parser.add_argument("rev_b")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        checkouts = (Path(tmp) / "rev_a", Path(tmp) / "rev_b")
        for rev, checkout in zip((args.rev_a, args.rev_b), checkouts):
            extract(rev, checkout)
        better = directions(json.loads((checkouts[0] / "BENCHMARK.json").read_text(encoding="utf-8")))
        print(f"A = {args.rev_a}, B = {args.rev_b}: {args.workload}, seed {args.seed}, "
              f"{args.seconds:g} s runs, trace {args.trace}", flush=True)
        pairs = []
        for k in range(args.pairs):
            order = (0, 1) if k % 2 == 0 else (1, 0)
            records = [None, None]
            for i in order:
                records[i] = run_once(checkouts[i], args)
            pairs.append(tuple(records))
            shown = ", ".join(f"{name} {records[0]['metrics'][name]['value']:.6g} -> "
                              f"{records[1]['metrics'][name]['value']:.6g}"
                              for name in ("wall_ref", "setup_s") if name in records[0]["metrics"])
            print(f"pair {k + 1}/{args.pairs} ({SIDES[order[0]]} first): {shown}", flush=True)
        print(summarize(pairs, better))
    return 1 if any(r["failed"] for pair in pairs for r in pair) else 0


if __name__ == "__main__":
    sys.exit(main())
