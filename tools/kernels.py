"""Per-kernel ``perfbench`` output digests of revisions of this repository.

    python3 tools/kernels.py REV [REV ...]

numpy's bundled OpenBLAS picks its GEMM kernel from the CPU at start-up, and
two kernels may order the sums of one product differently, so a claim of
bit-identical outputs holds only on the kernels it was checked on. This tool
extracts each revision with ``tools/pairs.py``'s ``extract`` into sibling
directories whose names have one length, then runs ``perfbench/run.py
--workload W --seed 0 --seconds 0`` in each for every workload of
``WORKLOADS`` under every kernel of ``KERNELS``, with ``OPENBLAS_CORETYPE``
set in the child's environment only.
It prints one digest per workload, kernel and revision, and marks each
workload and kernel whose revisions differ. A run that exits non-zero (for
example on a kernel this CPU lacks), prints no record or reports failed
operations is shown in its cell and does not stop the tool. Exits 1 if any
run failed or any revisions differ.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from pairs import WORKLOADS, extract, parse_record  # noqa: E402

KERNELS = ("SkylakeX", "Haswell", "SandyBridge", "Prescott")
SHOWN = 16  # hex digits of a digest in the table; revisions are compared on the whole digest


def run_once(checkout: Path, workload: str, kernel: str) -> dict:
    """``{"digest": sha256 or None, "error": None or what went wrong}`` of one seed-0 benchmark run in
    ``checkout`` under ``OPENBLAS_CORETYPE=kernel``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0", "--seconds", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True,
                          env={**os.environ, "OPENBLAS_CORETYPE": kernel})
    if proc.returncode != 0:
        return {"digest": None, "error": f"exit {proc.returncode}"}
    try:
        record = parse_record(proc.stdout)
    except ValueError:
        return {"digest": None, "error": "no record"}
    error = f"{record['failed']} of {record['attempted']} failed" if record["failed"] else None
    return {"digest": record["outputs_sha256"], "error": error}


def _cell(run: dict) -> str:
    digest = run["digest"][:SHOWN] if run["digest"] else ""
    return f"{digest} ({run['error']})".strip() if run["error"] else digest


def table(results: dict[tuple[str, str], list[dict]], revs: list[str]) -> tuple[str, int]:
    """The digest table over ``results``, each (workload, kernel)'s runs in the order of ``revs``, and
    the exit status: 1 if a run failed or the revisions of a (workload, kernel) differ, else 0."""
    width = max(SHOWN, *(len(_cell(run)) for runs in results.values() for run in runs))
    lines = [f"{'workload':16s} {'kernel':12s} " + " ".join(f"{rev[:width]:{width}s}" for rev in revs)]
    failed = differ = 0
    for (workload, kernel), runs in results.items():
        failed += sum(run["error"] is not None for run in runs)
        same = len({(run["digest"], run["error"]) for run in runs}) == 1
        differ += not same
        cells = " ".join(f"{_cell(run):{width}s}" for run in runs)
        lines.append(f"{workload:16s} {kernel:12s} {cells}" + ("" if same else "  DIFFER"))
    lines.append(f"{failed} of {sum(map(len, results.values()))} runs failed; "
                 f"{differ} of {len(results)} workload-kernel rows differ between the revisions")
    return "\n".join(lines), int(bool(failed or differ))


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("revs", nargs="+", metavar="REV")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    with tempfile.TemporaryDirectory(prefix="kernels-") as tmp:
        checkouts = [Path(tmp) / f"rev_{i:02d}" for i in range(len(args.revs))]
        for rev, checkout in zip(args.revs, checkouts):
            extract(rev, checkout)
        results = {}
        for workload in WORKLOADS:
            for kernel in KERNELS:
                results[workload, kernel] = []
                for rev, checkout in zip(args.revs, checkouts):
                    results[workload, kernel].append(run_once(checkout, workload, kernel))
                    print(f"{workload} {kernel} {rev}: {_cell(results[workload, kernel][-1])}", flush=True)
    text, status = table(results, args.revs)
    print(f"seed 0; revisions in column order: {', '.join(args.revs)}\n{text}")
    return status


if __name__ == "__main__":
    sys.exit(main())
