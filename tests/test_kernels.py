"""``tools/kernels.py``: per-kernel digests of benchmark runs, fed canned ``perfbench`` outputs."""

import importlib.util
import json
import os
import subprocess
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "kernels.py"
_spec = importlib.util.spec_from_file_location("kernels_tool", TOOL)
kernels = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(kernels)

D91E, D1D9 = "d91eeb8a" * 8, "1d902094" * 8


def output(digest, failed=0):
    """A benchmark run's stdout around its record line."""
    record = {"outputs_sha256": digest, "attempted": 4, "failed": failed, "metrics": {}}
    return f"perfbench diffusion-train seed=0\nrecord: {json.dumps(record)}\n{json.dumps({'correct': not failed})}\n"


def test_run_sets_the_kernel_in_the_child_only(monkeypatch, tmp_path):
    seen = []

    def fake_run(cmd, cwd, env, **kwargs):
        seen.append((cmd, cwd, env))
        return subprocess.CompletedProcess(cmd, 0, stdout=output(D91E if env["OPENBLAS_CORETYPE"] == "SkylakeX"
                                                                 else D1D9))

    monkeypatch.setattr(kernels.subprocess, "run", fake_run)
    monkeypatch.delenv("OPENBLAS_CORETYPE", raising=False)
    assert kernels.run_once(tmp_path, "diffusion-train", "SkylakeX") == {"digest": D91E, "error": None}
    assert kernels.run_once(tmp_path, "diffusion-train", "Haswell") == {"digest": D1D9, "error": None}
    assert "OPENBLAS_CORETYPE" not in os.environ
    (cmd, cwd, env), _ = seen
    assert cmd[1:] == ["perfbench/run.py", "--workload", "diffusion-train", "--seed", "0", "--seconds", "0"]
    assert cwd == tmp_path and env["PATH"] == os.environ["PATH"]


def test_a_failed_run_is_reported_not_raised(monkeypatch, tmp_path):
    outcomes = iter([(132, ""), (0, "no record here\n"), (0, output(D91E, failed=1))])

    def fake_run(cmd, **kwargs):
        code, stdout = next(outcomes)
        return subprocess.CompletedProcess(cmd, code, stdout=stdout)

    monkeypatch.setattr(kernels.subprocess, "run", fake_run)
    runs = [kernels.run_once(tmp_path, "encoders", "Prescott") for _ in range(3)]
    assert runs == [{"digest": None, "error": "exit 132"}, {"digest": None, "error": "no record"},
                    {"digest": D91E, "error": "1 of 4 failed"}]


def rows(text):
    return {tuple(line.split()[:2]): line.split()[2:] for line in text.splitlines()}


def test_table_marks_differing_revisions_and_failures():
    ok, other, crashed = {"digest": D91E, "error": None}, {"digest": D1D9, "error": None}, \
        {"digest": None, "error": "exit 132"}
    text, status = kernels.table({("generate", "SkylakeX"): [ok, ok], ("generate", "Haswell"): [other, ok],
                                  ("generate", "Prescott"): [crashed, crashed]}, ["HEAD~1", "HEAD"])
    table = rows(text)
    assert table["workload", "kernel"] == ["HEAD~1", "HEAD"]
    assert table["generate", "SkylakeX"] == ["d91eeb8ad91eeb8a"] * 2
    assert table["generate", "Haswell"] == ["1d9020941d902094", "d91eeb8ad91eeb8a", "DIFFER"]
    assert table["generate", "Prescott"] == ["(exit", "132)"] * 2
    assert text.endswith("2 of 6 runs failed; 1 of 3 workload-kernel rows differ between the revisions")
    assert status == 1
    assert kernels.table({("generate", "SkylakeX"): [ok, ok]}, ["a", "b"])[1] == 0
    assert kernels.table({("generate", "Prescott"): [crashed, crashed]}, ["a", "b"])[1] == 1


def test_every_workload_and_kernel_runs_in_each_checkout(monkeypatch, capsys):
    """One run per revision, workload and kernel, in sibling checkouts of one name length; a crash on one
    kernel does not stop the others. No benchmark runs here."""
    extracted, calls = [], []

    def fake_extract(rev, dest):
        extracted.append((rev, dest.name, dest.parent))
        dest.mkdir(parents=True)

    def fake_run(checkout, workload, kernel):
        calls.append((checkout.name, workload, kernel))
        if kernel == "Prescott":
            return {"digest": None, "error": "exit 132"}
        return {"digest": D91E, "error": None}

    monkeypatch.setattr(kernels, "extract", fake_extract)
    monkeypatch.setattr(kernels, "run_once", fake_run)
    monkeypatch.setattr(kernels, "WORKLOADS", ("generate",))
    assert kernels.main(["HEAD~1", "HEAD"]) == 1
    assert [x[:2] for x in extracted] == [("HEAD~1", "rev_00"), ("HEAD", "rev_01")]
    assert extracted[0][2] == extracted[1][2] and not extracted[0][2].exists()
    assert calls == [(rev, "generate", kernel) for kernel in kernels.KERNELS for rev in ("rev_00", "rev_01")]
    out = capsys.readouterr().out
    assert "generate Haswell HEAD: d91eeb8ad91eeb8a" in out and "0 of 4 workload-kernel rows differ" in out
    assert "\nseed 0; revisions in column order: HEAD~1, HEAD\n" in out
    monkeypatch.setattr(kernels, "KERNELS", ("SkylakeX",))
    monkeypatch.setattr(kernels, "WORKLOADS", ("encoders", "diffusion-train", "generate"))
    assert kernels.main(["HEAD~1", "HEAD"]) == 0
    assert [c[1] for c in calls[8:]] == [w for w in kernels.WORKLOADS for _ in range(2)]
