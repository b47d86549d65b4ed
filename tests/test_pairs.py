"""``tools/pairs.py``: the summary of alternating benchmark pairs, fed canned ``record:`` lines."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "pairs.py"
_spec = importlib.util.spec_from_file_location("pairs_tool", TOOL)
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

BETTER = {"wall_ref": "lower", "style_top1": "higher"}


def record(wall_ref, style_top1=1.0, digest="d91e", failed=0):
    return {"metrics": {"wall_ref": {"value": wall_ref, "unit": "ref"},
                        "style_top1": {"value": style_top1, "unit": "frac"},
                        "train_samples_per_s": {"value": 1e6 / wall_ref, "unit": "1/s"}},
            "outputs_sha256": digest, "attempted": 4, "failed": failed}


def output(rec):
    """A benchmark run's stdout around its record line."""
    return f"perfbench diffusion-train seed=0\n  wall_ref {rec['metrics']['wall_ref']['value']}\n" \
           f"record: {json.dumps(rec, sort_keys=True)}\n{json.dumps({'correct': True})}\n"


def rows(text):
    return {line.split()[0]: line.split() for line in text.splitlines()}


class TestSummary:
    def test_record_line_is_parsed_and_required(self):
        rec = record(47.5)
        assert pairs.parse_record(output(rec)) == rec
        with pytest.raises(ValueError, match="record"):
            pairs.parse_record("perfbench diffusion-train\n{}\n")

    def test_medians_quartiles_change_and_wins(self):
        a = [50.0, 48.0, 52.0, 49.0]
        b = [46.0, 47.0, 50.0, 50.0]
        runs = [(pairs.parse_record(output(record(x))), pairs.parse_record(output(record(y, 0.9 if k == 0 else 1.0))))
                for k, (x, y) in enumerate(zip(a, b))]
        table = rows(pairs.summarize(runs, BETTER))
        # inclusive quartiles: A sorted 48, 49, 50, 52; B sorted 46, 47, 50, 50
        assert table["wall_ref"][1:] == ["ref", "49.5", "[48.75,", "50.5]", "48.5", "[46.75,", "50]", "-2.02%", "3/4",
                                         "no"]
        assert table["train_samples_per_s"][1] == "(higher)" and table["train_samples_per_s"][-2:] == ["3/4", "no"]
        assert table["style_top1"][1:] == ["(higher)", "frac", "1", "[1,", "1]", "1", "[0.975,", "1]", "+0.00%", "0/4",
                                           "no"]

    @pytest.mark.parametrize("b, claim", [
        # A's median is 50 and its quartiles [49.25, 50.75]
        ([40.0] * 9 + [60.0], "yes"),                             # 9/10 wins, median 40
        ([40.0] * 8 + [50.0, 60.0], "no"),                        # 8/10 wins: a tie counts for neither side
        ([47.0, 48.0, 49.0, 50.0, 51.0, 48.0, 49.0, 50.0, 49.0, 60.0], "no"),  # 9/10 wins, median 49: within
    ], ids=["nine-tenths-beyond-the-spread", "eight-tenths", "within-the-spread"])
    def test_claim_needs_nine_tenths_of_the_pairs_and_more_than_the_spread(self, b, claim):
        a = [48.0, 49.0, 50.0, 51.0, 52.0, 49.0, 50.0, 51.0, 50.0, 50.0]
        table = rows(pairs.summarize([(record(x), record(y)) for x, y in zip(a, b)], BETTER))
        assert table["wall_ref"][-1] == claim
        assert table["train_samples_per_s"][-1] == claim  # a rate: higher is better

    def test_digests_and_failures_are_reported(self):
        runs = [(record(50.0), record(49.0)), (record(50.0), record(49.0, digest="beef", failed=1))]
        text = pairs.summarize(runs, BETTER)
        assert "digests A: d91e (2/2)" in text and "digests B: d91e (1/2), beef (1/2)" in text
        assert "failed A: 0 of 8 attempted" in text and "failed B: 1 of 8 attempted" in text
        assert text.endswith("digests DIFFER between the sides")
        assert pairs.summarize(runs[:1], BETTER).endswith("digests the same on both sides")


def test_runs_alternate_which_side_goes_first(monkeypatch, capsys):
    """Pair k runs A first when k is even and B first when it is odd, in sibling checkouts of one name
    length; no benchmark runs here."""
    extracted = []

    def fake_extract(rev, dest):
        extracted.append((rev, dest.name, dest.parent))
        dest.mkdir(parents=True)
        (dest / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [{"name": "wall_ref", "better": "lower"}]}))

    calls = []

    def fake_run(checkout, args):
        calls.append(checkout.name)
        return record(50.0 if checkout.name == "rev_a" else 45.0)

    monkeypatch.setattr(pairs, "extract", fake_extract)
    monkeypatch.setattr(pairs, "run_once", fake_run)
    assert pairs.main(["HEAD~1", "HEAD", "--workload", "diffusion-train", "--pairs", "3"]) == 0
    assert [x[:2] for x in extracted] == [("HEAD~1", "rev_a"), ("HEAD", "rev_b")]
    assert extracted[0][2] == extracted[1][2] and not extracted[0][2].exists()
    assert calls == ["rev_a", "rev_b", "rev_b", "rev_a", "rev_a", "rev_b"]
    out = capsys.readouterr().out
    assert "pair 2/3 (B first): wall_ref 50 -> 45" in out and rows(out)["wall_ref"][-2:] == ["3/3", "yes"]
