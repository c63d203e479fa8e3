"""``tools/paired_bench.py`` alternates the two checkouts and applies the claim rule."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "tools" / "paired_bench.py"

spec = importlib.util.spec_from_file_location("paired_bench", SCRIPT)
paired_bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(paired_bench)

#: Ten parent runs: quartiles 11.75 and 17.25, median 14.5.
PARENT = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]


@pytest.mark.parametrize(
    "better, change, wins, claim",
    [
        # 6 lower in every pair: a median gap of 6 beats the spread of 5.5
        ("lower", [p - 6 for p in PARENT], 10, True),
        # 5 lower in every pair: a gap of 5 does not
        ("lower", [p - 5 for p in PARENT], 10, False),
        # one tie and nine wins: nine tenths
        ("lower", [p - 6 for p in PARENT[:9]] + [19.0], 9, True),
        # two ties: eight wins are too few
        ("lower", [p - 6 for p in PARENT[:8]] + [18.0, 19.0], 8, False),
        ("higher", [p + 6 for p in PARENT], 10, True),
        ("higher", [p - 6 for p in PARENT], 0, False),
    ],
    ids=["gain", "within-spread", "one-tie", "two-ties", "higher-gain", "higher-loss"],
)
def test_summary_of_fixed_numbers(better, change, wins, claim):
    summary = paired_bench.summarise(better, PARENT, change)
    assert summary["parent"] == (11.75, 14.5, 17.25)
    assert summary["wins"] == wins and summary["pairs"] == 10
    assert summary["claim"] is claim


def test_report_line():
    line = paired_bench.report("wall_s", paired_bench.summarise("lower", PARENT, [
        p - 6 for p in PARENT]))
    assert line == ("wall_s: parent 14.5 (q1 11.75, q3 17.25), change 8.5 (q1 5.75, q3 11.25), "
                    "ratio 0.586, change won 10 of 10, gain claimed: yes")


def test_pairs_alternate_which_side_runs_first(monkeypatch, tmp_path, capsys):
    # each run lasts the run_seconds of the change's BENCHMARK.json
    parent, change = tmp_path / "parent", tmp_path / "change"
    for checkout in (parent, change):
        checkout.mkdir()
    metrics = [{"name": "wall_s", "better": "lower"}]
    (change / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 2, "end_to_end": metrics}))
    calls = []

    def fake_run(checkout, workload, seed, seconds):
        calls.append((checkout.name, workload, seed, seconds))
        wall = 2.0 if checkout.name == "parent" else 1.0
        return {"correct": True, "attempted": 1, "failed": 0,
                "metrics": {"wall_s": {"value": wall + seed / 100, "unit": "s"}}}

    monkeypatch.setattr(paired_bench, "run", fake_run)
    argv = [str(parent), str(change), "--workload", "w", "--pairs", "3", "--first-seed", "4"]
    assert paired_bench.main(argv) == 0
    assert calls == [
        ("parent", "w", 4, 2), ("change", "w", 4, 2),
        ("change", "w", 5, 2), ("parent", "w", 5, 2),
        ("parent", "w", 6, 2), ("change", "w", 6, 2),
    ]
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "pair 1 of 3 (seed 4): wall_s 2.04 -> 1.04",
        "pair 2 of 3 (seed 5): wall_s 2.05 -> 1.05",
        "pair 3 of 3 (seed 6): wall_s 2.06 -> 1.06",
    ]
    out = captured.out.splitlines()
    assert out[:2] == ["parent: 0 of 3 operations failed, 0 of 3 runs not correct",
                       "change: 0 of 3 operations failed, 0 of 3 runs not correct"]
    assert out[2].startswith("wall_s: parent 2.05 ") and out[2].endswith("won 3 of 3, gain claimed: yes")
