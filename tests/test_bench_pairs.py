"""The paired benchmark script's summary (scripts/bench_pairs.py), on
canned run records."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"

DECLARED = [{"name": "run_s", "unit": "s", "better": "lower"},
            {"name": "steps_per_s", "unit": "steps/s", "better": "higher"}]


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("saew_bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _pairs(parent_run_s, change_run_s):
    def record(run_s):
        return {"metrics": {"run_s": run_s, "steps_per_s": 100.0 / run_s},
                "correct": True, "attempted": 3, "failed": 0}
    return [{"first": "parent" if k % 2 == 0 else "change",
             "parent": record(p), "change": record(c)}
            for k, (p, c) in enumerate(zip(parent_run_s, change_run_s))]


def test_summary_counts_wins_and_reads_the_parent_quartiles(bench_pairs):
    parent = [1.0, 1.2, 1.1, 1.3, 1.0, 1.4, 1.1, 1.2, 1.3, 1.2]
    change = [0.7, 0.8, 0.7, 0.9, 0.8, 0.9, 0.7, 0.8, 0.9, 0.8]
    summary = bench_pairs.summarize(_pairs(parent, change), DECLARED)
    run_s = summary["run_s"]
    assert (run_s["wins"], run_s["losses"], run_s["ties"]) == (10, 0, 0)
    assert run_s["parent"]["median"] == 1.2
    assert run_s["parent"]["q1"] == pytest.approx(1.1)
    assert run_s["parent"]["q3"] == pytest.approx(1.275)
    assert run_s["change"]["median"] == 0.8
    assert run_s["gain"]
    # A higher-is-better metric wins where it rises.
    assert summary["steps_per_s"]["wins"] == 10
    assert summary["steps_per_s"]["gain"]


def test_summary_needs_nine_tenths_of_the_pairs(bench_pairs):
    parent = [1.0] * 10
    change = [0.5] * 8 + [1.5, 1.0]
    run_s = bench_pairs.summarize(_pairs(parent, change), DECLARED)["run_s"]
    # The tie counts for neither side.
    assert (run_s["wins"], run_s["losses"], run_s["ties"]) == (8, 1, 1)
    assert not run_s["gain"]


def test_summary_needs_a_gap_beyond_the_parent_spread(bench_pairs):
    # Every pair won, by less than the parent's interquartile range.
    parent = [1.0, 2.0] * 5
    change = [0.9, 1.9] * 5
    run_s = bench_pairs.summarize(_pairs(parent, change), DECLARED)["run_s"]
    assert run_s["wins"] == 10
    assert run_s["parent"]["iqr"] == 1.0
    assert not run_s["gain"]
