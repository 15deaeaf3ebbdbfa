"""Self-test of the saew benchmark at smoke size.

Run from the repository root::

    python3 -m pytest benchmarks
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import child  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from workloads import TIME_UNITS, WORKLOADS  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int, cwd: Path = ROOT
              ) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def smoke_rep(workload: str, workdir: Path, seed: int = 0, rep: int = 1,
              trace: bool = False) -> dict:
    workdir.mkdir(parents=True, exist_ok=True)
    return child.run_rep(WORKLOADS[workload], seed, rep, workdir,
                         time.clock_gettime(time.CLOCK_MONOTONIC),
                         trace=trace, smoke=True)


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCH["per_layer"]] == list(
        tracer.PER_LAYER)
    reference = json.loads((HERE / "reference.json").read_text())
    assert set(reference) == set(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_is_printed_with_its_unit(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    printed = {line.split()[0]: line.split()[2] for line in lines
               if line.startswith("  ") and len(line.split()) >= 3}
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert printed[metric["name"]] == metric["unit"]
    assert printed["fail_ratio"] == "ratio"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_self_times_fit_and_counts_repeat(workload, tmp_path):
    reps = [smoke_rep(workload, tmp_path / str(k), trace=True)
            for k in range(2)]
    for rep in reps:
        assert rep["ok"], rep["errors"]
        layers = rep["layers"]
        self_total = sum(layers[f"{g}.self_s"] for g in tracer.SELF_GROUPS)
        assert 0.0 < self_total + layers["trace.hook_s"] <= rep["run_s"]
        assert layers["trace.unattributed_s"] >= 0.0
    counts = [{name: rep["layers"][name] for name, unit in tracer.PER_LAYER
               if unit not in TIME_UNITS
               and not name.startswith("trace.")} for rep in reps]
    assert counts[0] == counts[1]


def test_hook_time_is_not_program_time():
    trace = tracer.Tracer()
    inner = trace.wrap(lambda: None, "subroutine.update",
                       lambda idx, args, result: time.sleep(0.05))
    outer = trace.wrap(inner, "engine.step")
    t0 = time.perf_counter()
    outer()
    layers = trace.metrics(time.perf_counter() - t0, 0)
    assert layers["trace.hook_s"] >= 0.05
    assert layers["engine.step.self_s"] < 0.01
    assert layers["engine.step.p50_us"] < 1e4
    assert 0.0 <= layers["trace.unattributed_s"] < 0.01


def test_final_risk_check_catches_drift():
    ref = json.loads((HERE / "reference.json").read_text())["saew_square"]

    def rep(k, value):
        return {"ok": True, "rep": k, "errors": [], "final_risks": [value]}

    reps = [rep(0, ref * (1 + 1e-3)), rep(1, ref * 1000),
            rep(2, ref / 1000), rep(3, ref * 2)]
    run.check_final_risk("saew_square", reps)
    assert [r["ok"] for r in reps] == [False, False, False, True]
    reps = [rep(0, ref), rep(1, ref / 2)]
    run.check_final_risk("saew_square", reps)
    assert all(r["ok"] for r in reps)


def test_seed_changes_the_streams(tmp_path):
    workload = WORKLOADS["rda_cli"]
    assert workload.stream_seeds(0, 1) == workload.stream_seeds(0, 1)
    assert workload.stream_seeds(0, 1) != workload.stream_seeds(1, 1)
    assert workload.stream_seeds(0, 1) != workload.stream_seeds(0, 2)
    # The reference rep sees the same streams under every seed.
    assert workload.stream_seeds(0, 0) == workload.stream_seeds(7, 0)
    assert workload.stream_seeds(0, 0) not in (workload.stream_seeds(0, 1),
                                               workload.stream_seeds(7, 1))
    risks = [smoke_rep("rda_cli", tmp_path / str(seed), seed=seed, rep=1)
             ["final_risks"] for seed in (0, 1)]
    assert risks[0] != risks[1]


def test_checks_catch_broken_outputs(tmp_path):
    rep = smoke_rep("rda_cli", tmp_path)
    assert rep["ok"], rep["errors"]
    config, _ = child.prepare(WORKLOADS["rda_cli"], 0, 1, tmp_path,
                              smoke=True)
    outdir = Path(config.outdir)
    csv = outdir / f"run_seed{config.seeds[0]}.csv"
    lines = csv.read_text().splitlines()
    lines[-1] = ",".join(["0"] * len(lines[-1].split(",")))  # t out of order
    csv.write_text("\n".join(lines) + "\n")
    (outdir / "plot_sessions.gp").unlink()
    _, errors = child.check_outputs(WORKLOADS["rda_cli"], config)
    assert any(csv.name in e for e in errors)
    assert any("plot_sessions.gp" in e for e in errors)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("saew_square", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
