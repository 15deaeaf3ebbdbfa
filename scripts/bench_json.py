"""Run the benchmark's four workloads at fixed seeds and write one JSON file.

Run from the repository root::

    python3 scripts/bench_json.py BENCH_9.json

For each workload of ``BENCHMARK.json`` and each seed 1-3 it runs
``python3 benchmarks/run.py --workload W --seed S --trace 0 --seconds 30``
(one after the other) and keeps the end-to-end metrics it prints, each a
median over that run's reps.  The file holds, per workload, those per-seed
medians, their median and interquartile range across the seeds, whether
every rep's outputs checked out, the failed and attempted rep counts, and
the ``# env`` line of the last run.  It applies no pass/fail gate: it
records a point of the performance trajectory, to compare with the file of
another commit.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 2, 3)
SECONDS = 30


def run_one(workload: str, seed: int) -> tuple[dict, dict]:
    """One benchmark run: its final JSON object and its ``# env`` line."""
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload,
         "--seed", str(seed), "--trace", "0", "--seconds", str(SECONDS)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    env = next(json.loads(line.removeprefix("# env "))
               for line in lines if line.startswith("# env "))
    return json.loads(lines[-1]), env


def spread(values: list[float]) -> dict:
    """Median and interquartile range of ``values``."""
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "iqr": q3 - q1}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", help="JSON file to write, e.g. BENCH_9.json")
    args = parser.parse_args(argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    doc: dict = {"seeds": list(SEEDS), "seconds": SECONDS, "workloads": {}}
    for workload in (w["name"] for w in declared["workloads"]):
        runs = {}
        for seed in SEEDS:
            runs[seed], doc["env"] = run_one(workload, seed)
            print(f"{workload} seed {seed}: "
                  f"run_s {runs[seed]['metrics']['run_s']['value']:.4g} s",
                  file=sys.stderr)
        metrics = {}
        for metric in declared["end_to_end"]:
            name = metric["name"]
            per_seed = [runs[seed]["metrics"][name]["value"]
                        for seed in SEEDS]
            metrics[name] = {"unit": metric["unit"],
                             "per_seed": dict(zip(map(str, SEEDS), per_seed)),
                             **spread(per_seed)}
        doc["workloads"][workload] = {
            "metrics": metrics,
            "correct": all(runs[s]["correct"] for s in SEEDS),
            "attempted": sum(runs[s]["attempted"] for s in SEEDS),
            "failed": sum(runs[s]["failed"] for s in SEEDS),
        }
    Path(args.out).write_text(json.dumps(doc, indent=2, sort_keys=True)
                              + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
