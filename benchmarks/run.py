"""saew benchmark: one workload, one seed, a fixed measuring time.

Run from the repository root::

    python3 benchmarks/run.py --workload saew_square --seed 0 --seconds 30 --trace 0

It starts one fresh process per rep (``child.py``), one after the
other: at least two reps (the reference rep, whose streams are the same for
every seed, and one on the seed's streams), then more while another rep of
median length still ends within ``--seconds``.  With ``--trace 0`` it
prints the end-to-end metrics of ``BENCHMARK.json`` (medians over reps);
with ``--trace 1`` it alternates traced and untraced reps and prints the
per-layer metrics.  Every rep's
outputs are read back and checked; the last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Files go under
``.bench_out/`` in the repository root.

This module imports no numpy: a child started from it by ``vfork`` can
report this process's memory high-water mark as its own ``ru_maxrss``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import REFERENCE_REP, TIME_UNITS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".bench_out"
REFERENCE = HERE / "reference.json"

# One BLAS/OpenMP thread per child: seed-parallel and threaded scaling on
# a small shared machine would not be steady.
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}
# A fixed string-hash seed, so dict and set layouts, and with them the
# interpreter's own timing, do not change from one child to the next.
CHILD_ENV = dict(THREAD_PINS, PYTHONHASHSEED="0")
# The whole run ends within 180 s: no rep starts after LAST_START_S and no
# child outlives the deadline.
LAST_START_S = 120.0
DEADLINE_S = 170.0
# Reps always made: the reference rep and at least one rep on the seed's
# own streams.  In a traced run these are the reps whose counts are
# reported, so counts repeat exactly for a seed.
MIN_REPS = 2
# The reference rep's final risk must match reference.json to FINAL_RISK_RTOL;
# every other rep's must lie within a factor FINAL_RISK_BAND of it (a
# divergence check that holds for any seed).
FINAL_RISK_RTOL = 1e-6
FINAL_RISK_BAND = 100.0


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def spawn(workload: str, seed: int, rep: int, workdir: Path, trace: bool,
          smoke: bool, deadline: float) -> dict:
    """Run one rep in a fresh process and return its result record."""
    repdir = workdir / f"{'traced' if trace else 'rep'}{rep}"
    repdir.mkdir(parents=True)
    src = str(ROOT / "src")
    pythonpath = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=pythonpath, **CHILD_ENV)
    args = ["--workload", workload, "--seed", str(seed), "--rep", str(rep),
            "--workdir", str(repdir)]
    args += ["--trace"] * trace + ["--smoke"] * smoke
    with open(repdir / "stdout.log", "w") as out, \
            open(repdir / "stderr.log", "w") as err:
        t0 = _now()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), "--t0", repr(t0)] + args,
            cwd=repdir, env=env, stdin=subprocess.DEVNULL, stdout=out,
            stderr=err)
        try:
            code = proc.wait(timeout=max(deadline - _now(), 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            return {"ok": False, "rep": rep,
                    "errors": ["timed out before the run deadline"]}
    result_path = repdir / "result.json"
    if not result_path.exists():
        tail = (repdir / "stderr.log").read_text()[-2000:]
        return {"ok": False, "rep": rep,
                "errors": [f"child exited with code {code}: {tail}"]}
    result = json.loads(result_path.read_text())
    result["rep"] = rep
    return result


def run_reps(workload: str, seed: int, seconds: float, trace: bool,
             smoke: bool, workdir: Path) -> tuple[list[dict], list[dict]]:
    """Make ``MIN_REPS`` reps, then more while the median rep so far still
    fits in what is left of ``seconds``, so a run ends close to ``seconds``.

    Returns ``(untraced, traced)``; in trace mode each traced rep is
    followed by an untraced one on the same streams.
    """
    start = _now()
    deadline = start + DEADLINE_S
    untraced: list[dict] = []
    traced: list[dict] = []
    durations: list[float] = []
    rep = 0
    while rep < MIN_REPS or (
            _now() - start + statistics.median(durations) <= seconds):
        if _now() - start > LAST_START_S:
            break
        t_rep = _now()
        if trace:
            traced.append(spawn(workload, seed, rep, workdir, True, smoke,
                                deadline))
        untraced.append(spawn(workload, seed, rep, workdir, False, smoke,
                              deadline))
        durations.append(_now() - t_rep)
        rep += 1
    return untraced, traced


def median_of(reps: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in reps)


def check_final_risk(workload: str, reps: list[dict]) -> None:
    """Mark failed the reps whose final risk leaves the reference band, and
    the reference rep if it does not reproduce the stored value."""
    ref = json.loads(REFERENCE.read_text())[workload]
    low, high = ref / FINAL_RISK_BAND, ref * FINAL_RISK_BAND
    for r in reps:
        if not r["ok"]:
            continue
        value = statistics.median(r["final_risks"])
        if not low <= value <= high:
            r["ok"] = False
            r["errors"].append(f"final risk {value} outside the reference "
                               f"band [{low:.6g}, {high:.6g}]")
        elif r["rep"] == REFERENCE_REP and not math.isclose(
                value, ref, rel_tol=FINAL_RISK_RTOL):
            r["ok"] = False
            r["errors"].append(f"final_risk {value} differs from the "
                               f"reference {ref}")


def end_to_end(workload: str, reps: list[dict], smoke: bool
               ) -> dict[str, float]:
    """Medians over reps; final_risk from the reference rep's streams."""
    final_risk = statistics.median(reps[REFERENCE_REP].get(
        "final_risks") or [math.nan])
    if not smoke:
        check_final_risk(workload, reps)
    timed = [r for r in reps if "run_s" in r]
    return {
        "setup_s": median_of(timed, "setup_s"),
        "run_s": median_of(timed, "run_s"),
        "steps_per_s": statistics.median(r["work"] / r["run_s"]
                                         for r in timed),
        "peak_rss_mb": median_of(timed, "peak_rss_mb"),
        "final_risk": final_risk,
    }


def per_layer(declared: list[dict], traced: list[dict],
              untraced: list[dict]) -> dict[str, float]:
    """Timings are medians over traced reps; counts are means over the
    first MIN_REPS traced reps."""
    timed = [r for r in traced if "layers" in r]
    counted = [r for r in traced[:MIN_REPS] if "layers" in r] or timed
    out: dict[str, float] = {}
    for metric in declared:
        name = metric["name"]
        if name in ("trace.run_s", "trace.untraced_run_s",
                    "trace.overhead_s"):
            continue
        if metric["unit"] in TIME_UNITS:
            out[name] = statistics.median(r["layers"][name] for r in timed)
        else:
            out[name] = statistics.fmean(r["layers"][name] for r in counted)
    out["trace.run_s"] = median_of(timed, "run_s")
    out["trace.untraced_run_s"] = median_of(
        [r for r in untraced if "run_s" in r], "run_s")
    out["trace.overhead_s"] = out["trace.run_s"] - out["trace.untraced_run_s"]
    return out


def machine() -> dict:
    """What the numbers were measured on (children add library versions)."""
    model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": model or platform.processor(),
            "python": platform.python_version(),
            "git_commit": git_commit(),
            "source_sha256": source_digest(),
            "child_env": CHILD_ENV}


def source_digest() -> str:
    """Digest of the package sources; the checkout may have no ``.git``."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "saew").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    """HEAD of the checkout's own ``.git``, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny horizons and no reference check "
                             "(self-test)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "saew" / "__init__.py").exists():
        print(f"no saew sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in declared[section]}

    workdir = WORK_ROOT / (f"{args.workload}-seed{args.seed}-trace{args.trace}"
                           + ("-smoke" if args.smoke else ""))
    shutil.rmtree(workdir, ignore_errors=True)
    untraced, traced = run_reps(args.workload, args.seed, args.seconds,
                                bool(args.trace), args.smoke, workdir)
    reps = traced + untraced
    key = "layers" if args.trace else "run_s"
    measured = [r for r in (traced if args.trace else untraced) if key in r]
    if measured:
        if args.trace:
            metrics = per_layer(declared[section], traced, untraced)
        else:
            metrics = end_to_end(args.workload, untraced, args.smoke)
    failed = [r for r in reps if not r["ok"]]
    for r in failed:
        print(f"rep {r['rep']} failed: {r['errors']}", file=sys.stderr)
    if not measured or not all(map(math.isfinite, metrics.values())):
        print("nothing measured", file=sys.stderr)
        return 1

    n_ok = len(reps) - len(failed)
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(reps)} reps, {n_ok} ok")
    for name, unit in units.items():
        print(f"  {name:<36} {metrics[name]:.6g} {unit}")
    print(f"  {'fail_ratio':<36} {len(failed) / len(reps):.6g} ratio "
          f"({len(failed)}/{len(reps)} reps)")
    if not args.trace:
        samples = sorted(r["run_s"] for r in measured)
        n = len(samples)
        tail = ("none, fewer than 11 samples" if n < 11 else
                f"p{100 * (n - 10) / n:.0f} = {samples[n - 11]:.6g} s")
        print(f"run_s over {n} reps: p50 = {metrics['run_s']:.6g} s; "
              f"highest percentile with 10 samples beyond it: {tail}")
    env = machine()
    env["versions"] = next(r["versions"] for r in reps if "versions" in r)
    print("# env " + json.dumps(env, sort_keys=True))
    (workdir / "summary.json").write_text(json.dumps(
        {"args": vars(args), "env": env, "metrics": metrics, "reps": reps},
        indent=1) + "\n")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(reps),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
