"""One benchmark rep in a fresh process: set up, make the entry call, check.

``run.py`` starts this file once per rep::

    python3 benchmarks/child.py --workload W --seed N --rep K \\
        --t0 SPAWN_TIME --workdir DIR [--trace] [--smoke]

``SPAWN_TIME`` is run.py's ``CLOCK_MONOTONIC`` reading just before it
started the process, so ``setup_s`` covers interpreter start, ``import
saew`` and the config build (plus, for the CLI workload, writing its INI
file).  ``run_s`` is the wall time of the entry call or calls, all outputs
written.  The outputs are then read back and checked, untimed, and the
result is written to ``DIR/result.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
import time
import traceback
from pathlib import Path

from workloads import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parents[1]
PLOT_FILES = ("summary.csv", "finals.csv", "plot_l2.gp", "plot_cum_risk.gp",
              "plot_sessions.gp")
# Acceptance check 9's factor between the aggregate and the best candidate.
META_OVER_BEST_MAX = 4.0


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def prepare(workload: Workload, seed: int, rep: int, workdir: Path,
            smoke: bool):
    """Build the rep's config and return ``(config, entry)``."""
    import saew.cli
    import saew.harness

    fields = dict(workload.config)
    if smoke:
        fields["T"] = workload.smoke_T
    outdir = workdir / "out"
    config = saew.harness.ExperimentConfig(
        seeds=workload.stream_seeds(seed, rep), outdir=str(outdir), **fields)
    config.validate()

    if workload.kind == "experiment":
        def entry():
            saew.harness.run_experiment(config, workers=1)
    elif workload.kind == "calibrate":
        def entry():
            saew.harness.run_calibrate(config)
    else:
        ini = workdir / "experiment.ini"
        config.to_ini(ini)

        def entry():
            codes = [saew.cli.main(["run", "--config", str(ini),
                                    "--workers", "1"]),
                     saew.cli.main(["summarize", str(outdir)]),
                     saew.cli.main(["plots", str(outdir)])]
            if any(codes):
                raise RuntimeError(f"saew CLI exit codes {codes}")
    return config, entry


def check_outputs(workload: Workload, config) -> tuple[list[float], list[str]]:
    """Read the written outputs back; return per-stream risks and errors.

    Stream workloads report ``risk_tilde`` at ``t = T`` of each run CSV,
    ``calibrate_grid`` the last session's ``meta_risk``.
    """
    from saew.core import RunRecord
    from saew.harness import CALIBRATION_COLUMNS

    outdir = Path(config.outdir)
    risks: list[float] = []
    errors: list[str] = []
    for seed in config.seeds:
        if workload.kind == "calibrate":
            path = outdir / f"calibration_seed{seed}.csv"
            if not path.exists():
                errors.append(f"missing {path.name}")
                continue
            lines = path.read_text().splitlines()
            if lines[0] != ",".join(CALIBRATION_COLUMNS):
                errors.append(f"{path.name}: bad header {lines[0]!r}")
                continue
            sessions = config.T.bit_length() - 1
            if len(lines) - 1 != sessions:
                errors.append(f"{path.name}: {len(lines) - 1} sessions, "
                              f"expected {sessions}")
                continue
            # best_candidate labels hold commas; the two risks are the
            # last two fields.
            fields = lines[-1].split(",")
            meta, best = float(fields[-2]), float(fields[-1])
            if not (math.isfinite(meta) and meta <= META_OVER_BEST_MAX * best):
                errors.append(f"{path.name}: meta_risk {meta} above "
                              f"{META_OVER_BEST_MAX} x best_risk {best}")
                continue
            risks.append(meta)
            continue

        path = outdir / f"run_seed{seed}.csv"
        try:
            record = RunRecord.from_csv(path)
            record.validate()
        except (OSError, ValueError) as exc:
            errors.append(f"{path.name}: {exc}")
            continue
        if len(record.rows) != config.T or record.seed != seed:
            errors.append(f"{path.name}: {len(record.rows)} rows for seed "
                          f"{record.seed}, expected {config.T} for {seed}")
            continue
        risk = record.rows[-1][record.columns.index("risk_tilde")]
        if not math.isfinite(risk):
            errors.append(f"{path.name}: final risk_tilde {risk}")
            continue
        risks.append(risk)

    if workload.kind == "cli":
        for name in PLOT_FILES:
            path = outdir / name
            if not path.exists() or path.stat().st_size == 0:
                errors.append(f"missing or empty {name}")
    return risks, errors


def versions() -> dict:
    """Interpreter, numpy, scipy and BLAS build of this process."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": {k: blas.get(k) for k in ("name", "version",
                                               "openblas configuration")}}


def run_rep(workload: Workload, seed: int, rep: int, workdir: Path,
            t0: float, trace: bool = False, smoke: bool = False) -> dict:
    """Set up, run and check one rep; return its result record."""
    import saew

    result = {"workload": workload.name, "seed": seed, "rep": rep,
              "trace": trace, "smoke": smoke, "ok": False, "errors": []}
    src = ROOT / "src"
    if src not in Path(saew.__file__).resolve().parents:
        result["errors"].append(f"saew imported from {saew.__file__}, "
                                f"not from {src}")
        return result
    config, entry = prepare(workload, seed, rep, workdir, smoke)
    result["stream_seeds"] = list(config.seeds)
    tracer = None
    t_setup = _now()
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    t_start = _now()
    try:
        entry()
    finally:
        t_end = _now()
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            tracer.restore()
    result["setup_s"] = t_setup - t0
    result["run_s"] = t_end - t_start
    result["peak_rss_mb"] = peak_kb / 1024.0

    from saew.calibration import grid_cost

    calibrating = workload.kind == "calibrate"
    per_stream = (grid_cost(config.T, config.d, config.cal_Y,
                            config.cal_clamp) if calibrating else config.T)
    result["work"] = per_stream * len(config.seeds)
    result["final_risks"], result["errors"] = check_outputs(workload, config)
    if tracer is not None:
        result["layers"] = tracer.metrics(
            result["run_s"], result["work"] if calibrating else 0)
        tracer.save(workdir / "spans.npz", run_id=rep)
    result["versions"] = versions()
    result["ok"] = not result["errors"]
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rep", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    out = args.workdir / "result.json"
    try:
        result = run_rep(WORKLOADS[args.workload], args.seed, args.rep,
                         args.workdir, args.t0, args.trace, args.smoke)
    except Exception:  # reported to run.py, which counts the rep failed
        result = {"ok": False, "errors": [traceback.format_exc()]}
    out.write_text(json.dumps(result) + "\n")
    return 0 if result["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
