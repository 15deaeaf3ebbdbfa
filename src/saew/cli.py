"""Command-line entry point: run, summarize, plots.

A config with ``algorithm = calibrate`` runs the calibration loop through
``run``.

Exit codes: 0 success, 2 configuration error (the message names the
offending key), 3 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from saew.calibration import BudgetExceededError
from saew.harness import (
    ConfigError,
    ExperimentConfig,
    emit_plots,
    load_run_records,
    run_experiment,
    summarize,
    write_summary,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="saew",
        description="Sparse acceleration wrapper experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment from a config file")
    run_p.add_argument("--config", required=True, help="INI config file")
    run_p.add_argument("--out", help="override the configured output dir")
    run_p.add_argument("--workers", type=_positive_int, default=1,
                       help="processes for multi-seed runs (default 1)")

    sum_p = sub.add_parser("summarize",
                           help="aggregate run CSVs in a directory")
    sum_p.add_argument("dir", help="run directory: its config.ini names "
                       "the seeds whose run_seed<k>.csv are read")

    plot_p = sub.add_parser("plots",
                            help="emit gnuplot scripts for a directory")
    plot_p.add_argument("dir", help="directory holding summary.csv")
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    config = ExperimentConfig.from_ini(args.config)
    if args.out is not None:
        config = dataclasses.replace(config, outdir=args.out)
    paths = run_experiment(config, workers=args.workers)
    print(f"wrote {len(paths)} files under {config.outdir}")
    return EXIT_OK


def _cmd_summarize(args: argparse.Namespace) -> int:
    records = load_run_records(args.dir)
    summary = summarize(records)
    write_summary(summary, args.dir)
    finals = summary.finals
    print(f"{len(records)} runs, T={int(summary.t[-1])}")
    for s in finals:
        print(f"seed {s.seed}: final_log_l2={s.final_log_l2:.6g} "
              f"final_cum_risk={s.final_cum_risk:.6g} slope={s.slope:.6g}")
    return EXIT_OK


def _cmd_plots(args: argparse.Namespace) -> int:
    paths = emit_plots(args.dir)
    print(f"wrote {len(paths)} plot files under {args.dir}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    """CLI dispatcher; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "summarize": _cmd_summarize,
        "plots": _cmd_plots,
    }
    try:
        return handlers[args.command](args)
    except (ConfigError, BudgetExceededError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
