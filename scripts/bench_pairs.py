"""Run one benchmark workload in alternating pairs: a parent commit against
the working tree, and write one JSON file.

Run from the repository root::

    python3 scripts/bench_pairs.py --parent HEAD~1 --workload calibrate_grid \
        --pairs 10 --seconds 30 --seed 11 PAIRS.json

It exports ``--parent`` with ``git archive`` into a temporary directory
(the repository's ``.git`` is only read), then runs
``python3 benchmarks/run.py --workload W --seed K --trace 0 --seconds S``
once in that export and once in the working tree per pair, one after the
other, the parent first in even pairs and the change first in odd ones.
Each run prints the end-to-end metrics of ``BENCHMARK.json``, each a
median over that run's reps.  The file holds every pair's values, each
side's median and quartiles over the pairs, and per metric the change's
wins, losses and ties (equal values count for neither side) and whether
the pairs show a gain: wins in at least nine tenths of the pairs and a
median better than the parent's by more than the parent's interquartile
range.  It applies no gate: the exit status does not depend on the
numbers.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "scripts"))
from bench_json import spread  # noqa: E402

SIDES = ("parent", "change")


def export(rev: str, dest: Path) -> None:
    """Write the tree of commit ``rev`` into ``dest``."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev],
                             cwd=ROOT, capture_output=True, check=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout,
                   check=True)


def run_side(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``tree``: each metric's value, whether every
    rep's outputs checked out, and the attempted and failed rep counts."""
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload,
         "--seed", str(seed), "--trace", "0", "--seconds", str(seconds)],
        cwd=tree, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    return {"metrics": {name: metric["value"]
                        for name, metric in result["metrics"].items()},
            **{key: result[key] for key in ("correct", "attempted",
                                            "failed")}}


def summarize(pairs: list[dict], declared: list[dict]) -> dict:
    """Per metric of ``declared`` (``BENCHMARK.json``'s ``end_to_end``),
    each side's spread over ``pairs`` and the change's pairwise record.

    Each pair maps ``"parent"`` and ``"change"`` to a :func:`run_side`
    record.
    """
    metrics = {}
    for metric in declared:
        name, lower = metric["name"], metric["better"] == "lower"
        values = {side: [pair[side]["metrics"][name] for pair in pairs]
                  for side in SIDES}
        wins = losses = 0
        for parent, change in zip(values["parent"], values["change"]):
            if change != parent:
                if (change < parent) == lower:
                    wins += 1
                else:
                    losses += 1
        parent, change = (spread(values[side]) for side in SIDES)
        gap = parent["median"] - change["median"]
        if not lower:
            gap = -gap
        metrics[name] = {
            "unit": metric["unit"], "better": metric["better"],
            "parent": parent, "change": change,
            "wins": wins, "losses": losses,
            "ties": len(pairs) - wins - losses,
            "gain": 10 * wins >= 9 * len(pairs) and gap > parent["iqr"],
        }
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True,
                        help="commit to compare the working tree against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("out", help="JSON file to write")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 for quartiles")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    pairs = []
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees = {"parent": Path(tmp), "change": ROOT}
        export(args.parent, trees["parent"])
        for k in range(args.pairs):
            order = SIDES if k % 2 == 0 else SIDES[::-1]
            pair = {side: run_side(trees[side], args.workload, args.seed,
                                   args.seconds) for side in order}
            pairs.append({"first": order[0], **pair})
            print(f"pair {k}: run_s parent "
                  f"{pair['parent']['metrics']['run_s']:.4g} s, change "
                  f"{pair['change']['metrics']['run_s']:.4g} s",
                  file=sys.stderr)
    doc = {"parent": args.parent, "workload": args.workload,
           "seed": args.seed, "seconds": args.seconds, "pairs": pairs,
           "metrics": summarize(pairs, declared["end_to_end"])}
    Path(args.out).write_text(json.dumps(doc, indent=2, sort_keys=True)
                              + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
