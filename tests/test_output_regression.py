"""Run outputs against committed fixtures (``tests/data/*.csv.gz``).

The fixtures are the run and calibration CSVs that ``run_experiment`` wrote
for the configs below while the engine still kept the session average as
an incremental mean.  ``eg``, ``rda`` and calibration CSVs must match them
byte for byte.  For ``saew`` runs the ``t`` and ``session`` columns must
match byte for byte and every other field to a relative 1e-9: the engine
now divides the session sum by the window, which rounds differently from
the incremental mean and moved ``%.12g`` fields by at most about 1e-11
relative on these configs.
"""

import gzip
import math
from pathlib import Path

import pytest

from saew.harness import ExperimentConfig, run_experiment

DATA = Path(__file__).resolve().parent / "data"
SEED = 1
WRAPPER = dict(alpha=30.0, U=1.0, B=8.0, delta=0.05)
SQUARE = dict(env="square", d0=2, noise_sd=0.1)

# Fixture name -> ExperimentConfig fields except seeds and outdir.
CONFIGS = {
    "saew_square": dict(SQUARE, d=20, algorithm="saew", T=3000,
                        trace_bounds=True, **WRAPPER),
    # Its last two sessions run 1478 and 1093 steps.
    "saew_truncated": dict(SQUARE, env="truncated_square", d=10,
                           algorithm="saew", T=5000, **WRAPPER),
    "saew_quantile_mc": dict(env="quantile", d=10, d0=2, alpha_q=0.8,
                             noise_sd=0.1, algorithm="saew", T=300,
                             mc_risk=True, **WRAPPER),
    "eg_square": dict(SQUARE, d=10, algorithm="eg", T=1000, U=1.0, B=8.0),
    "rda_square": dict(SQUARE, d=10, algorithm="rda", T=1000,
                       rda_gamma=10.0),
    "calibrate_grid": dict(SQUARE, d=10, algorithm="calibrate", T=32,
                           cal_Y=2.0, delta=0.05, cal_clamp_lo=-2,
                           cal_clamp_hi=2),
}


def run_csv(name: str, outdir: Path) -> str:
    """Text of the one CSV that config ``name`` writes for :data:`SEED`."""
    config = ExperimentConfig(seeds=(SEED,), outdir=str(outdir),
                              **CONFIGS[name])
    paths = run_experiment(config)
    return paths[0].read_text()


def fixture_csv(name: str) -> str:
    with gzip.open(DATA / f"{name}.csv.gz", "rt") as fh:
        return fh.read()


@pytest.mark.filterwarnings(
    "ignore:observed gradient sup-norm exceeds:RuntimeWarning")
@pytest.mark.parametrize("name", ["eg_square", "rda_square",
                                  "calibrate_grid"])
def test_output_is_byte_identical(tmp_path, name):
    # Line by line: pytest's diff of two whole files would take minutes.
    got = run_csv(name, tmp_path).splitlines(keepends=True)
    want = fixture_csv(name).splitlines(keepends=True)
    assert len(got) == len(want)
    for line, (g, w) in enumerate(zip(got, want), 1):
        assert g == w, f"line {line}"


@pytest.mark.filterwarnings(
    "ignore:observed gradient sup-norm exceeds:RuntimeWarning")
@pytest.mark.parametrize("name", ["saew_square", "saew_truncated",
                                  "saew_quantile_mc"])
def test_saew_output_matches_to_rounding(tmp_path, name):
    got = run_csv(name, tmp_path).splitlines()
    want = fixture_csv(name).splitlines()
    assert got[0] == want[0]
    assert len(got) == len(want)
    header = want[0].split(",")
    exact = [header.index("t"), header.index("session")]
    for line, (got_line, want_line) in enumerate(zip(got[1:], want[1:]), 2):
        got_fields, want_fields = got_line.split(","), want_line.split(",")
        assert [got_fields[i] for i in exact] == \
            [want_fields[i] for i in exact], f"line {line}"
        for column, g, w in zip(header, got_fields, want_fields):
            assert math.isclose(float(g), float(w), rel_tol=1e-9), \
                f"line {line}, {column}: {g} != {w}"
