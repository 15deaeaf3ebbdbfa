"""Tests for the experiment harness and CLI."""

import contextlib
import csv
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import saew.harness
from saew.baselines import rda_init, rda_predict, rda_step
from saew.calibration import build_grid, run_calibration
from saew.cli import main
from saew.core import BASE_COLUMNS, L1Ball, ProblemParams, RunRecord
from saew.engine import saew_estimators, saew_init, saew_step
from saew.harness import (
    ConfigError,
    ExperimentConfig,
    build_environment,
    emit_plots,
    load_run_records,
    loglog_slope,
    run_calibrate,
    run_experiment,
    run_one_seed,
    summarize,
    write_summary,
)
from saew.losses import (
    gaussian_pinball_risk,
    pinball_subgrad,
    square_grad,
    true_excess_risk,
)
from saew.subroutine import eg_init

pytestmark = pytest.mark.filterwarnings(
    "ignore:observed gradient sup-norm exceeds:RuntimeWarning")


def _config(tmp_path, **overrides) -> ExperimentConfig:
    base = dict(env="square", d=5, d0=2, noise_sd=0.1, algorithm="saew",
                T=30, seeds=(1, 2), outdir=str(tmp_path / "out"),
                alpha=8.0, U=1.0, B=4.0, delta=0.1)
    base.update(overrides)
    return ExperimentConfig(**base)


# ============================================================
# Config round trip and validation
# ============================================================

def test_config_ini_round_trip_lossless(tmp_path):
    cfg = _config(tmp_path, env="quantile", algorithm="saew", T=123,
                  seeds=(7, 11, 13), trace_bounds=True, alpha_q=0.8125,
                  noise_sd=0.017, alpha=3.5, U=0.75, B=2.25, delta=0.0625,
                  saew_d0=4, mc_risk=True,
                  cal_clamp_lo=-2, cal_clamp_hi=3)
    path = tmp_path / "cfg.ini"
    cfg.to_ini(path)
    assert ExperimentConfig.from_ini(path) == cfg


def test_config_round_trip_preserves_none_clamp(tmp_path):
    cfg = _config(tmp_path)
    assert cfg.cal_clamp is None
    path = tmp_path / "cfg.ini"
    cfg.to_ini(path)
    cfg2 = ExperimentConfig.from_ini(path)
    assert cfg2 == cfg and cfg2.cal_clamp is None


def test_config_round_trip_float_exactness(tmp_path):
    # repr round-trips doubles exactly, including non-dyadic values.
    cfg = _config(tmp_path, noise_sd=0.1 + 2e-17, delta=1 / 3)
    path = tmp_path / "cfg.ini"
    cfg.to_ini(path)
    cfg2 = ExperimentConfig.from_ini(path)
    assert cfg2.noise_sd == cfg.noise_sd and cfg2.delta == cfg.delta


def test_config_unknown_key_is_named(tmp_path):
    cfg = _config(tmp_path)
    path = tmp_path / "cfg.ini"
    cfg.to_ini(path)
    path.write_text(path.read_text() + "mystery_knob = 3\n")
    with pytest.raises(ConfigError, match="mystery_knob"):
        ExperimentConfig.from_ini(path)


def test_config_bad_value_is_named(tmp_path):
    cfg = _config(tmp_path)
    path = tmp_path / "cfg.ini"
    cfg.to_ini(path)
    path.write_text(path.read_text().replace("T = 30", "T = soon"))
    with pytest.raises(ConfigError, match="T"):
        ExperimentConfig.from_ini(path)


def test_config_missing_required_key_is_named(tmp_path):
    path = tmp_path / "cfg.ini"
    path.write_text("[experiment]\nenv = square\n")
    with pytest.raises(ConfigError, match="d"):
        ExperimentConfig.from_ini(path)


@pytest.mark.parametrize("field,value,key", [
    ("env", "cubic", "env"),
    ("algorithm", "sgd", "algorithm"),
    ("d0", 9, "d0"),
    ("T", 0, "T"),
    ("seeds", (), "seeds"),
    ("delta", 1.5, "delta"),
    ("alpha_q", 1.2, "alpha_q"),
    ("U", -1.0, "U"),
    ("cal_clamp_lo", 5, "cal_clamp_lo"),  # without matching hi
    ("seeds", (1, 1, 2), "seeds"),  # a repeated seed
])
def test_validate_names_offending_key(tmp_path, field, value, key):
    cfg = dataclasses.replace(_config(tmp_path), **{field: value})
    with pytest.raises(ConfigError, match=key):
        cfg.validate()


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("key", ["noise_sd", "x_bound", "noise_bound_sds",
                                 "rda_gamma", "rda_rho", "rda_lambda"])
def test_validate_rejects_non_finite_values(tmp_path, key, value):
    cfg = _config(tmp_path, algorithm="rda", **{key: value})
    with pytest.raises(ConfigError, match=f"^{key}: must be finite"):
        cfg.validate()


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0])
@pytest.mark.parametrize("key", ["alpha", "U", "B", "cal_Y"])
def test_validate_rejects_wrapper_constants_not_finite_and_positive(
        tmp_path, key, value):
    cfg = _config(tmp_path, **{key: value})
    with pytest.raises(ConfigError,
                       match=rf"^{key}: must be finite and > 0, got {value}$"):
        cfg.validate()


@pytest.mark.parametrize("seeds", [(-1,), (3, -2)])
def test_validate_rejects_a_negative_seed(tmp_path, seeds):
    cfg = _config(tmp_path, seeds=seeds)
    with pytest.raises(ConfigError, match=r"^seeds: must be nonnegative, "):
        cfg.validate()


def test_cli_run_rejects_a_negative_seed_before_the_outdir(tmp_path, capsys):
    cfg = _config(tmp_path)
    ini = tmp_path / "run.ini"
    dataclasses.replace(cfg, seeds=(-1,)).to_ini(ini)
    assert main(["run", "--config", str(ini)]) == 2
    assert capsys.readouterr().err == (
        "config error: seeds: must be nonnegative, got [-1]\n")
    assert not Path(cfg.outdir).exists()


def test_cli_run_rejects_a_non_finite_noise_sd_before_the_outdir(
        tmp_path, capsys):
    cfg = _config(tmp_path)
    ini = tmp_path / "run.ini"
    dataclasses.replace(cfg, noise_sd=math.nan).to_ini(ini)
    assert main(["run", "--config", str(ini)]) == 2
    assert capsys.readouterr().err == (
        "config error: noise_sd: must be finite and >= 0, got nan\n")
    assert not Path(cfg.outdir).exists()


def test_validate_rejects_mc_risk_outside_quantile(tmp_path):
    cfg = _config(tmp_path, mc_risk=True)
    with pytest.raises(ConfigError, match="mc_risk"):
        cfg.validate()


def test_validate_rejects_calibrate_on_quantile(tmp_path):
    cfg = _config(tmp_path, env="quantile", algorithm="calibrate")
    with pytest.raises(ConfigError, match="algorithm"):
        cfg.validate()


def test_wrapper_d0_defaults(tmp_path):
    assert _config(tmp_path).wrapper_d0() == 2
    assert _config(tmp_path, env="quantile").wrapper_d0() == 3
    assert _config(tmp_path, saew_d0=1).wrapper_d0() == 1


# ============================================================
# run_experiment
# ============================================================

def test_eg_run_has_exactly_t_rows(tmp_path):
    cfg = _config(tmp_path, algorithm="eg", T=10, seeds=(1,))
    paths = run_experiment(cfg)
    csv = Path(cfg.outdir) / "run_seed1.csv"
    assert csv in paths
    lines = csv.read_text().splitlines()
    assert lines[0] == ",".join(BASE_COLUMNS)
    assert len(lines) == 1 + 10


def test_rerun_is_byte_identical(tmp_path):
    cfg = _config(tmp_path, T=40, seeds=(3, 5))
    run_experiment(cfg)
    files = sorted(Path(cfg.outdir).glob("*.csv"))
    before = {p.name: p.read_bytes() for p in files}
    run_experiment(cfg)
    after = {p.name: p.read_bytes() for p in files}
    assert before == after
    assert "summary.csv" in before and "run_seed3.csv" in before


def test_one_csv_per_seed_plus_summaries(tmp_path):
    cfg = _config(tmp_path, seeds=(1, 2, 4))
    run_experiment(cfg)
    out = Path(cfg.outdir)
    names = {p.name for p in out.iterdir()}
    for seed in (1, 2, 4):
        assert f"run_seed{seed}.csv" in names
    assert {"summary.csv", "finals.csv", "config.ini"} <= names


def test_parallel_matches_serial(tmp_path):
    # Five seeds: two workers take slices of 3 and 2, three of 2, 2 and 1.
    for algorithm in ("saew", "eg", "rda"):
        cfg = _config(tmp_path, T=25, seeds=(1, 2, 3, 4, 5),
                      algorithm=algorithm, rda_gamma=10.0,
                      outdir=str(tmp_path / algorithm / "serial"))
        run_experiment(cfg, workers=1)
        # Run CSVs, summary.csv and finals.csv; the sidecars hash outdir.
        serial = {p.name: p.read_bytes()
                  for p in Path(cfg.outdir).glob("*.csv")}
        assert len(serial) == 5 + 2
        for workers in (2, 3):
            parallel = dataclasses.replace(
                cfg, outdir=str(tmp_path / algorithm / f"workers{workers}"))
            run_experiment(parallel, workers=workers)
            for name, data in serial.items():
                assert (Path(parallel.outdir) / name).read_bytes() == data, (
                    algorithm, workers, name)


def test_workers_take_contiguous_seed_slices():
    slices = saew.harness._contiguous_slices
    assert slices((5, 1, 4, 2, 3), 2) == [(5, 1, 4), (2, 3)]
    assert slices((5, 1, 4, 2, 3), 3) == [(5, 1), (4, 2), (3,)]
    assert slices((7, 8), 4) == [(7,), (8,)]
    assert slices((7,), 1) == [(7,)]


def test_no_writes_outside_outdir(tmp_path, monkeypatch):
    workdir = tmp_path / "cwd"
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    cfg = _config(tmp_path, T=10, seeds=(1,))
    run_experiment(cfg)
    emit_plots(cfg.outdir)
    assert list(workdir.iterdir()) == []
    outside = {p for p in tmp_path.iterdir()
               if p not in (Path(cfg.outdir), workdir)}
    assert outside == set()


def test_unwritable_outdir_raises_os_error(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    cfg = _config(tmp_path, outdir=str(blocker / "nested"))
    with pytest.raises(OSError):
        run_experiment(cfg)


def test_quantile_run_carries_zero_se_with_exact_oracle(tmp_path):
    cfg = _config(tmp_path, env="quantile", T=12, seeds=(1,),
                  alpha_q=0.8, U=2.0)
    run_experiment(cfg)
    record = RunRecord.from_csv(Path(cfg.outdir) / "run_seed1.csv")
    assert record.columns == BASE_COLUMNS + ("risk_se",)
    se_col = record.columns.index("risk_se")
    assert all(row[se_col] == 0.0 for row in record.rows)


def test_quantile_mc_risk_reports_standard_errors(tmp_path):
    cfg = _config(tmp_path, env="quantile", T=5, seeds=(1,), d=3, d0=1,
                  mc_risk=True, U=2.0)
    record = run_one_seed(cfg, 1)
    se_col = record.columns.index("risk_se")
    assert all(row[se_col] > 0.0 for row in record.rows)


@pytest.mark.parametrize("n_seeds", [5, 8])
def test_mc_risk_run_builds_one_holdout_per_seed(tmp_path, monkeypatch,
                                                 n_seeds):
    # A holdout is drawn from a fresh pair of generators: a spy on each
    # environment's sample counts the pairs, that is, the builds.
    build = saew.harness.build_environment
    builds = []

    def spied(config, seed):
        env = build(config, seed)

        def sample(rng_x, rng_e, n):
            if not any(rng_x is seen for _, seen in builds):
                builds.append((seed, rng_x))
            return env.sample(rng_x, rng_e, n)
        return dataclasses.replace(env, sample=sample)

    monkeypatch.setattr(saew.harness, "build_environment", spied)
    seeds = tuple(range(1, n_seeds + 1))
    cfg = _config(tmp_path, env="quantile", d=20, d0=3, T=1024, seeds=seeds,
                  mc_risk=True, U=2.0)
    run_experiment(cfg, workers=1)
    assert sorted(seed for seed, _ in builds) == list(seeds)


def _paired_risk(env):
    """``theta -> (risk, standard error)``: the paired Monte-Carlo
    estimate on the environment's holdout, computed from scratch on the
    row-major ``(n, d + 1)`` design."""
    xt, y, _, n = saew.losses._holdout(env)
    x, y = np.ascontiguousarray(xt[:, :n].T), y[:n]
    alpha_q = env.config["alpha_q"]

    def pinball(u):
        return u * (alpha_q - (u < 0.0))

    def product(theta):
        return (np.stack((theta, theta)) @ x.T)[0]

    loss_star = pinball(y - product(env.theta_star_metrics))

    def risk(theta):
        diff = pinball(y - product(theta)) - loss_star
        return (float(diff.mean()),
                float(diff.std(ddof=1) / math.sqrt(diff.shape[0])))
    return risk


def _per_step_reference(cfg, seed):
    """The run's rows from a per-step loop that scores every estimate on
    its own, with the formulas written out here, plus the number of
    vectors a memo of the last two distinct scored vectors scores and the
    per-step theta_tilde.

    Square runs use ``||theta - theta_star||^2``, times the design
    variance on truncated streams; quantile runs the paired Monte-Carlo
    estimate on the holdout, or with exact risks the Gaussian closed form.
    """
    env = build_environment(cfg, seed)
    xs, ys = env.draw(cfg.T)
    star = env.theta_star_metrics
    if env.loss == "pinball":
        def grad(theta, x, y):
            return pinball_subgrad(theta, x, y, cfg.alpha_q)
    else:
        grad = square_grad
    if cfg.mc_risk:
        risk = _paired_risk(env)
    elif env.loss == "pinball":
        min_risk = gaussian_pinball_risk(-star[0], cfg.noise_sd, cfg.alpha_q)

        def risk(theta):
            dv = star[1:] - theta[1:]
            tau = math.sqrt(cfg.noise_sd * cfg.noise_sd + float(dv @ dv))
            return (gaussian_pinball_risk(-float(theta[0]), tau, cfg.alpha_q)
                    - min_risk), 0.0
    else:
        variance = env.config.get("alpha", 1.0)

        def risk(theta):
            diff = theta - star
            return variance * float(diff @ diff), 0.0

    recent = []

    def memo_scores(theta):
        for i, seen in enumerate(recent):
            if np.array_equal(seen, theta):
                recent.append(recent.pop(i))
                return 0
        recent.append(np.array(theta))
        del recent[:-2]
        return 1

    if cfg.algorithm == "saew":
        d0 = cfg.wrapper_d0()
        state = saew_init(ProblemParams(d0=d0, alpha=cfg.alpha, U=cfg.U,
                                        B=cfg.B, delta=cfg.delta),
                          env.dimension)
    elif cfg.algorithm == "eg":
        state = eg_init(L1Ball(np.zeros(env.dimension), cfg.U), cfg.B)
        average = np.zeros(env.dimension)
    else:
        state = rda_init(env.dimension, cfg.rda_gamma, rho=cfg.rda_rho,
                         lam=cfg.rda_lambda)
    rows, cum, scored, tildes = [], 0.0, 0, []
    for t in range(cfg.T):
        x, y = xs[t], float(ys[t])
        extra = (0.0, 0.0)
        if cfg.algorithm == "saew":
            theta_hat = saew_estimators(state)[0]
            saew_step(state, lambda theta: grad(theta, x, y))
            theta_tilde = saew_estimators(state)[1]
            extra = (state.eps_t, float(state.session))
            if cfg.trace_bounds:
                extra += (state.err_t, state.a_prime_t, state.b_prime_t,
                          state.eps_t / (2.0 * math.sqrt(2.0 * max(d0, 1))))
        elif cfg.algorithm == "eg":
            theta_hat = state.predict()
            state.update(grad(theta_hat, x, y))
            average += (theta_hat - average) / (t + 1)
            theta_tilde = average.copy()
        else:
            theta_hat = rda_predict(state)
            rda_step(state, grad(theta_hat, x, y))
            theta_tilde = rda_predict(state)
        risk_hat, _ = risk(theta_hat)
        risk_tilde, se = risk(theta_tilde)
        scored += memo_scores(theta_hat) + memo_scores(theta_tilde)
        cum += max(risk_hat, 0.0)
        row = (float(t + 1), float(np.linalg.norm(theta_tilde - star)),
               risk_hat, risk_tilde, cum) + extra[:2]
        if env.loss == "pinball":
            row += (se,)
        rows.append(row + extra[2:])
        tildes.append(np.array(theta_tilde))
    return np.array(rows), scored, tildes


def _scored_rows_spy(monkeypatch):
    """Record every stack the harness hands to ``true_excess_risk``."""
    stacks = []

    def spy(theta, env, **kwargs):
        stacks.append(np.array(theta, ndmin=2))
        return true_excess_risk(theta, env, **kwargs)

    monkeypatch.setattr(saew.harness, "true_excess_risk", spy)
    return stacks


def _assert_same_bytes(got, expected):
    assert got.shape == expected.shape
    differ = np.argwhere(got.view(np.int64) != expected.view(np.int64))
    assert differ.size == 0, (f"first differing (row, column) "
                              f"{differ[0]}: {got[tuple(differ[0])]!r} vs "
                              f"{expected[tuple(differ[0])]!r}")


@pytest.mark.parametrize("algorithm", ["saew", "eg", "rda"])
def test_mc_risk_columns_match_unmemoized_oracle(tmp_path, monkeypatch,
                                                 algorithm):
    cfg = _config(tmp_path, env="quantile", d=4, d0=2, alpha_q=0.8,
                  mc_risk=True, algorithm=algorithm, T=50, seeds=(3,),
                  U=2.0, rda_gamma=10.0)
    reference, memo_scored, tildes = _per_step_reference(cfg, 3)
    stacks = _scored_rows_spy(monkeypatch)
    record = run_one_seed(cfg, 3)
    _assert_same_bytes(record.rows, reference)
    # Each distinct estimate is scored once: no more vectors than a memo
    # of the last two, in one call for a run shorter than a block.
    assert len(stacks) == 1
    assert sum(len(stack) for stack in stacks) <= memo_scored
    if algorithm == "saew":
        assert any(np.array_equal(a, b) for a, b in zip(tildes, tildes[1:]))


@pytest.mark.parametrize("algorithm", ["saew", "eg", "rda"])
@pytest.mark.parametrize("T", [1, 5, 8, 9, 30])
def test_block_scoring_matches_per_step_reference(tmp_path, monkeypatch,
                                                  algorithm, T):
    # Blocks of 8 steps: one step, under one block, exactly one block, one
    # step past it, and several blocks with a partial last one.
    monkeypatch.setattr(saew.harness, "_BLOCK", 8)
    cfg = _config(tmp_path, env="quantile", d=4, d0=2, alpha_q=0.8,
                  mc_risk=True, algorithm=algorithm, T=T, seeds=(5,),
                  U=2.0, rda_gamma=10.0)
    reference, memo_scored, _ = _per_step_reference(cfg, 5)
    stacks = _scored_rows_spy(monkeypatch)
    record = run_one_seed(cfg, 5)
    _assert_same_bytes(record.rows, reference)
    assert len(stacks) <= math.ceil(T / 8)
    assert sum(len(stack) for stack in stacks) <= memo_scored


def test_block_scoring_keeps_theta_tilde_across_block_boundary(
        tmp_path, monkeypatch):
    monkeypatch.setattr(saew.harness, "_BLOCK", 8)
    cfg = _config(tmp_path, env="quantile", d=4, d0=2, alpha_q=0.8,
                  mc_risk=True, T=64, seeds=(3,), U=2.0)
    reference, memo_scored, tildes = _per_step_reference(cfg, 3)
    stacks = _scored_rows_spy(monkeypatch)
    record = run_one_seed(cfg, 3)
    _assert_same_bytes(record.rows, reference)
    assert sum(len(stack) for stack in stacks) <= memo_scored
    # A theta_tilde that carries over a block boundary is not scored again.
    kept = [b for b in range(8, cfg.T, 8)
            if np.array_equal(tildes[b - 1], tildes[b])]
    assert kept
    for b in kept:
        assert not any(np.array_equal(row, tildes[b])
                       for row in stacks[b // 8])


def test_block_scorer_scores_each_value_once_with_its_standard_error(
        tmp_path, monkeypatch):
    cfg = _config(tmp_path, env="quantile", d=4, d0=2, mc_risk=True)
    env = build_environment(cfg, 1)
    risk = _paired_risk(env)
    a, b, c, e = env.theta_star_metrics + np.random.default_rng(3).normal(
        0.0, 0.2, size=(4, 5))
    zero = np.zeros(5)
    stacks = _scored_rows_spy(monkeypatch)
    scorer = saew.harness._BlockScorer(env, mc_risk=True)
    blocks = [
        # c is scored as a theta_hat only, yet kept with b: the next block
        # reads its standard error as a theta_tilde.
        [(a, b), (c, b)],
        [(e, c)],
        # 0.0 and -0.0 are the same value: scored once.
        [(zero, -zero), (-zero, zero)],
    ]
    cum = 0.0
    for block in blocks:
        got = scorer.score(np.array(block))
        for (theta_hat, theta_tilde), row in zip(block, got):
            risk_hat = risk(theta_hat)[0]
            risk_tilde, se = risk(theta_tilde)
            cum += max(risk_hat, 0.0)
            l2 = float(np.linalg.norm(theta_tilde - env.theta_star_metrics))
            assert tuple(row) == (l2, risk_hat, risk_tilde, cum, se)
    assert [len(stack) for stack in stacks] == [3, 1, 1]
    np.testing.assert_array_equal(stacks[1], [e])


@pytest.mark.parametrize("algorithm", ["saew", "eg", "rda"])
@pytest.mark.parametrize("T", [1, 8, 9, 20])
def test_block_scoring_matches_per_step_reference_exact(
        tmp_path, monkeypatch, algorithm, T):
    monkeypatch.setattr(saew.harness, "_BLOCK", 8)
    cfg = _config(tmp_path, algorithm=algorithm, T=T, seeds=(2,), d=30,
                  trace_bounds=algorithm == "saew", rda_gamma=10.0)
    reference, _, _ = _per_step_reference(cfg, 2)
    _assert_same_bytes(run_one_seed(cfg, 2).rows, reference)


class _RecordsCaptured(Exception):
    """Raised by the summarize spy once run_experiment has its records."""


def _experiment_records(cfg, monkeypatch):
    """The run records ``run_experiment(cfg)`` computes, taken where it
    hands them to ``summarize`` (which needs two steps or more)."""
    captured = []

    def spy(records):
        captured.extend(records)
        raise _RecordsCaptured

    with monkeypatch.context() as patch:
        patch.setattr(saew.harness, "summarize", spy)
        with pytest.raises(_RecordsCaptured):
            run_experiment(cfg)
    return captured


# Seed rows against the single-seed per-step reference: config overrides
# and seeds.
SEED_ROW_CASES = {
    "saew_trace": (dict(trace_bounds=True, alpha=300.0), (1, 2, 3, 4)),
    # Rows close sessions on different steps, several at once.
    "saew_cascade": (dict(trace_bounds=True, alpha=1e4), (1, 2, 3, 4, 5)),
    "saew_d0_0": (dict(saew_d0=0, trace_bounds=True), (2, 3, 4)),
    "eg": (dict(algorithm="eg"), (1, 2, 3)),
    "rda": (dict(algorithm="rda", rda_gamma=10.0), (5, 4, 3, 2, 1)),
    "saew_truncated": (dict(env="truncated_square", trace_bounds=True,
                            alpha=300.0), (1, 2, 3)),
    "eg_truncated": (dict(env="truncated_square", algorithm="eg"),
                     (3, 4, 5, 6)),
    "saew_quantile": (dict(env="quantile", U=2.0, alpha=300.0), (1, 2, 3)),
    "rda_quantile": (dict(env="quantile", algorithm="rda", rda_gamma=10.0),
                     (1, 2, 3, 4)),
    "saew_quantile_mc": (dict(env="quantile", d=4, mc_risk=True, U=2.0,
                              trace_bounds=True), (1, 2, 3)),
    "eg_quantile_mc": (dict(env="quantile", d=4, mc_risk=True, U=2.0,
                            algorithm="eg"), (4, 5, 6)),
    "rda_quantile_mc": (dict(env="quantile", d=4, mc_risk=True,
                             algorithm="rda", rda_gamma=10.0), (7, 8, 9)),
}


@pytest.mark.filterwarnings("ignore:d0=0 is degenerate:UserWarning")
@pytest.mark.parametrize("T", [1, 8, 9, 30])
@pytest.mark.parametrize("case", sorted(SEED_ROW_CASES))
def test_seed_rows_match_per_step_reference(tmp_path, monkeypatch, case, T):
    # Blocks of 8 steps: one step, exactly one block, one step past it,
    # and several blocks with a partial last one.
    monkeypatch.setattr(saew.harness, "_BLOCK", 8)
    overrides, seeds = SEED_ROW_CASES[case]
    cfg = _config(tmp_path, T=T, seeds=seeds, **overrides)
    records = _experiment_records(cfg, monkeypatch)
    assert [r.seed for r in records] == list(seeds)
    for record in records:
        reference, _, _ = _per_step_reference(cfg, record.seed)
        _assert_same_bytes(record.rows, reference)


def test_warnings_fire_once_per_seed_and_session(tmp_path, monkeypatch):
    cfg = _config(tmp_path, d=20, d0=3, noise_sd=0.2, alpha=30.0, B=0.5,
                  T=600, seeds=(1, 2, 3))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        records = _experiment_records(cfg, monkeypatch)
        over_b = list(caught)
        eg_cfg = dataclasses.replace(cfg, algorithm="eg")
        _experiment_records(eg_cfg, monkeypatch)
        eg_over_b = caught[len(over_b):]
        d0_cfg = dataclasses.replace(cfg, saew_d0=0, B=100.0)
        _experiment_records(d0_cfg, monkeypatch)
        degenerate = caught[len(over_b) + len(eg_over_b):]
        state = run_calibration(build_environment(cfg, 1).draw, T=64, d=20,
                                Y=2.0, delta=0.05, exponent_clamp=(-1, 1))
        calibration = caught[len(over_b) + len(eg_over_b)
                             + len(degenerate):]
    sessions = sum(int(r.column("session")[-1]) + 1 for r in records)
    assert sessions > len(records)
    for warned, at_most in ((over_b, sessions), (eg_over_b, 3)):
        assert 1 <= len(warned) <= at_most
        assert {(w.category, str(w.message)) for w in warned} == {
            (RuntimeWarning, "observed gradient sup-norm exceeds the "
                             "declared bound B; continuing with the running "
                             "max")}
    assert len(degenerate) == len(cfg.seeds)
    assert all(w.category is UserWarning and "d0=0" in str(w.message)
               for w in degenerate)
    assert state.session_rows and calibration == []


@pytest.mark.parametrize("seeds", [(1,), (4, 1, 3)])
def test_nonfinite_gradient_names_seed_and_step(tmp_path, seeds):
    # The default rda_gamma diverges at d=200; seed 1's gradient overflows
    # first, at step 3124.  The risks of the diverging iterate overflow
    # before that, which numpy would report.
    cfg = ExperimentConfig(env="square", d=200, d0=5, noise_sd=0.1,
                           algorithm="rda", rda_gamma=1.0, T=10000,
                           seeds=seeds, outdir=str(tmp_path / "out"))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match=r"^seed 1: the gradient at step "
                                             r"3124 is not finite$"):
            run_experiment(cfg)
    assert list(Path(cfg.outdir).iterdir()) == []


@pytest.mark.parametrize("workers", [1, 2])
def test_run_too_short_to_summarize_writes_nothing(tmp_path, workers):
    cfg = _config(tmp_path, T=1, seeds=(1, 2))
    with pytest.raises(ValueError, match=r"^T=1: need at least two points"):
        run_experiment(cfg, workers=workers)
    assert list(Path(cfg.outdir).iterdir()) == []


def test_run_reads_the_stream_only_in_blocks(tmp_path, monkeypatch):
    build = saew.harness.build_environment

    def draw(n):
        raise AssertionError(f"the run called draw({n})")

    monkeypatch.setattr(
        saew.harness, "build_environment",
        lambda config, seed: dataclasses.replace(build(config, seed),
                                                 draw=draw))
    for env in ("square", "truncated_square", "quantile"):
        cfg = _config(tmp_path, env=env, T=300, seeds=(1,))
        assert run_one_seed(cfg, 1).rows.shape[0] == 300


@pytest.mark.parametrize("overrides, warning", [
    (dict(algorithm="rda", rda_gamma=10.0), None),
    # Every step closes a session.
    (dict(saew_d0=0), "d0=0"),
], ids=["rda", "saew_d0_0"])
def test_run_memory_does_not_grow_with_the_horizon(tmp_path, overrides,
                                                   warning):
    # A (T, d) design at d=2000 takes 16 kB a row; the record takes 7
    # columns, 56 B a row.
    peaks = []
    for T in (1000, 3000):
        cfg = _config(tmp_path, d=2000, d0=5, T=T, seeds=(1,), **overrides)
        tracemalloc.start()
        try:
            with (pytest.warns(UserWarning, match=warning) if warning
                  else contextlib.nullcontext()):
                run_one_seed(cfg, 1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 2 ** 20, peaks


def test_trace_columns_consistent_with_epsilon(tmp_path):
    cfg = _config(tmp_path, trace_bounds=True, T=60, seeds=(1,))
    record = run_one_seed(cfg, 1)
    assert record.columns == BASE_COLUMNS + ("err_t", "a_prime", "b_prime",
                                             "l2_bound")
    cols = record.columns
    eps, l2b = cols.index("epsilon"), cols.index("l2_bound")
    d0 = cfg.wrapper_d0()
    for row in record.rows:
        assert row[l2b] == pytest.approx(
            row[eps] / (2.0 * math.sqrt(2.0 * d0)), rel=1e-12)
        assert row[cols.index("err_t")] > 0.0
        assert row[cols.index("a_prime")] > 0.0
        assert row[cols.index("b_prime")] > 0.0


def test_eg_run_epsilon_and_session_are_zero(tmp_path):
    cfg = _config(tmp_path, algorithm="eg", T=15, seeds=(1,))
    record = run_one_seed(cfg, 1)
    eps = record.columns.index("epsilon")
    ses = record.columns.index("session")
    assert all(row[eps] == 0.0 and row[ses] == 0.0 for row in record.rows)


def test_eg_first_row_error_is_distance_from_origin(tmp_path):
    # EG's first prediction (uniform corner weights) is the origin, and the
    # running average after one step equals it.
    cfg = _config(tmp_path, algorithm="eg", T=3, seeds=(1,))
    env = build_environment(cfg, 1)
    record = run_one_seed(cfg, 1)
    l2 = record.columns.index("l2_error")
    expected = float(np.linalg.norm(env.theta_star_metrics))
    assert record.rows[0][l2] == pytest.approx(expected, rel=1e-12)


def test_rda_first_prediction_risk_is_risk_of_origin(tmp_path):
    cfg = _config(tmp_path, algorithm="rda", T=3, seeds=(1,), rda_gamma=2.0)
    env = build_environment(cfg, 1)
    record = run_one_seed(cfg, 1)
    risk_hat = record.columns.index("risk_hat")
    expected = env.excess_risk_exact(np.zeros(cfg.d))
    assert record.rows[0][risk_hat] == pytest.approx(expected, rel=1e-12)


def test_cumulative_risk_is_nondecreasing(tmp_path):
    for algorithm in ("saew", "eg", "rda"):
        cfg = _config(tmp_path, algorithm=algorithm, T=40, seeds=(1,))
        record = run_one_seed(cfg, 1)
        cum = record.columns.index("cum_risk")
        series = [row[cum] for row in record.rows]
        assert all(b >= a for a, b in zip(series, series[1:]))


# ============================================================
# summarize
# ============================================================

def _synthetic_record(t_values, l2_values, seed=0):
    rows = [(float(t), float(l2), 0.0, 0.0, float(k + 1), 0.0, 0.0)
            for k, (t, l2) in enumerate(zip(t_values, l2_values))]
    return RunRecord(columns=BASE_COLUMNS, rows=rows, seed=seed,
                     config_hash="test")


def test_single_run_aggregates_equal_that_run():
    t = np.arange(1, 21)
    l2 = 2.0 / np.sqrt(t)
    summary = summarize([_synthetic_record(t, l2)])
    expected = np.log(l2)
    for agg in ("median", "q1", "q3", "mean"):
        np.testing.assert_allclose(summary.curves["log_l2"][agg], expected)
        np.testing.assert_allclose(summary.curves["cum_risk"][agg],
                                   np.arange(1, 21, dtype=float))


def test_slope_of_inverse_sqrt_series():
    t = np.arange(1, 101)
    summary = summarize([_synthetic_record(t, 3.0 / np.sqrt(t))])
    assert abs(summary.finals[0].slope - (-0.5)) < 1e-6


def test_slope_of_inverse_t_series():
    t = np.arange(1, 101)
    summary = summarize([_synthetic_record(t, 0.7 / t)])
    assert abs(summary.finals[0].slope - (-1.0)) < 1e-6


def test_loglog_slope_window_and_validation():
    t = np.arange(1, 51, dtype=float)
    v = np.where(t < 25, 10.0, 5.0 / t)  # junk early, clean 1/t later
    assert abs(loglog_slope(t, v, t_min=25.0) - (-1.0)) < 1e-6
    with pytest.raises(ValueError, match="two points"):
        loglog_slope(np.array([1.0, 2.0]), np.array([1.0, 1.0]), t_min=2.0)


def test_summarize_schema_mismatch_rejected():
    t = np.arange(1, 11)
    good = _synthetic_record(t, 1.0 / t)
    extra = RunRecord(columns=BASE_COLUMNS + ("risk_se",),
                      rows=[tuple(list(r) + [0.0]) for r in good.rows],
                      seed=1, config_hash="test")
    with pytest.raises(ValueError, match="schema"):
        summarize([good, extra])
    short = _synthetic_record(np.arange(1, 6), np.ones(5))
    with pytest.raises(ValueError, match="schema"):
        summarize([good, short])
    with pytest.raises(ValueError, match="at least one"):
        summarize([])


def test_summary_medians_across_seeds():
    t = np.arange(1, 11)
    records = [_synthetic_record(t, c / t, seed=i)
               for i, c in enumerate((1.0, 2.0, 4.0))]
    summary = summarize(records)
    np.testing.assert_allclose(summary.curves["log_l2"]["median"],
                               np.log(2.0 / t))


def test_finals_keep_seeds_beyond_double_precision(tmp_path):
    t = np.arange(1, 11)
    seed = 2 ** 60 + 1  # not exactly representable as a float64
    write_summary(summarize([_synthetic_record(t, 1.0 / t, seed=seed)]),
                  tmp_path)
    finals = (tmp_path / "finals.csv").read_text().splitlines()
    assert finals[1].split(",")[0] == str(seed)


# ============================================================
# emit_plots
# ============================================================

@pytest.fixture()
def session_run_dir(tmp_path):
    # A config whose wrapper completes sessions, so t_i markers exist.
    cfg = ExperimentConfig(env="truncated_square", d=5, d0=2, noise_sd=0.05,
                           algorithm="saew", T=800, seeds=(1,),
                           outdir=str(tmp_path / "runs"), alpha=8.0, U=1.0,
                           B=4.0, delta=0.1, x_bound=1.5)
    run_experiment(cfg)
    return Path(cfg.outdir)


def test_staircase_has_one_marker_per_session_start(session_run_dir):
    emit_plots(session_run_dir)
    record = load_run_records(session_run_dir)[0]
    ses = record.columns.index("session")
    transitions = sum(
        1 for a, b in zip(record.rows, record.rows[1:]) if b[ses] != a[ses])
    assert transitions >= 1  # the fixture must actually open sessions
    script = (session_run_dir / "plot_sessions.gp").read_text()
    assert script.count("set arrow") == transitions
    # Each marker sits at a session start t_i <= T of a saew_step replay.
    cfg = ExperimentConfig.from_ini(session_run_dir / "config.ini")
    env = build_environment(cfg, record.seed)
    params = ProblemParams(d0=cfg.wrapper_d0(), alpha=cfg.alpha, U=cfg.U,
                           B=cfg.B, delta=cfg.delta)
    state = saew_init(params, env.dimension)
    for x, y in zip(*env.draw(cfg.T)):
        saew_step(state, lambda theta: square_grad(theta, x, float(y)))
    starts = sorted({t_i for t_i in state.session_starts[1:] if t_i <= cfg.T})
    arrows = [int(line.split()[3].rstrip(","))
              for line in script.splitlines() if line.startswith("set arrow")]
    assert arrows == starts


def test_plot_scripts_reference_only_relative_paths(session_run_dir):
    paths = emit_plots(session_run_dir)
    gp_paths = [p for p in paths if p.suffix == ".gp"]
    assert len(gp_paths) == 3
    for path in gp_paths:
        text = path.read_text()
        assert str(session_run_dir) not in text
        assert "/tmp" not in text and not os.path.isabs(text.split("'")[1])
    # Every referenced data file exists next to the scripts.
    for path in gp_paths:
        for line in path.read_text().splitlines():
            if "plot '" in line or line.strip().startswith("'"):
                name = line.split("'")[1]
                assert (session_run_dir / name).exists()


def test_staircase_bound_above_error_curve(session_run_dir):
    # The running-minimum radius bounds the estimator's l1 error, hence
    # its l2 error, whenever the confidence event holds.
    emit_plots(session_run_dir)
    lines = (session_run_dir / "sessions.dat").read_text().splitlines()[1:]
    rows = [tuple(float(f) for f in line.split(",")) for line in lines]
    violations = sum(1 for _, l2, _, eps_min in rows if l2 > eps_min)
    assert violations == 0


def test_emit_plots_requires_summary(tmp_path):
    with pytest.raises(ValueError, match="summary"):
        emit_plots(tmp_path)


# ============================================================
# CLI
# ============================================================

def test_cli_run_summarize_plots_happy_path(tmp_path, capsys):
    cfg = _config(tmp_path, T=20, seeds=(1, 2))
    ini = tmp_path / "cfg.ini"
    cfg.to_ini(ini)
    assert main(["run", "--config", str(ini)]) == 0
    assert main(["summarize", cfg.outdir]) == 0
    out = capsys.readouterr().out
    assert "seed 1" in out and "slope" in out
    assert main(["plots", cfg.outdir]) == 0
    assert (Path(cfg.outdir) / "plot_l2.gp").exists()


def test_cli_out_override(tmp_path):
    cfg = _config(tmp_path, T=10, seeds=(1,))
    ini = tmp_path / "cfg.ini"
    cfg.to_ini(ini)
    override = tmp_path / "elsewhere"
    assert main(["run", "--config", str(ini), "--out", str(override)]) == 0
    assert (override / "run_seed1.csv").exists()
    assert not Path(cfg.outdir).exists()


def test_cli_trace_bounds_flag(tmp_path):
    cfg = _config(tmp_path, T=10, seeds=(1,))
    ini = tmp_path / "cfg.ini"
    cfg.to_ini(ini)
    assert main(["run", "--config", str(ini), "--trace-bounds"]) == 0
    record = RunRecord.from_csv(Path(cfg.outdir) / "run_seed1.csv")
    assert "err_t" in record.columns


def test_cli_config_error_exit_2(tmp_path, capsys):
    cfg = _config(tmp_path)
    ini = tmp_path / "cfg.ini"
    cfg.to_ini(ini)
    ini.write_text(ini.read_text().replace("T = 30", "T = -4"))
    assert main(["run", "--config", str(ini)]) == 2
    assert "T" in capsys.readouterr().err


def test_cli_missing_config_exit_3(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.ini")]) == 3
    assert "I/O error" in capsys.readouterr().err


def test_cli_summarize_empty_dir_exit_2(tmp_path, capsys):
    assert main(["summarize", str(tmp_path)]) == 2
    assert "config error" in capsys.readouterr().err


def test_cli_summarize_header_only_csv_exit_2(tmp_path, capsys):
    path = tmp_path / "run_seed1.csv"
    path.write_text(",".join(BASE_COLUMNS) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["summarize", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: {path} holds no data rows\n"


def test_cli_calibrate_happy_path_and_schema(tmp_path):
    cfg = ExperimentConfig(env="square", d=2, d0=1, noise_sd=0.1,
                           algorithm="calibrate", T=16, seeds=(1,),
                           outdir=str(tmp_path / "cal"), cal_Y=2.0,
                           cal_clamp_lo=-1, cal_clamp_hi=1)
    ini = tmp_path / "cal.ini"
    cfg.to_ini(ini)
    assert main(["calibrate", "--config", str(ini)]) == 0
    lines = (Path(cfg.outdir) / "calibration_seed1.csv").read_text().splitlines()
    assert lines[0] == "j,grid_size,best_candidate,meta_risk,best_risk"
    assert len(lines) == 1 + 4  # sessions 0..3 close within T=16


def test_calibration_csv_quotes_candidate_labels(tmp_path, monkeypatch):
    cfg = ExperimentConfig(env="square", d=2, d0=1, noise_sd=0.1,
                           algorithm="calibrate", T=16, seeds=(1,),
                           outdir=str(tmp_path / "cal"), cal_Y=2.0,
                           cal_clamp_lo=-1, cal_clamp_hi=1)
    # Short runs keep every candidate at the origin, so the null predictor
    # wins each session; give the last row a real candidate's label.
    label = next(e.label() for e in build_grid(1, 2, 2.0, (-1, 1))
                 if not e.is_null)
    assert "," in label

    def relabeled(*args, **kwargs):
        state = run_calibration(*args, **kwargs)
        state.session_rows[-1].best_candidate = label
        return state

    monkeypatch.setattr(saew.harness, "run_calibration", relabeled)
    [path] = run_calibrate(cfg)
    with path.open(newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert header == ["j", "grid_size", "best_candidate", "meta_risk",
                      "best_risk"]
    assert len(rows) == 4 and all(len(row) == 5 for row in rows)
    assert [row[2] for row in rows] == ["null"] * 3 + [label]
    # The risk fields stay last and unquoted.
    last = path.read_text().splitlines()[-1]
    assert last.startswith(f'3,{rows[-1][1]},"{label}",')
    assert last.split(",")[-2:] == rows[-1][3:]


def test_cli_calibrate_budget_exhaustion_exit_2(tmp_path, capsys):
    cfg = ExperimentConfig(env="square", d=4, d0=1, noise_sd=0.1,
                           algorithm="calibrate", T=2 ** 10, seeds=(1,),
                           outdir=str(tmp_path / "cal"), cal_Y=2.0)
    ini = tmp_path / "cal.ini"
    cfg.to_ini(ini)
    assert main(["calibrate", "--config", str(ini), "--budget", "10"]) == 2
    assert "budget" in capsys.readouterr().err


def test_cli_calibrate_overflowing_loss_exit_2(tmp_path, capsys):
    cfg = ExperimentConfig(env="square", d=4, d0=2, noise_sd=1e200,
                           algorithm="calibrate", T=8, seeds=(1,),
                           outdir=str(tmp_path / "cal"), cal_Y=1.0)
    ini = tmp_path / "cal.ini"
    cfg.to_ini(ini)
    assert main(["calibrate", "--config", str(ini)]) == 2
    assert re.match(r"config error: step 1: the squared loss of y=.* "
                    r"overflows\n$", capsys.readouterr().err)


@pytest.mark.parametrize("env,saew_d0,dimension", [
    ("square", 6, 5), ("quantile", 7, 6)])
def test_cli_run_rejects_saew_d0_above_the_wrapper_dimension(
        tmp_path, capsys, env, saew_d0, dimension):
    cfg = _config(tmp_path, env=env, saew_d0=dimension)
    cfg.validate()
    ini = tmp_path / "run.ini"
    dataclasses.replace(cfg, saew_d0=saew_d0).to_ini(ini)
    assert main(["run", "--config", str(ini)]) == 2
    assert capsys.readouterr().err == (
        f"config error: saew_d0: must be <= the wrapper's dimension "
        f"{dimension}, got {saew_d0}\n")
    assert not Path(cfg.outdir).exists()


def test_cli_run_dispatches_calibrate_algorithm(tmp_path):
    # `run` on a calibrate config produces the calibration CSVs too.
    cfg = ExperimentConfig(env="square", d=2, d0=1, noise_sd=0.1,
                           algorithm="calibrate", T=8, seeds=(1,),
                           outdir=str(tmp_path / "cal"), cal_Y=2.0,
                           cal_clamp_lo=0, cal_clamp_hi=0)
    run_experiment(cfg)
    assert (Path(cfg.outdir) / "calibration_seed1.csv").exists()


_IMPORT_PROBE = """
import json, sys
import saew, saew.cli
from saew.harness import ExperimentConfig, run_experiment
from saew.losses import make_quantile_env, make_truncated_square_env

def loaded():
    return [m for m in ("scipy", "scipy.special",
                        "concurrent.futures.process") if m in sys.modules]

seen = [loaded()]
make_quantile_env(20, 3, 0.8, 0.1, 1)
run_experiment(ExperimentConfig(env="quantile", d=20, d0=3, noise_sd=0.1,
                                alpha_q=0.8, mc_risk=True, algorithm="saew",
                                T=3, seeds=(1,), outdir=sys.argv[1]))
seen.append(loaded())
make_truncated_square_env(5, 2, 0.1, 1)
seen.append(loaded())
print(json.dumps(seen))
"""


def test_import_and_quantile_runs_leave_scipy_unloaded(tmp_path):
    # A fresh interpreter: this one has loaded scipy for other tests.
    src = str(Path(saew.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    after_import, after_quantile, after_truncated = json.loads(done.stdout)
    assert after_import == []
    assert after_quantile == []
    assert "scipy.special" in after_truncated
