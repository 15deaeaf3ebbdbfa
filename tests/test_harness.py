"""Tests for the experiment harness and CLI."""

import csv
import dataclasses
import math
import os
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
from saew.losses import pinball_subgrad, square_grad, true_excess_risk
from saew.subroutine import eg_init

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


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
    cfg1 = _config(tmp_path, T=25, seeds=(1, 2, 3),
                   outdir=str(tmp_path / "serial"))
    cfg2 = dataclasses.replace(cfg1, outdir=str(tmp_path / "parallel"))
    run_experiment(cfg1, workers=1)
    run_experiment(cfg2, workers=2)
    for seed in (1, 2, 3):
        a = (Path(cfg1.outdir) / f"run_seed{seed}.csv").read_bytes()
        b = (Path(cfg2.outdir) / f"run_seed{seed}.csv").read_bytes()
        assert a == b
    a = (Path(cfg1.outdir) / "summary.csv").read_bytes()
    b = (Path(cfg2.outdir) / "summary.csv").read_bytes()
    assert a == b


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


def _reference_mc_risks(cfg, seed):
    """Per-step (risk_hat, risk_tilde, risk_se, cum_risk) of a quantile
    ``mc_risk`` run, calling ``true_excess_risk`` on every estimate."""
    env = build_environment(cfg, seed)
    xs, ys = env.draw(cfg.T)

    def grad(theta, x, y):
        return pinball_subgrad(theta, x, y, cfg.alpha_q)

    if cfg.algorithm == "saew":
        state = saew_init(ProblemParams(d0=cfg.wrapper_d0(), alpha=cfg.alpha,
                                        U=cfg.U, B=cfg.B, delta=cfg.delta),
                          env.dimension)
    elif cfg.algorithm == "eg":
        state = eg_init(L1Ball(np.zeros(env.dimension), cfg.U), cfg.B)
        average = np.zeros(env.dimension)
    else:
        state = rda_init(env.dimension, cfg.rda_gamma, rho=cfg.rda_rho,
                         lam=cfg.rda_lambda)
    rows, cum, tildes = [], 0.0, []
    for t in range(cfg.T):
        x, y = xs[t], float(ys[t])
        if cfg.algorithm == "saew":
            theta_hat = saew_estimators(state)[0]
            saew_step(state, lambda theta: grad(theta, x, y))
            theta_tilde = saew_estimators(state)[1]
        elif cfg.algorithm == "eg":
            theta_hat = state.predict()
            state.update(grad(theta_hat, x, y))
            average += (theta_hat - average) / (t + 1)
            theta_tilde = average
        else:
            theta_hat = rda_predict(state)
            rda_step(state, grad(theta_hat, x, y))
            theta_tilde = rda_predict(state)
        risk_hat = true_excess_risk(theta_hat, env).value
        est = true_excess_risk(theta_tilde, env)
        cum += max(risk_hat, 0.0)
        rows.append((risk_hat, est.value, est.se, cum))
        tildes.append(np.array(theta_tilde))
    repeats = sum(np.array_equal(a, b) for a, b in zip(tildes, tildes[1:]))
    return rows, repeats


@pytest.mark.parametrize("algorithm", ["saew", "eg", "rda"])
def test_mc_risk_columns_match_unmemoized_oracle(tmp_path, monkeypatch,
                                                 algorithm):
    cfg = _config(tmp_path, env="quantile", d=4, d0=2, alpha_q=0.8,
                  mc_risk=True, algorithm=algorithm, T=50, seeds=(3,),
                  U=2.0, rda_gamma=10.0)
    reference, repeats = _reference_mc_risks(cfg, 3)
    calls = []

    def counting(theta, env):
        calls.append(1)
        return true_excess_risk(theta, env)

    monkeypatch.setattr(saew.harness, "true_excess_risk", counting)
    record = run_one_seed(cfg, 3)
    cols = [record.columns.index(name)
            for name in ("risk_hat", "risk_tilde", "risk_se", "cum_risk")]
    got = [tuple(row[c] for c in cols) for row in record.rows]
    assert got == reference
    # An estimate equal to the one scored just before is not rescored.
    assert len(calls) <= 2 * cfg.T - repeats
    if algorithm == "saew":
        assert repeats > 0


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


def test_cli_run_dispatches_calibrate_algorithm(tmp_path):
    # `run` on a calibrate config produces the calibration CSVs too.
    cfg = ExperimentConfig(env="square", d=2, d0=1, noise_sd=0.1,
                           algorithm="calibrate", T=8, seeds=(1,),
                           outdir=str(tmp_path / "cal"), cal_Y=2.0,
                           cal_clamp_lo=0, cal_clamp_hi=0)
    run_experiment(cfg)
    assert (Path(cfg.outdir) / "calibration_seed1.csv").exists()
