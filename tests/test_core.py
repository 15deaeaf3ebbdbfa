"""Tests for shared types, l1-ball geometry, and run records."""

import numpy as np
import pytest

from saew.core import (
    BALL_TOL,
    BASE_COLUMNS,
    Environment,
    L1Ball,
    ProblemParams,
    RunRecord,
    ball_contains,
    config_hash,
    excess_l2,
    l1_norm,
    write_table,
)


# ============================================================
# Package surface
# ============================================================

def test_every_public_name_resolves():
    import saew

    missing = [name for name in saew.__all__ if not hasattr(saew, name)]
    assert not missing
    assert len(set(saew.__all__)) == len(saew.__all__)


# ============================================================
# l1_norm
# ============================================================

def test_l1_norm_zero_vector():
    assert l1_norm(np.zeros(3)) == 0.0


def test_l1_norm_mixed_signs():
    assert l1_norm(np.array([1.0, -2.0, 3.0])) == 6.0


def test_l1_norm_halves():
    assert l1_norm(np.array([0.5, 0.5])) == 1.0


def test_l1_norm_rejects_nan_and_inf():
    with pytest.raises(ValueError):
        l1_norm(np.array([1.0, np.nan]))
    with pytest.raises(ValueError):
        l1_norm(np.array([np.inf, 0.0]))


# ============================================================
# L1Ball / ball_contains
# ============================================================

def test_ball_contains_boundary_point():
    ball = L1Ball(center=np.zeros(2), radius=1.0)
    assert ball_contains(ball, np.array([1.0, 0.0]))


def test_ball_contains_rejects_outside_point():
    ball = L1Ball(center=np.zeros(2), radius=1.0)
    assert not ball_contains(ball, np.array([0.6, 0.6]))  # ||v||_1 = 1.2


def test_ball_contains_degenerate_radius_zero():
    ball = L1Ball(center=np.array([1.0, 0.0]), radius=0.0)
    assert ball_contains(ball, np.array([1.0, 0.0]))


def test_ball_contains_center_always_inside():
    rng = np.random.default_rng(7)
    for _ in range(50):
        d = int(rng.integers(1, 8))
        center = rng.normal(size=d)
        radius = float(rng.uniform(0.0, 3.0))
        ball = L1Ball(center=center, radius=radius)
        assert ball_contains(ball, center)


def test_ball_contains_tolerance_is_additive():
    ball = L1Ball(center=np.zeros(1), radius=1.0)
    assert ball_contains(ball, np.array([1.0 + 0.5 * BALL_TOL]))
    assert not ball_contains(ball, np.array([1.0 + 10.0 * BALL_TOL]))


def test_ball_contains_dimension_mismatch():
    ball = L1Ball(center=np.zeros(2), radius=1.0)
    with pytest.raises(ValueError):
        ball_contains(ball, np.zeros(3))


def test_ball_rejects_negative_radius():
    with pytest.raises(ValueError):
        L1Ball(center=np.zeros(2), radius=-0.1)


def test_ball_center_is_immutable():
    center = np.zeros(2)
    ball = L1Ball(center=center, radius=1.0)
    with pytest.raises(ValueError):
        ball.center[0] = 5.0


# ============================================================
# excess_l2
# ============================================================

def test_excess_l2_identity():
    v = np.array([0.3, -0.7])
    assert excess_l2(v, v) == 0.0


def test_excess_l2_three_four_five():
    assert excess_l2(np.array([3.0, 4.0]), np.zeros(2)) == 5.0


def test_excess_l2_sqrt_two():
    assert excess_l2(np.array([1.0, 1.0]), np.zeros(2)) == pytest.approx(
        np.sqrt(2.0), rel=1e-15)


def test_excess_l2_dimension_mismatch():
    with pytest.raises(ValueError):
        excess_l2(np.zeros(2), np.zeros(3))


# ============================================================
# ProblemParams
# ============================================================

def test_problem_params_accepts_valid():
    p = ProblemParams(d0=3, alpha=1.0, U=1.0, B=2.0, delta=0.05)
    assert p.d0 == 3 and p.delta == 0.05


def test_problem_params_allows_zero_sparsity_budget():
    p = ProblemParams(d0=0, alpha=1.0, U=1.0, B=1.0, delta=0.1)
    assert p.d0 == 0


@pytest.mark.parametrize("kwargs", [
    dict(d0=-1, alpha=1.0, U=1.0, B=1.0, delta=0.1),
    dict(d0=1, alpha=0.0, U=1.0, B=1.0, delta=0.1),
    dict(d0=1, alpha=1.0, U=-2.0, B=1.0, delta=0.1),
    dict(d0=1, alpha=1.0, U=1.0, B=0.0, delta=0.1),
    dict(d0=1, alpha=1.0, U=1.0, B=1.0, delta=0.0),
    dict(d0=1, alpha=1.0, U=1.0, B=1.0, delta=1.0),
])
def test_problem_params_rejects_invalid(kwargs):
    with pytest.raises(ValueError):
        ProblemParams(**kwargs)


# ============================================================
# Environment
# ============================================================

def _toy_env(seed: int) -> Environment:
    def draw(n: int):
        # Separate child streams keep the prefix stable as n grows.
        rng_x = np.random.default_rng(np.random.SeedSequence([seed, 0]))
        rng_y = np.random.default_rng(np.random.SeedSequence([seed, 1]))
        return rng_x.normal(size=(n, 2)), rng_y.normal(size=n)

    def blocks(n: int, block: int):
        x, y = draw(n)
        for start in range(0, n, block):
            yield x[start:start + block], y[start:start + block]

    return Environment(
        dimension=2, loss="square", seed=seed,
        config={"loss": "square", "d": 2, "seed": seed},
        theta_star_metrics=np.array([1.0, 0.0]), draw=draw, blocks=blocks)


def test_environment_draw_is_deterministic():
    env = _toy_env(42)
    x1, y1 = env.draw(16)
    x2, y2 = env.draw(16)
    np.testing.assert_array_equal(x1, x2)
    np.testing.assert_array_equal(y1, y2)


def test_environment_draw_prefix_consistent():
    # Drawing a longer stream replays the same prefix bit-for-bit.
    env = _toy_env(3)
    x_short, y_short = env.draw(8)
    x_long, y_long = env.draw(16)
    np.testing.assert_array_equal(x_long[:8], x_short)
    np.testing.assert_array_equal(y_long[:8], y_short)


def test_environment_theta_star_shape_checked():
    with pytest.raises(ValueError):
        Environment(dimension=3, loss="square", seed=0, config={},
                    theta_star_metrics=np.zeros(2), draw=lambda n: (None, None),
                    blocks=lambda n, block: iter(()))


# ============================================================
# RunRecord
# ============================================================

def _record(rows, columns=BASE_COLUMNS, seed=1):
    return RunRecord(columns=columns, rows=rows, seed=seed,
                     config_hash=config_hash({"x": 1}))


def test_run_record_validate_accepts_well_formed():
    rows = [(1, 0.5, 0.2, 0.2, 0.2, 1.0, 0),
            (2, 0.4, 0.1, 0.1, 0.3, 0.9, 0)]
    _record(rows).validate()


def test_run_record_validate_rejects_bad_time_index():
    rows = [(1, 0.5, 0.2, 0.2, 0.2, 1.0, 0),
            (3, 0.4, 0.1, 0.1, 0.3, 0.9, 0)]
    with pytest.raises(ValueError):
        _record(rows).validate()


def test_run_record_validate_rejects_decreasing_cum_risk():
    rows = [(1, 0.5, 0.2, 0.2, 0.5, 1.0, 0),
            (2, 0.4, 0.1, 0.1, 0.3, 0.9, 0)]
    with pytest.raises(ValueError):
        _record(rows).validate()


def test_run_record_requires_canonical_column_prefix():
    with pytest.raises(ValueError):
        RunRecord(columns=("t", "l2_error"), rows=[], seed=0, config_hash="")


def test_run_record_rows_form_one_column_array():
    rows = [(1, 0.5, 0.2, 0.2, 0.2, 1.0, 0),
            (2, 0.4, 0.1, 0.1, 0.3, 0.9, 1)]
    rec = _record(rows)
    assert rec.rows.shape == (2, len(BASE_COLUMNS))
    assert rec.rows.dtype == np.float64
    np.testing.assert_array_equal(rec.column("cum_risk"), [0.2, 0.3])
    assert rec.rows[-1][rec.columns.index("session")] == 1.0
    with pytest.raises(ValueError, match="table"):
        _record([row[:-1] for row in rows])


def test_write_table_formats_integer_and_float_columns(tmp_path):
    path = tmp_path / "table.csv"
    write_table(path, ("t", "x", "session", "seed"),
                np.array([[1.0, 1 / 3, 0.0, 7.0], [2.0, -2.5e-300, 3.0, 7.0]]))
    assert path.read_text() == ("t,x,session,seed\n"
                                "1,0.333333333333,0,7\n"
                                "2,-2.5e-300,3,7\n")


def test_run_record_csv_round_trip(tmp_path):
    rows = [(1, 0.5, 0.25, 0.2, 0.2, 1.0, 0),
            (2, 0.25, 0.125, 0.1, 0.3, 0.75, 1)]
    rec = _record(rows, seed=9)
    path = tmp_path / "run.csv"
    rec.to_csv(path)

    loaded = RunRecord.from_csv(path)
    assert loaded.columns == BASE_COLUMNS
    assert loaded.seed == 9
    assert loaded.config_hash == rec.config_hash
    np.testing.assert_allclose(np.asarray(loaded.rows), np.asarray(rows),
                               rtol=1e-12)


def test_run_record_csv_is_byte_deterministic(tmp_path):
    rows = [(1, 1 / 3, 0.2, 0.2, 0.2, 1.0, 0)]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    _record(rows).to_csv(p1)
    _record(rows).to_csv(p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_run_record_csv_header_matches_schema(tmp_path):
    rows = [(1, 0.5, 0.2, 0.2, 0.2, 1.0, 0)]
    path = tmp_path / "run.csv"
    _record(rows).to_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == "t,l2_error,risk_hat,risk_tilde,cum_risk,epsilon,session"


def test_config_hash_stable_and_order_independent():
    h1 = config_hash({"a": 1, "b": 2})
    h2 = config_hash({"b": 2, "a": 1})
    assert h1 == h2
    assert len(h1) == 12
    assert config_hash({"a": 1, "b": 3}) != h1
