"""Tests for loss families, environments, and risk oracles."""

import gc
import math
import weakref

import numpy as np
import pytest

import saew.losses
from saew.bounds import gradient_bound_square
from saew.core import excess_l2
from saew.losses import (
    _holdout,
    RiskEstimate,
    gaussian_pinball_risk,
    make_quantile_env,
    make_square_env,
    make_truncated_square_env,
    pinball_loss,
    pinball_subgrad,
    square_grad,
    square_loss,
    true_excess_risk,
    truncated_normal_variance,
)


# ============================================================
# Square loss and gradient
# ============================================================

def test_square_loss_basic_example():
    theta = np.zeros(2)
    x = np.array([1.0, 0.0])
    assert square_loss(theta, x, 1.0) == pytest.approx(1.0, abs=0.0)
    np.testing.assert_allclose(square_grad(theta, x, 1.0),
                               np.array([-2.0, 0.0]), rtol=0, atol=0)


def test_square_loss_perfect_fit_is_zero():
    theta = np.array([0.5, -1.5])
    x = np.array([2.0, 1.0])
    y = float(x @ theta)
    assert square_loss(theta, x, y) == 0.0
    np.testing.assert_allclose(square_grad(theta, x, y), np.zeros(2))


def test_square_loss_dimension_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        square_loss(np.zeros(2), np.zeros(3), 0.0)
    with pytest.raises(ValueError, match="mismatch"):
        square_grad(np.zeros(3), np.zeros(2), 0.0)


def test_square_grad_matches_finite_differences():
    rng = np.random.default_rng(7)
    h = 1e-6
    for _ in range(50):
        d = int(rng.integers(1, 6))
        theta = rng.normal(size=d)
        x = rng.normal(size=d)
        y = float(rng.normal())
        g = square_grad(theta, x, y)
        for j in range(d):
            e = np.zeros(d)
            e[j] = h
            fd = (square_loss(theta + e, x, y)
                  - square_loss(theta - e, x, y)) / (2 * h)
            assert fd == pytest.approx(g[j], rel=1e-6, abs=1e-6)


def test_square_loss_first_order_convexity():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        d = int(rng.integers(1, 5))
        theta = rng.normal(size=d)
        theta2 = rng.normal(size=d)
        x = rng.normal(size=d)
        y = float(rng.normal())
        gap = (square_loss(theta2, x, y) - square_loss(theta, x, y)
               - float(square_grad(theta, x, y) @ (theta2 - theta)))
        assert gap >= -1e-9


# ============================================================
# Pinball loss and subgradient
# ============================================================

def test_pinball_loss_basic_examples():
    theta = np.zeros(1)
    x = np.ones(1)
    # Residual +1 at level 0.8 costs 0.8; residual -1 costs 0.2.
    assert pinball_loss(theta, x, 1.0, 0.8) == pytest.approx(0.8)
    assert pinball_loss(theta, x, -1.0, 0.8) == pytest.approx(0.2)
    assert pinball_loss(theta, x, 0.0, 0.8) == 0.0


def test_pinball_subgrad_sides_and_kink():
    theta = np.zeros(2)
    x = np.array([1.0, -2.0])
    a = 0.3
    # Positive residual: factor -alpha_q.
    np.testing.assert_allclose(pinball_subgrad(theta, x, 5.0, a), -a * x)
    # Negative residual: factor (1 - alpha_q).
    np.testing.assert_allclose(pinball_subgrad(theta, x, -5.0, a),
                               (1.0 - a) * x)
    # At the kink the negative-side element is returned.
    np.testing.assert_allclose(pinball_subgrad(theta, x, 0.0, a),
                               (1.0 - a) * x)


def test_pinball_level_validation():
    theta = np.zeros(1)
    x = np.ones(1)
    for bad in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(ValueError, match="alpha_q"):
            pinball_loss(theta, x, 1.0, bad)
        with pytest.raises(ValueError, match="alpha_q"):
            pinball_subgrad(theta, x, 1.0, bad)


def test_pinball_subgradient_inequality():
    # ell(theta') >= ell(theta) + <g, theta' - theta> for any subgradient g.
    rng = np.random.default_rng(23)
    for _ in range(1000):
        d = int(rng.integers(1, 5))
        theta = rng.normal(size=d)
        theta2 = rng.normal(size=d)
        x = rng.normal(size=d)
        y = float(rng.normal())
        a = float(rng.uniform(0.05, 0.95))
        gap = (pinball_loss(theta2, x, y, a) - pinball_loss(theta, x, y, a)
               - float(pinball_subgrad(theta, x, y, a) @ (theta2 - theta)))
        assert gap >= -1e-9


def test_pinball_subgradient_inequality_at_exact_kink():
    rng = np.random.default_rng(29)
    for _ in range(200):
        d = int(rng.integers(1, 4))
        theta = rng.normal(size=d)
        x = rng.normal(size=d)
        y = float(x @ theta)  # residual exactly zero
        a = float(rng.uniform(0.05, 0.95))
        g = pinball_subgrad(theta, x, y, a)
        theta2 = theta + rng.normal(size=d)
        gap = (pinball_loss(theta2, x, y, a) - pinball_loss(theta, x, y, a)
               - float(g @ (theta2 - theta)))
        assert gap >= -1e-9


# ============================================================
# Gaussian pinball closed form
# ============================================================

def test_gaussian_pinball_risk_symmetric_median():
    # At level 1/2 and mean 0 the expected loss is tau * phi(0).
    phi0 = 1.0 / math.sqrt(2 * math.pi)
    assert gaussian_pinball_risk(0.0, 1.0, 0.5) == pytest.approx(phi0)
    assert gaussian_pinball_risk(0.0, 2.5, 0.5) == pytest.approx(2.5 * phi0)


def test_gaussian_pinball_risk_degenerate_is_pinball():
    assert gaussian_pinball_risk(2.0, 0.0, 0.8) == pytest.approx(1.6)
    assert gaussian_pinball_risk(-2.0, 0.0, 0.8) == pytest.approx(0.4)


def test_gaussian_pinball_risk_minimized_at_quantile_shift():
    from scipy.special import ndtri
    tau, a = 0.7, 0.8
    mu_star = -tau * float(ndtri(a))
    best = gaussian_pinball_risk(mu_star, tau, a)
    for mu in np.linspace(mu_star - 2, mu_star + 2, 41):
        assert gaussian_pinball_risk(float(mu), tau, a) >= best - 1e-12


def _ndtri_levels():
    """Levels from the test configs, the branch boundaries e^-2 and e^-32
    and their neighbours, a seeded sweep between the e^-32 boundaries, and
    the deep tails: a seeded log-uniform sweep below e^-32 and every double
    above 1 - e^-32."""
    levels = [0.8, 0.8125, 0.3, 0.4, 0.5, 0.6, 0.7, 1e-20, 1e-300,
              5e-324, 1 - 1e-15, np.nextafter(1.0, 0.0)]
    for edge in (math.exp(-2), math.exp(-32)):
        for b in (edge, 1.0 - edge):
            below = above = b
            for _ in range(4):
                levels += [below, above]
                below = np.nextafter(below, 0.0)
                above = np.nextafter(above, 1.0)
    lo = math.exp(-32)
    rng = np.random.default_rng(2016)
    sweep = rng.uniform(lo, 1.0 - lo, 100_000)
    tail = np.exp(rng.uniform(math.log(5e-324), -32.0, 20_000))
    top = 1.0 - np.arange(1, int(lo / 2 ** -53)) * 2 ** -53
    return np.concatenate((levels, sweep, tail, top))


def test_quantile_shift_is_within_8_ulps_of_scipy():
    from scipy.special import ndtri
    levels = _ndtri_levels()
    want = ndtri(levels)
    got = np.array([saew.losses._NORMAL.inv_cdf(p) for p in levels.tolist()])
    ulps = np.abs(got - want) / np.spacing(np.abs(want))
    assert len(levels) > 120_000
    assert ulps.max() <= 8, levels[np.argmax(ulps)]
    # The quantile environment's intercept shift is that quantile.
    env = make_quantile_env(5, 2, 0.8, 1.0, seed=1)
    assert env.theta_star_metrics[0] == saew.losses._NORMAL.inv_cdf(0.8)


def test_gaussian_pinball_risk_matches_monte_carlo():
    rng = np.random.default_rng(31)
    u = 0.4 + 0.9 * rng.standard_normal(400_000)
    a = 0.3
    mc = float(np.mean(u * (a - (u < 0))))
    assert gaussian_pinball_risk(0.4, 0.9, a) == pytest.approx(mc, abs=5e-3)


# ============================================================
# Square environment
# ============================================================

def test_square_env_parameter_shape_and_scale():
    env = make_square_env(d=10, d0=3, noise_sd=0.1, seed=5)
    ts = env.theta_star_metrics
    assert ts.shape == (10,)
    assert np.count_nonzero(ts) == 3
    assert np.sum(np.abs(ts)) == pytest.approx(1.0, rel=1e-12)
    assert env.dimension == 10 and env.loss == "square"


def test_square_env_d0_validation():
    with pytest.raises(ValueError, match="d0"):
        make_square_env(d=4, d0=0, noise_sd=0.1, seed=0)
    with pytest.raises(ValueError, match="d0"):
        make_square_env(d=4, d0=5, noise_sd=0.1, seed=0)
    with pytest.raises(ValueError, match="noise_sd"):
        make_square_env(d=4, d0=2, noise_sd=-0.1, seed=0)


def test_square_env_deterministic_and_seed_sensitive():
    e1 = make_square_env(d=6, d0=2, noise_sd=0.3, seed=42)
    e2 = make_square_env(d=6, d0=2, noise_sd=0.3, seed=42)
    e3 = make_square_env(d=6, d0=2, noise_sd=0.3, seed=43)
    np.testing.assert_array_equal(e1.theta_star_metrics, e2.theta_star_metrics)
    x1, y1 = e1.draw(20)
    x2, y2 = e2.draw(20)
    np.testing.assert_array_equal(x1, x2)
    np.testing.assert_array_equal(y1, y2)
    assert not np.array_equal(e1.theta_star_metrics, e3.theta_star_metrics)


def test_square_env_draw_prefix_consistent():
    env = make_square_env(d=4, d0=2, noise_sd=0.5, seed=9)
    x_small, y_small = env.draw(5)
    x_big, y_big = env.draw(12)
    np.testing.assert_array_equal(x_big[:5], x_small)
    np.testing.assert_array_equal(y_big[:5], y_small)
    _assert_draw_999_is_a_prefix(make_square_env(10, 3, 0.1, 1))


def _assert_draw_999_is_a_prefix(env):
    # Each response is computed from its own row alone, so a long draw
    # keeps a short one's responses to the bit (a matrix-vector product
    # over all rows would round by the draw's length).
    x_short, y_short = env.draw(999)
    x_long, y_long = env.draw(10000)
    assert x_long[:999].tobytes() == x_short.tobytes()
    assert y_long[:999].tobytes() == y_short.tobytes()


def test_square_env_generating_model():
    env = make_square_env(d=5, d0=2, noise_sd=0.25, seed=3)
    x, y = env.draw(200_000)
    resid = y - x @ env.theta_star_metrics
    assert float(resid.mean()) == pytest.approx(0.0, abs=5e-3)
    assert float(resid.std()) == pytest.approx(0.25, abs=5e-3)


def test_square_env_exact_risk_dual_route():
    # Closed form ||theta - theta*||^2 vs a Monte-Carlo loss gap.
    env = make_square_env(d=5, d0=2, noise_sd=0.2, seed=17)
    rng = np.random.default_rng(99)
    x, y = env.draw(400_000)
    for _ in range(3):
        theta = env.theta_star_metrics + 0.3 * rng.standard_normal(5)
        gap = (y - x @ theta) ** 2 - (y - x @ env.theta_star_metrics) ** 2
        mc, se = float(gap.mean()), float(gap.std(ddof=1) / math.sqrt(len(gap)))
        exact = env.excess_risk_exact(theta)
        assert abs(mc - exact) <= 3.0 * se + 1e-12
    assert env.excess_risk_exact(env.theta_star_metrics) == 0.0


def test_square_env_true_excess_risk_is_float():
    env = make_square_env(d=3, d0=1, noise_sd=0.1, seed=1)
    theta = np.array([0.5, 0.0, -0.5])
    out = true_excess_risk(theta, env)
    assert isinstance(out, float)
    assert out == pytest.approx(env.excess_risk_exact(theta))
    assert out == pytest.approx(excess_l2(theta, env.theta_star_metrics) ** 2)


def test_square_env_config_keys():
    env = make_square_env(d=3, d0=1, noise_sd=0.1, seed=1)
    for key in ("loss", "d", "d0", "noise_sd", "alpha_q", "seed"):
        assert key in env.config
    assert env.config["loss"] == "square" and env.config["alpha_q"] is None


# ============================================================
# Truncated-design square environment
# ============================================================

def test_truncated_normal_variance_values():
    # Wide truncation recovers unit variance; narrow shrinks it.
    assert truncated_normal_variance(8.0) == pytest.approx(1.0, abs=1e-9)
    assert truncated_normal_variance(1.0) == pytest.approx(0.2911250, abs=1e-6)
    with pytest.raises(ValueError):
        truncated_normal_variance(0.0)


def test_truncated_env_bounds_hold_almost_surely():
    env = make_truncated_square_env(d=6, d0=2, noise_sd=0.4, seed=8,
                                    x_bound=2.0, noise_bound_sds=3.0)
    x, y = env.draw(50_000)
    assert float(np.max(np.abs(x))) <= 2.0
    assert float(np.max(np.abs(y))) <= env.config["y_bound"] + 1e-12
    assert env.config["y_bound"] == pytest.approx(2.0 + 3.0 * 0.4)


def test_truncated_env_draw_prefix_consistent():
    _assert_draw_999_is_a_prefix(make_truncated_square_env(10, 3, 0.1, 1))


def test_truncated_env_design_variance():
    env = make_truncated_square_env(d=4, d0=2, noise_sd=0.1, seed=21,
                                    x_bound=2.0)
    x, _ = env.draw(200_000)
    v_emp = float(x.var())
    assert v_emp == pytest.approx(truncated_normal_variance(2.0), abs=3e-3)
    assert env.config["alpha"] == pytest.approx(truncated_normal_variance(2.0))


def test_truncated_env_exact_risk_dual_route():
    env = make_truncated_square_env(d=4, d0=2, noise_sd=0.3, seed=13,
                                    x_bound=2.0)
    rng = np.random.default_rng(55)
    x, y = env.draw(400_000)
    theta = env.theta_star_metrics + 0.4 * rng.standard_normal(4)
    gap = (y - x @ theta) ** 2 - (y - x @ env.theta_star_metrics) ** 2
    mc, se = float(gap.mean()), float(gap.std(ddof=1) / math.sqrt(len(gap)))
    assert abs(mc - env.excess_risk_exact(theta)) <= 3.0 * se + 1e-12


def test_truncated_env_gradient_bound_invariant():
    # The declared sup-norm gradient bound holds surely on this design.
    env = make_truncated_square_env(d=5, d0=3, noise_sd=0.2, seed=4,
                                    x_bound=2.0, noise_bound_sds=3.0)
    x, y = env.draw(2000)
    X_b, Y_b, U = 2.0, env.config["y_bound"], 1.5
    bound = gradient_bound_square(X_b, Y_b, U)
    rng = np.random.default_rng(77)
    for _ in range(20):
        raw = rng.standard_normal(5)
        theta = U * rng.uniform(0, 1) * raw / np.sum(np.abs(raw))
        grads = 2.0 * (x @ theta - y)[:, None] * x
        assert float(np.max(np.abs(grads))) <= bound + 1e-12


# ============================================================
# Quantile environment
# ============================================================

def test_quantile_env_shapes_and_intercept_shift():
    env = make_quantile_env(d=4, d0=2, alpha_q=0.8, noise_sd=0.1, seed=6)
    assert env.dimension == 5 and env.loss == "pinball"
    ts = env.theta_star_metrics
    assert ts.shape == (5,)
    # Intercept equals noise_sd times the 0.8 Gaussian quantile.
    assert ts[0] == pytest.approx(0.0841621233572914, rel=1e-9)
    assert np.sum(np.abs(ts[1:])) == pytest.approx(1.0, rel=1e-12)
    x, y = env.draw(7)
    assert x.shape == (7, 5) and y.shape == (7,)
    np.testing.assert_array_equal(x[:, 0], np.ones(7))


def test_quantile_env_validation():
    with pytest.raises(ValueError, match="alpha_q"):
        make_quantile_env(d=4, d0=2, alpha_q=1.0, noise_sd=0.1, seed=0)
    with pytest.raises(ValueError, match="d0"):
        make_quantile_env(d=4, d0=0, alpha_q=0.5, noise_sd=0.1, seed=0)


def test_quantile_env_draw_prefix_consistent():
    env = make_quantile_env(d=3, d0=1, alpha_q=0.4, noise_sd=0.2, seed=12)
    x_small, y_small = env.draw(4)
    x_big, y_big = env.draw(9)
    np.testing.assert_array_equal(x_big[:4], x_small)
    np.testing.assert_array_equal(y_big[:4], y_small)
    _assert_draw_999_is_a_prefix(make_quantile_env(10, 3, 0.8, 0.1, 1))


def test_quantile_env_minimizer_has_zero_excess_risk():
    env = make_quantile_env(d=4, d0=2, alpha_q=0.8, noise_sd=0.1, seed=6)
    assert env.excess_risk_exact(env.theta_star_metrics) == pytest.approx(0.0, abs=1e-15)
    # And it is a minimizer: perturbations only increase the exact risk.
    rng = np.random.default_rng(3)
    for _ in range(20):
        theta = env.theta_star_metrics + 0.2 * rng.standard_normal(5)
        assert env.excess_risk_exact(theta) >= 0.0


def test_quantile_env_exact_risk_dual_route():
    # Gaussian closed form vs paired Monte-Carlo on the fixed holdout.
    env = make_quantile_env(d=4, d0=2, alpha_q=0.8, noise_sd=0.1, seed=6)
    rng = np.random.default_rng(101)
    thetas = [np.zeros(5), env.theta_star_metrics.copy()]
    for _ in range(4):
        thetas.append(env.theta_star_metrics + 0.3 * rng.standard_normal(5))
    for theta in thetas:
        est = true_excess_risk(theta, env)
        assert isinstance(est, RiskEstimate)
        exact = env.excess_risk_exact(theta)
        assert abs(est.value - exact) <= 3.0 * est.se + 1e-9


def test_quantile_env_median_level_centers_intercept():
    env = make_quantile_env(d=3, d0=1, alpha_q=0.5, noise_sd=0.4, seed=2)
    assert env.theta_star_metrics[0] == pytest.approx(0.0, abs=1e-15)


def test_quantile_env_config_keys():
    env = make_quantile_env(d=3, d0=1, alpha_q=0.7, noise_sd=0.2, seed=2)
    assert env.config == {"loss": "pinball", "d": 3, "d0": 1,
                          "noise_sd": 0.2, "alpha_q": 0.7, "seed": 2}


# ============================================================
# Monte-Carlo oracle behaviour
# ============================================================

def test_true_excess_risk_deterministic():
    env = make_quantile_env(d=3, d0=1, alpha_q=0.6, noise_sd=0.3, seed=14)
    theta = np.array([0.1, 0.2, 0.0, -0.1])
    first = true_excess_risk(theta, env)
    again = true_excess_risk(theta, env)
    assert first == again
    rebuilt = make_quantile_env(d=3, d0=1, alpha_q=0.6, noise_sd=0.3, seed=14)
    assert true_excess_risk(theta, rebuilt) == first


def _row_major(holdout):
    """The holdout as a row-major ``(n, d + 1)`` design and its ``n``
    responses, the layout the oracle's arithmetic is checked against."""
    xyt, *_, n = holdout
    return np.ascontiguousarray(xyt[:-1, :n].T), xyt[-1, :n]


def _paired_from_scratch(x, y, env, theta, alpha_q):
    """The paired Monte-Carlo estimate of one vector: mean, standard error."""
    def pinball(u):
        return u * (alpha_q - (u < 0.0))

    def product(theta):
        return (np.stack((theta, theta)) @ x.T)[0]

    diff = (pinball(y - product(theta))
            - pinball(y - product(env.theta_star_metrics)))
    return (float(diff.mean()),
            float(diff.std(ddof=1) / math.sqrt(diff.shape[0])))


def _assert_close_to_paired(value, se, reference):
    """The oracle against the paired whole-row reference: the value within
    1e-14 * max(1, |v|), the standard error (unless None) within 1e-11
    relative.  The oracle sums the pinball loss's linear part in closed
    form and the rest a tile at a time, so its last bits may differ."""
    ref_value, ref_se = reference
    assert abs(value - ref_value) <= 1e-14 * max(1.0, abs(ref_value))
    assert se is None or abs(se - ref_se) <= 1e-11 * ref_se


def test_true_excess_risk_equals_paired_computation_from_scratch():
    env = make_quantile_env(d=3, d0=1, alpha_q=0.7, noise_sd=0.3, seed=9)
    x, y = _row_major(_holdout(env))
    rng = np.random.default_rng(4)
    for theta in (np.zeros(4),
                  env.theta_star_metrics + 0.2 * rng.standard_normal(4)):
        est = true_excess_risk(theta, env)
        _assert_close_to_paired(est.value, est.se,
                                _paired_from_scratch(x, y, env, theta, 0.7))
    star = true_excess_risk(env.theta_star_metrics, env)
    assert star == (0.0, 0.0)
    assert math.copysign(1.0, star.value) == 1.0


@pytest.mark.parametrize("params", [
    dict(d=20, d0=3, alpha_q=0.8, noise_sd=0.1, seed=5),
    dict(d=10, d0=2, alpha_q=0.3, noise_sd=0.2, seed=21),
    dict(d=3, d0=1, alpha_q=0.5, noise_sd=1.0, seed=7)])
def test_true_excess_risk_near_and_far_from_theta_star(params):
    # From far off theta_star down to 1e-6 from it, where the paired
    # differences are about a millionth of the losses they are taken from.
    env = make_quantile_env(**params)
    x, y = _row_major(_holdout(env))
    rng = np.random.default_rng(6)
    for s in (1.0, 1e-2, 1e-4, 1e-6):
        stack = env.theta_star_metrics + s * rng.standard_normal(
            (6, env.dimension))
        est = true_excess_risk(stack, env)
        for theta, value, se in zip(stack, est.value, est.se):
            _assert_close_to_paired(
                value, se,
                _paired_from_scratch(x, y, env, theta, params["alpha_q"]))


@pytest.mark.parametrize("n", [saew.losses._HOLDOUT_SIZE, 10007, 8192, 5,
                               17, 33, 8193])
def test_true_excess_risk_of_a_stack_equals_computation_from_scratch(
        monkeypatch, n):
    # More rows than a tile takes, the last tile of each kind taking a few
    # rows or one; holdouts that are not a whole number of tile widths
    # (10007), or shorter than one.  At n = 17, chunks that end at n
    # instead of a multiple of 16 columns would round some products
    # differently.
    env = make_quantile_env(d=20, d0=2, alpha_q=0.3, noise_sd=0.2, seed=21)
    holdout = saew.losses._holdout
    monkeypatch.setattr(saew.losses, "_holdout",
                        lambda env: holdout(env, n))
    x, y = _row_major(holdout(env, n))
    for extra in (3, 1):
        k = 2 * saew.losses._TILE_ROWS + extra
        rng = np.random.default_rng(8)
        stack = env.theta_star_metrics + 0.3 * rng.standard_normal((k, 21))
        stack[4] = 0.0
        stack[5] = stack[2]
        stack[6] = env.theta_star_metrics
        want_se = rng.random(k) < 0.5
        want_se[6] = True
        est = true_excess_risk(stack, env, se_rows=want_se)
        assert est.value.shape == est.se.shape == (k,)
        for r, theta in enumerate(stack):
            _assert_close_to_paired(
                est.value[r], est.se[r] if want_se[r] else None,
                _paired_from_scratch(x, y, env, theta, 0.3))
            assert want_se[r] or math.isnan(est.se[r])
        assert (est.value[6], est.se[6]) == (0.0, 0.0)
        # A row's bits depend neither on se_rows nor on the stack it
        # comes in.
        full = true_excess_risk(stack, env)
        np.testing.assert_array_equal(full.value, est.value)
        np.testing.assert_array_equal(full.se[want_se], est.se[want_se])
        for r in (3, k - 1):
            single = true_excess_risk(stack[r], env)
            assert (single.value, single.se) == (full.value[r], full.se[r])
            pair = true_excess_risk(stack[[r, 0]], env)
            assert (pair.value[0], pair.se[0]) == (full.value[r],
                                                   full.se[r])


@pytest.mark.parametrize("n", [saew.losses._HOLDOUT_SIZE, 10007, 8193, 5,
                               16385])
def test_holdout_chunk_products_equal_the_full_product(n):
    # The oracle's premise: a row ``[-theta, 1]`` of a tile's
    # matrix-matrix product over the transposed, zero-padded holdout
    # (responses as its last row) has the bits of that row's product with
    # the whole row-major holdout as a two-row stack, whatever the tile's
    # other rows, its size (1 to 32) and where the chunks end, as long as
    # they start and end on multiples of 16 columns.  A one-row tile is
    # doubled, as the oracle does.
    env = make_quantile_env(d=20, d0=2, alpha_q=0.3, noise_sd=0.2, seed=21)
    xyt = _holdout(env, n)[0]
    xy = np.ascontiguousarray(xyt[:, :n].T)
    n_pad = xyt.shape[1]
    assert n_pad % 16 == 0 and n <= n_pad < n + 16
    rng = np.random.default_rng(8)
    thetas = env.theta_star_metrics + 0.3 * rng.standard_normal((40, 21))
    stack = np.hstack((-thetas, np.ones((40, 1))))
    full = [(np.stack((row, row)) @ xy.T)[0].tobytes() for row in stack]
    for size in range(1, saew.losses._TILE_ROWS + 1):
        for g0 in (0, len(stack) - size):
            group = stack[g0:g0 + size]
            for chunk in (1008, saew.losses._TILE_COLUMNS, n_pad):
                products = np.empty((size, n_pad))
                for c0 in range(0, n_pad, chunk):
                    saew.losses._gemm(group, xyt[:, c0:c0 + chunk],
                                      out=products[:, c0:c0 + chunk])
                for r, row in enumerate(products[:, :n], start=g0):
                    assert row.tobytes() == full[r]


@pytest.mark.parametrize("n", [saew.losses._HOLDOUT_SIZE, 10007, 8193, 5, 1])
def test_holdout_equals_one_whole_draw(n):
    # The holdout is drawn a chunk of rows at a time, straight into its
    # transposed, padded layout, the responses as its last row; it has the
    # bits of one n-row call of the environment's sample on fresh holdout
    # generators.  At n = 8193 the last chunk has a single row.
    env = make_quantile_env(d=20, d0=2, alpha_q=0.3, noise_sd=0.2, seed=14)
    x, y = env.sample(
        np.random.default_rng(np.random.SeedSequence([14, 3])),
        np.random.default_rng(np.random.SeedSequence([14, 4])), n)
    theta_star = env.theta_star_metrics
    star = np.append(-theta_star, 1.0)
    u = (np.stack((star, star)) @ np.hstack((x, y[:, None])).T)[0]

    holdout = _holdout(env, n)
    xyt, x_mean, rho_pad, min_star_sum, size = holdout
    assert size == n
    assert xyt.shape == (22, -(-n // 16) * 16)
    assert rho_pad.shape == (xyt.shape[1],) and x_mean.shape == (21,)
    x_rows, y_rows = _row_major(holdout)
    assert x_rows.tobytes() == x.tobytes()
    assert y_rows.tobytes() == y.tobytes()
    assert xyt[-1, :n].tobytes() == y.tobytes()
    assert not xyt[:, n:].any()
    # theta_star's losses in the oracle's form, at the residuals of the
    # product with the responses' row; as numbers, the indicator form's
    # to rounding, and the losses at y - x.theta_star to a few ulps.
    assert rho_pad[:n].tobytes() == (0.3 * u - np.minimum(u, 0.0)).tobytes()
    np.testing.assert_allclose(rho_pad[:n], u * (0.3 - (u < 0.0)),
                               rtol=1e-15, atol=0.0)
    u_star = y - (np.stack((theta_star, theta_star)) @ x.T)[0]
    np.testing.assert_allclose(rho_pad[:n], u_star * (0.3 - (u_star < 0.0)),
                               rtol=0.0, atol=1e-14)
    assert not rho_pad[n:].any()
    # The mean design row leaves the responses out.
    assert x_mean[0] == 1.0
    np.testing.assert_allclose(x_mean, x.mean(axis=0), rtol=0.0, atol=1e-15)
    assert math.isclose(min_star_sum, float(np.minimum(u, 0.0).sum()),
                        rel_tol=1e-13)


def test_holdout_carries_y_and_se_needs_no_sum_of_differences():
    # The responses are the last row of the transposed holdout, and a
    # standard error is taken from the sum of squared paired differences
    # and the value alone; on a stack that mixes rows with and without a
    # standard error and theta_star itself, each standard error is the
    # from-scratch paired one, and theta_star's is exactly 0.
    env = make_quantile_env(d=10, d0=2, alpha_q=0.8, noise_sd=0.1, seed=5)
    holdout = _holdout(env)
    assert len(holdout) == 5
    xyt, n = holdout[0], holdout[-1]
    _, y = env.sample(
        np.random.default_rng(np.random.SeedSequence([5, 3])),
        np.random.default_rng(np.random.SeedSequence([5, 4])), n)
    assert xyt[-1, :n].tobytes() == y.tobytes()
    x, y = _row_major(holdout)
    rng = np.random.default_rng(12)
    k = saew.losses._TILE_ROWS + 9
    scales = np.array([1.0, 1e-2, 1e-4, 1e-6])[np.arange(k) % 4, None]
    stack = env.theta_star_metrics + scales * rng.standard_normal((k, 11))
    stack[9] = env.theta_star_metrics
    want_se = rng.random(k) < 0.5
    want_se[9] = True
    est = true_excess_risk(stack, env, se_rows=want_se)
    assert (est.value[9], est.se[9]) == (0.0, 0.0)
    for r in np.flatnonzero(want_se):
        ref_se = _paired_from_scratch(x, y, env, stack[r], 0.8)[1]
        assert abs(est.se[r] - ref_se) <= 1e-11 * ref_se
    assert np.isnan(est.se[~want_se]).all()


def test_exact_risk_of_a_stack_equals_the_formula_per_row():
    rng = np.random.default_rng(5)
    square = make_square_env(d=40, d0=3, noise_sd=0.1, seed=2)
    truncated = make_truncated_square_env(d=40, d0=3, noise_sd=0.1, seed=2)
    quantile = make_quantile_env(d=39, d0=3, alpha_q=0.8, noise_sd=0.1,
                                 seed=2)
    q0 = quantile.theta_star_metrics[0]
    min_risk = gaussian_pinball_risk(-q0, 0.1, 0.8)
    v = truncated_normal_variance(2.0)
    for env, formula in (
            (square, lambda diff, theta: float(diff @ diff)),
            (truncated, lambda diff, theta: v * float(diff @ diff)),
            (quantile, lambda diff, theta: gaussian_pinball_risk(
                -float(theta[0]),
                math.sqrt(0.1 * 0.1 + float(diff[1:] @ diff[1:])), 0.8)
             - min_risk)):
        stack = env.theta_star_metrics + 0.2 * rng.standard_normal((50, 40))
        risks = env.excess_risk_exact(stack)
        assert risks.shape == (50,)
        for theta, risk in zip(stack, risks):
            expected = formula(theta - env.theta_star_metrics, theta)
            assert risk == expected
            assert env.excess_risk_exact(theta) == expected
            assert isinstance(env.excess_risk_exact(theta), float)


def test_true_excess_risk_reuses_cached_star_losses(monkeypatch):
    env = make_quantile_env(d=3, d0=1, alpha_q=0.6, noise_sd=0.3, seed=15)
    built = []

    def recording(env):
        built.append(_holdout(env))
        return built[-1]

    monkeypatch.setattr(saew.losses, "_holdout", recording)
    true_excess_risk(np.zeros(4), env)
    true_excess_risk(np.ones(4), env)
    assert len(built) == 2
    assert built[0][2] is built[1][2]
    assert not built[0][2].flags.writeable


def test_holdout_is_dropped_with_its_environment():
    env = make_quantile_env(d=3, d0=1, alpha_q=0.6, noise_sd=0.3, seed=16)
    holdout = _holdout(env, 40)
    assert _holdout(env, 40) is holdout
    assert _holdout(env, 24) is not holdout
    refs = [weakref.ref(env)] + [weakref.ref(array) for array in holdout[:3]]
    del env, holdout
    gc.collect()
    assert all(ref() is None for ref in refs)


def test_holdout_is_quantile_only():
    env = make_square_env(d=3, d0=1, noise_sd=0.1, seed=1)
    with pytest.raises(ValueError, match="square"):
        _holdout(env)


def test_true_excess_risk_shape_check():
    env = make_quantile_env(d=3, d0=1, alpha_q=0.6, noise_sd=0.3, seed=14)
    with pytest.raises(ValueError, match="shape"):
        true_excess_risk(np.zeros(3), env)  # ambient dimension is 4


@pytest.mark.parametrize("mask", [np.ones(4, bool), np.ones(6, bool),
                                  np.ones((5, 1), bool), np.ones((1, 5), bool),
                                  np.array(True)])
def test_se_rows_of_the_wrong_shape_is_rejected_before_any_pass(
        monkeypatch, mask):
    env = make_quantile_env(d=3, d0=1, alpha_q=0.6, noise_sd=0.3, seed=14)

    def no_pass(env):
        raise AssertionError("the holdout was read")

    monkeypatch.setattr(saew.losses, "_holdout", no_pass)
    with pytest.raises(ValueError, match=r"se_rows.*\(5,\)"):
        true_excess_risk(np.zeros((5, 4)), env, se_rows=mask)
    square = make_square_env(d=4, d0=1, noise_sd=0.1, seed=1)
    with pytest.raises(ValueError, match="se_rows"):
        true_excess_risk(np.zeros((5, 4)), square, se_rows=mask)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("loss", ["square", "quantile"])
def test_non_finite_theta_is_rejected_by_row(monkeypatch, bad, loss):
    env = (make_square_env(d=4, d0=1, noise_sd=0.1, seed=1)
           if loss == "square" else
           make_quantile_env(d=3, d0=1, alpha_q=0.6, noise_sd=0.3, seed=14))

    def no_pass(env):
        raise AssertionError("the holdout was read")

    monkeypatch.setattr(saew.losses, "_holdout", no_pass)
    stack = np.zeros((6, 4))
    stack[3, 2] = bad
    stack[5, 0] = bad
    with pytest.raises(ValueError, match="row 3 "):
        true_excess_risk(stack, env)
    with pytest.raises(ValueError, match="row 0 "):
        true_excess_risk(stack[3], env)


def test_risk_estimate_float_conversion():
    est = RiskEstimate(value=0.25, se=0.01)
    assert float(est) == 0.25


# ============================================================
# Blockwise streams and stacked gradients
# ============================================================

_STREAMS = {
    "square": lambda d: make_square_env(d=d, d0=1, noise_sd=0.1, seed=d),
    "truncated": lambda d: make_truncated_square_env(d=d, d0=1,
                                                     noise_sd=0.1, seed=d),
    "quantile": lambda d: make_quantile_env(d=d, d0=1, alpha_q=0.8,
                                            noise_sd=0.1, seed=d),
}


@pytest.mark.parametrize("d", [1, 20, 200, 2000])
@pytest.mark.parametrize("stream", sorted(_STREAMS))
def test_covariate_blocks_concatenate_to_the_full_draw(stream, d):
    env = _STREAMS[stream](d)
    for T in (1, 9, 256, 257, 1000):
        x, y = env.draw(T)
        for block in (1, 8, 256):
            parts = list(env.blocks(T, block))
            sizes = [len(px) for px, _ in parts]
            assert sizes[:-1] == [block] * (len(parts) - 1)
            assert 1 <= sizes[-1] <= block
            assert [len(py) for _, py in parts] == sizes
            for joined, full in zip(map(np.concatenate, zip(*parts)), (x, y)):
                assert joined.shape == full.shape
                assert joined.tobytes() == full.tobytes(), (T, block)


@pytest.mark.parametrize("stream", sorted(_STREAMS))
def test_draw_is_sample_on_the_stream_generators(stream):
    env = _STREAMS[stream](20)
    for n in (1, 300):
        x, y = env.draw(n)
        rx, ry = env.sample(
            np.random.default_rng(np.random.SeedSequence([env.seed, 1])),
            np.random.default_rng(np.random.SeedSequence([env.seed, 2])), n)
        assert x.shape == (n, env.dimension)
        assert x.tobytes() == rx.tobytes() and y.tobytes() == ry.tobytes()


@pytest.mark.parametrize("d", [1, 7, 200])
def test_stacked_gradients_have_the_bits_of_single_calls(d):
    rng = np.random.default_rng(d)
    thetas = rng.normal(size=(6, d))
    xs = rng.normal(size=(6, d))
    ys = rng.normal(size=6)
    ys[2] = float(xs[2] @ thetas[2])  # a pinball kink
    for grad in (square_grad, lambda t, x, y: pinball_subgrad(t, x, y, 0.3)):
        rows = grad(thetas, xs, ys)
        shared = grad(thetas, xs[0], ys)
        for i in range(6):
            assert rows[i].tobytes() == grad(thetas[i], xs[i],
                                             float(ys[i])).tobytes()
            assert shared[i].tobytes() == grad(thetas[i], xs[0],
                                               float(ys[i])).tobytes()
    with pytest.raises(ValueError, match="dimension"):
        square_grad(thetas, xs[:, :-1] if d > 1 else np.ones((6, 2)), ys)
