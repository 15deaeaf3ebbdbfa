"""Tests for loss families, environments, and risk oracles."""

import math

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


def _paired_from_scratch(x, y, env, theta, alpha_q):
    """The paired Monte-Carlo estimate of one vector: mean, standard error."""
    def pinball(u):
        return u * (alpha_q - (u < 0.0))

    diff = pinball(y - x @ theta) - pinball(y - x @ env.theta_star_metrics)
    return (float(diff.mean()),
            float(diff.std(ddof=1) / math.sqrt(diff.shape[0])))


def test_true_excess_risk_equals_paired_computation_from_scratch():
    env = make_quantile_env(d=3, d0=1, alpha_q=0.7, noise_sd=0.3, seed=9)
    x, y, _ = _holdout(env)
    rng = np.random.default_rng(4)
    for theta in (np.zeros(4), env.theta_star_metrics,
                  env.theta_star_metrics + 0.2 * rng.standard_normal(4)):
        est = true_excess_risk(theta, env)
        assert (est.value, est.se) == _paired_from_scratch(x, y, env, theta,
                                                           0.7)


@pytest.mark.parametrize("n", [saew.losses._HOLDOUT_SIZE, 10007, 8192, 5])
def test_true_excess_risk_of_a_stack_equals_computation_from_scratch(
        monkeypatch, n):
    # More rows than one pass over the holdout takes, and holdouts that are
    # not a whole number of chunks (10007), exactly one chunk, or shorter.
    env = make_quantile_env(d=20, d0=2, alpha_q=0.3, noise_sd=0.2, seed=21)
    holdout = saew.losses._holdout
    monkeypatch.setattr(saew.losses, "_holdout",
                        lambda env: holdout(env, n))
    x, y, _ = holdout(env, n)
    k = 2 * saew.losses._THETA_GROUP + 3
    rng = np.random.default_rng(8)
    stack = env.theta_star_metrics + 0.3 * rng.standard_normal((k, 21))
    stack[4] = 0.0
    stack[5] = stack[2]
    want_se = rng.random(k) < 0.5
    est = true_excess_risk(stack, env, se_rows=want_se)
    assert est.value.shape == est.se.shape == (k,)
    for r, theta in enumerate(stack):
        value, se = _paired_from_scratch(x, y, env, theta, 0.3)
        assert est.value[r] == value
        if want_se[r]:
            assert est.se[r] == se
        else:
            assert math.isnan(est.se[r])
    full = true_excess_risk(stack, env)
    np.testing.assert_array_equal(full.value, est.value)
    np.testing.assert_array_equal(full.se[want_se], est.se[want_se])
    single = true_excess_risk(stack[3], env)
    assert (single.value, single.se) == (full.value[3], full.se[3])


@pytest.mark.parametrize("n", [saew.losses._HOLDOUT_SIZE, 10007])
def test_holdout_chunk_products_equal_the_full_product(n):
    # The oracle's premise: a chunk's matrix-vector product has the bits
    # of the full product's rows (a chunk size off the BLAS kernel's row
    # blocks, such as 1001, moves some rows by an ulp).
    env = make_quantile_env(d=20, d0=2, alpha_q=0.3, noise_sd=0.2, seed=21)
    x, _, _ = _holdout(env, n)
    chunk = saew.losses._HOLDOUT_CHUNK
    rng = np.random.default_rng(8)
    for theta in env.theta_star_metrics + 0.3 * rng.standard_normal((8, 21)):
        chunked = np.concatenate([x[c0:c0 + chunk] @ theta
                                  for c0 in range(0, n, chunk)])
        assert chunked.tobytes() == (x @ theta).tobytes()


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


def test_holdout_is_quantile_only():
    env = make_square_env(d=3, d0=1, noise_sd=0.1, seed=1)
    with pytest.raises(ValueError, match="square"):
        _holdout(env)


def test_true_excess_risk_shape_check():
    env = make_quantile_env(d=3, d0=1, alpha_q=0.6, noise_sd=0.3, seed=14)
    with pytest.raises(ValueError, match="shape"):
        true_excess_risk(np.zeros(3), env)  # ambient dimension is 4


def test_risk_estimate_float_conversion():
    est = RiskEstimate(value=0.25, se=0.01)
    assert float(est) == 0.25


# ============================================================
# Blockwise covariate streams and stacked gradients
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
        x = env.draw(T)[0]
        for block in (8, 256):
            parts = list(env.covariate_blocks(T, block))
            assert [len(p) for p in parts[:-1]] == [block] * (len(parts) - 1)
            assert 1 <= len(parts[-1]) <= block
            joined = np.concatenate(parts)
            assert joined.shape == x.shape
            assert joined.tobytes() == x.tobytes(), (T, block)


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
