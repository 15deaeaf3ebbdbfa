"""Tests for the closed-form confidence constants and bound evaluators.

Derived expectations are frozen from independent hand arithmetic (shown in
comments) before the implementation was written.
"""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

import saew.bounds
from saew.core import ProblemParams
from saew.bounds import (
    a_prime,
    b_prime,
    delta_i,
    err_bound,
    gradient_bound_square,
    lemma3_min_radius,
    poisson_bound,
    radius_bound,
    regret_to_risk_bound,
    session_length_bound,
    theorem1_a_prime,
    theorem1_b_prime,
    theorem1_bound,
    theorem2_bound,
)
from saew.subroutine import RegretCertificate

REL = 1e-9


# ============================================================
# delta_i
# ============================================================

def test_delta_i_values():
    # 0.1 / (1+1)^2 = 0.025 ; 0.04 / (3+1)^2 = 0.0025
    assert delta_i(0.1, 1) == pytest.approx(0.025, rel=REL)
    assert delta_i(0.04, 3) == pytest.approx(0.0025, rel=REL)


def test_delta_i_sum_stays_below_delta():
    delta = 0.3
    total = sum(delta_i(delta, i) for i in range(1, 10 ** 5))
    assert total <= delta  # series sums to delta*(pi^2/6 - 1) ~ 0.645*delta


def test_delta_i_strictly_decreasing():
    values = [delta_i(0.2, i) for i in range(1, 30)]
    assert all(x > y for x, y in zip(values, values[1:]))


def test_delta_i_rejects_bad_inputs():
    with pytest.raises(ValueError):
        delta_i(0.0, 1)
    with pytest.raises(ValueError):
        delta_i(1.0, 1)
    with pytest.raises(ValueError):
        delta_i(0.1, 0)


# ============================================================
# a_prime / b_prime
# ============================================================

def test_a_prime_frozen_value():
    # a=0, window=2: log(window/2)=0, so sqrt(2*(0 - log e^-2)) = sqrt(4) = 2.
    assert a_prime(0.0, 2, math.exp(-2.0)) == pytest.approx(2.0, rel=REL)


def test_a_prime_monotone_in_window_and_confidence():
    base = a_prime(0.5, 4, 0.1)
    assert a_prime(0.5, 16, 0.1) >= base
    assert a_prime(0.5, 4, 0.01) > base


def test_a_prime_window_one_clips_log_term():
    # window=1 floors log(window/2) at 0, matching window=2 exactly.
    assert a_prime(0.3, 1, 0.05) == pytest.approx(a_prime(0.3, 2, 0.05), rel=REL)


def test_b_prime_frozen_value():
    # b=0, window=2: 0 + 1/2 + 0 - log(e^-1) = 1.5.
    assert b_prime(0.0, 2, math.exp(-1.0)) == pytest.approx(1.5, rel=REL)


def test_b_prime_limit_delta_to_one():
    # delta -> 1^-: the -log(delta) term vanishes, leaving 1/2.
    assert b_prime(0.0, 2, 1.0 - 1e-12) == pytest.approx(0.5, abs=1e-9)


def test_b_prime_monotone_in_window():
    values = [b_prime(0.0, w, 0.1) for w in (1, 2, 8, 64, 1024)]
    assert all(x <= y for x, y in zip(values, values[1:]))


# ============================================================
# err_bound / radius_bound
# ============================================================

def test_err_bound_frozen_value():
    # 1*sqrt(25) + 2*0.5 = 6.
    assert err_bound(25.0, 1.0, 2.0, 0.5) == pytest.approx(6.0, rel=REL)


def test_err_bound_empty_gradient_sum():
    assert err_bound(0.0, 3.0, 2.0, 1.5) == pytest.approx(3.0, rel=REL)


def test_err_bound_zero_constants():
    assert err_bound(7.0, 0.0, 0.0, 9.0) == 0.0


def test_err_bound_rejects_negative_sum():
    with pytest.raises(ValueError):
        err_bound(-1.0, 1.0, 1.0, 1.0)


def test_radius_bound_frozen_value():
    # 2*sqrt(2*1*1*2^0*1 / (2*1)) = 2*sqrt(1) = 2.
    assert radius_bound(1, 1.0, 0, 2.0, 1, 1.0) == pytest.approx(2.0, rel=REL)


def test_radius_bound_zero_error():
    assert radius_bound(3, 1.0, 2, 1.0, 10, 0.0) == 0.0


def test_radius_bound_window_scaling():
    # Halving the window multiplies the radius by sqrt(2).
    full = radius_bound(2, 1.0, 1, 0.5, 64, 3.0)
    half = radius_bound(2, 1.0, 1, 0.5, 32, 3.0)
    assert half == pytest.approx(math.sqrt(2.0) * full, rel=REL)


def test_radius_bound_clips_negative_error_with_warning():
    with pytest.warns(RuntimeWarning):
        assert radius_bound(1, 1.0, 0, 1.0, 1, -0.5) == 0.0


# ============================================================
# theorem1_bound / theorem2_bound
# ============================================================

def _params(d0=1, alpha=1.0, U=1.0, B=1.0, delta=0.05):
    return ProblemParams(d0=d0, alpha=alpha, U=U, B=B, delta=delta)


def _t1_branches(params, cert, T):
    """Independent re-derivation of the two branches (test-local oracle)."""
    ap = cert.a + math.sqrt(6.0 * math.log(1.0 + 3.0 * math.log(T))
                            - 2.0 * math.log(params.delta))
    bp = cert.b + 0.5 + 3.0 * math.log(1.0 + 3.0 * math.log(T)) \
        - math.log(params.delta)
    slow = params.U * params.B * (ap * math.sqrt(2.0 / T) + 4.0 * bp / T) \
        + params.alpha * params.U ** 2 / (8.0 * params.d0 * T)
    fast = (params.d0 * params.B ** 2 / params.alpha) \
        * (128.0 * ap ** 2 / T + 2048.0 * bp ** 2 / T ** 2) \
        + 2.0 * params.alpha * params.U ** 2 / (params.d0 * T ** 2)
    return slow, fast


def test_theorem1_equals_min_of_hand_branches():
    params, cert = _params(), RegretCertificate(1.0, 1.0)
    for T in (1, 10, 1000, 10 ** 6):
        slow, fast = _t1_branches(params, cert, T)
        assert theorem1_bound(params, cert, T) == pytest.approx(
            min(slow, fast), rel=REL)


def test_theorem1_branches_cross():
    # Small T: the sqrt branch wins; large T: the 1/T branch wins.
    params, cert = _params(), RegretCertificate(1.0, 1.0)
    slow_small, fast_small = _t1_branches(params, cert, 2)
    slow_large, fast_large = _t1_branches(params, cert, 10 ** 6)
    assert slow_small < fast_small
    assert fast_large < slow_large


def test_theorem1_asymptotic_halving():
    # bound(2T)/bound(T) -> 1/2 up to log-log factors.
    params, cert = _params(), RegretCertificate(1.0, 1.0)
    T = 10 ** 6
    ratio = theorem1_bound(params, cert, 2 * T) / theorem1_bound(params, cert, T)
    assert 0.45 < ratio < 0.56


def test_theorem1_positive_and_finite():
    rng = np.random.default_rng(3)
    for _ in range(50):
        params = _params(d0=int(rng.integers(1, 10)),
                         alpha=float(rng.uniform(0.1, 5.0)),
                         U=float(rng.uniform(0.1, 5.0)),
                         B=float(rng.uniform(0.1, 5.0)),
                         delta=float(rng.uniform(0.01, 0.9)))
        cert = RegretCertificate(float(rng.uniform(0.0, 4.0)),
                                 float(rng.uniform(0.0, 4.0)))
        value = theorem1_bound(params, cert, int(rng.integers(1, 10 ** 5)))
        assert math.isfinite(value) and value > 0.0


def test_theorem1_aggregate_dominates_per_window_constants():
    # a' with the whole-horizon inflation stays above the per-window value
    # at the session-split confidence delta/(1+2*log2(T))^2.
    for T in (2, 3, 10, 100, 10 ** 3, 10 ** 4, 10 ** 6):
        for delta in (0.05, 0.5):
            split = delta / (1.0 + 2.0 * math.log2(T)) ** 2
            assert theorem1_a_prime(0.7, T, delta) >= a_prime(0.7, T, split)
            assert theorem1_b_prime(0.7, T, delta) >= b_prime(0.7, T, split)


def test_theorem1_rejects_zero_sparsity():
    with pytest.raises(ValueError):
        theorem1_bound(_params(d0=0), RegretCertificate(1.0, 1.0), 10)


def test_theorem2_value_at_T1():
    # log2(1) = 0, so the fast branch is 4UB(1+b') + alpha*U^2/(8 d0).
    params, cert = _params(), RegretCertificate(1.0, 1.0)
    bp = theorem1_b_prime(cert.b, 1, params.delta)
    expected_fast = 4.0 * (1.0 + bp) + 1.0 / 8.0
    assert theorem2_bound(params, cert, 1) == pytest.approx(expected_fast,
                                                            rel=REL)


def test_theorem2_logarithmic_growth():
    # For large T the fast branch dominates; squaring T doubles the lead term.
    params, cert = _params(), RegretCertificate(1.0, 1.0)
    T = 2 ** 20
    ratio = theorem2_bound(params, cert, T ** 2) / theorem2_bound(params, cert, T)
    assert 1.6 < ratio < 2.4


def test_theorem2_at_least_theorem1_at_T1_moderate_confidence():
    # Cumulative-vs-single dominance at T=1 holds when the inflated a' stays
    # below 2*sqrt(2) (otherwise the single-estimator slow branch's
    # sqrt(2)*a' term exceeds the cumulative branch's constant 4); scan
    # random params inside that regime.
    rng = np.random.default_rng(4)
    checked = 0
    while checked < 30:
        params = _params(d0=int(rng.integers(1, 8)),
                         alpha=float(rng.uniform(0.1, 4.0)),
                         U=float(rng.uniform(0.1, 4.0)),
                         B=float(rng.uniform(0.1, 4.0)),
                         delta=float(rng.uniform(0.3, 0.9)))
        cert = RegretCertificate(float(rng.uniform(0.0, 1.0)),
                                 float(rng.uniform(0.0, 3.0)))
        if theorem1_a_prime(cert.a, 1, params.delta) > 2.0 * math.sqrt(2.0):
            continue
        checked += 1
        assert theorem2_bound(params, cert, 1) >= theorem1_bound(params, cert, 1)


# ============================================================
# gradient_bound_square
# ============================================================

def test_gradient_bound_square_values():
    assert gradient_bound_square(1.0, 1.0, 1.0) == pytest.approx(6.0, rel=REL)
    assert gradient_bound_square(1.0, 1.0, 0.0) == pytest.approx(2.0, rel=REL)


def test_gradient_bound_square_linear_in_Y():
    base = gradient_bound_square(2.0, 1.0, 0.5)
    assert gradient_bound_square(2.0, 3.0, 0.5) - base == pytest.approx(
        2.0 * 2.0 * 2.0, rel=REL)  # slope in Y is 2X


# ============================================================
# session_length_bound / lemma3_min_radius
# ============================================================

def test_session_length_bound_frozen_value():
    # 1 + 2^0*1*1 + 2^0*1*1 = 3.
    assert session_length_bound(1.0, 1.0, 1.0, 0) == pytest.approx(3.0, rel=REL)


def test_session_length_bound_gamma_zero():
    assert session_length_bound(0.0, 5.0, 5.0, 7) == 1.0


def test_session_length_bound_lead_term_doubles():
    # The 2^j a'^2 term dominates for large j; stepping j adds ~2x.
    lo = session_length_bound(1.0, 1.0, 0.0, 20) - 1.0
    hi = session_length_bound(1.0, 1.0, 0.0, 21) - 1.0
    assert hi == pytest.approx(2.0 * lo, rel=REL)


def test_lemma3_min_radius_frozen_value():
    # U=1, gamma=1, a'=1, b'=0, t=2: sqrt(2)/sqrt(2) + 2/2 = 2.
    assert lemma3_min_radius(1.0, 1.0, 1.0, 0.0, 2) == pytest.approx(2.0,
                                                                     rel=REL)


def test_lemma3_min_radius_vanishes():
    assert lemma3_min_radius(1.0, 1.0, 1.0, 1.0, 10 ** 12) < 1e-5


# ============================================================
# poisson_bound / regret_to_risk_bound
# ============================================================

def test_poisson_bound_frozen_value():
    # (e-1)*0 + 1*log(e) = 1.
    assert poisson_bound(0.0, 1.0, math.exp(-1.0)) == pytest.approx(1.0,
                                                                    rel=REL)


def test_poisson_bound_delta_to_one():
    m = 3.7
    assert poisson_bound(m, 2.0, 1.0 - 1e-12) == pytest.approx(
        (math.e - 1.0) * m, abs=1e-9)


def test_poisson_bound_monte_carlo_coverage():
    # Uniform[0,1] increments, T=100: nominal failure 5%; the bound is very
    # conservative here, so observed violations should be essentially zero.
    rng = np.random.default_rng(12)
    T, delta = 100, 0.05
    bound = poisson_bound(T * 0.5, 1.0, delta)
    sums = rng.uniform(0.0, 1.0, size=(2000, T)).sum(axis=1)
    assert np.mean(sums > bound) <= delta


def test_regret_to_risk_additive_only_without_gradients():
    eps, B, T, delta = 0.5, 2.0, 8, 0.1
    expected = (0.5 + math.log(1.0 + 0.5 * math.log(4.0))
                - math.log(delta)) * eps * B
    assert regret_to_risk_bound(eps, B, 0.0, T, delta) == pytest.approx(
        expected, rel=REL)


def test_regret_to_risk_consistent_with_window_constants():
    # At a = b = 0 the conversion is exactly eps * err_bound with the
    # window-inflated constants: single formula, two call paths.
    for T in (1, 2, 5, 100, 10 ** 4):
        for delta in (0.01, 0.1, 0.5):
            for gss in (0.0, 1.0, 37.5):
                for B in (0.5, 2.0):
                    eps = 0.8
                    direct = regret_to_risk_bound(eps, B, gss, T, delta)
                    via_constants = eps * err_bound(
                        gss, a_prime(0.0, T, delta), b_prime(0.0, T, delta), B)
                    assert direct == pytest.approx(via_constants, rel=1e-12)


def test_regret_to_risk_T1_is_defined():
    value = regret_to_risk_bound(1.0, 1.0, 1.0, 1, 0.05)
    assert math.isfinite(value) and value > 0.0


# ============================================================
# Cross-cutting invariants
# ============================================================

def test_bounds_monotone_in_delta_B_U_and_gradients():
    cert = RegretCertificate(1.0, 1.0)
    T = 100
    for delta_lo, delta_hi in ((0.01, 0.05), (0.05, 0.5)):
        p_lo = _params(delta=delta_lo)
        p_hi = _params(delta=delta_hi)
        assert theorem1_bound(p_lo, cert, T) >= theorem1_bound(p_hi, cert, T)
        assert theorem2_bound(p_lo, cert, T) >= theorem2_bound(p_hi, cert, T)
        assert poisson_bound(1.0, 1.0, delta_lo) >= poisson_bound(1.0, 1.0, delta_hi)
        assert regret_to_risk_bound(1.0, 1.0, 1.0, T, delta_lo) >= \
            regret_to_risk_bound(1.0, 1.0, 1.0, T, delta_hi)
    assert theorem1_bound(_params(B=2.0), cert, T) >= \
        theorem1_bound(_params(B=1.0), cert, T)
    assert theorem1_bound(_params(U=2.0), cert, T) >= \
        theorem1_bound(_params(U=1.0), cert, T)
    assert err_bound(4.0, 1.0, 1.0, 1.0) >= err_bound(1.0, 1.0, 1.0, 1.0)
    assert regret_to_risk_bound(1.0, 1.0, 9.0, T, 0.05) >= \
        regret_to_risk_bound(1.0, 1.0, 4.0, T, 0.05)


def test_bounds_deterministic():
    params, cert = _params(), RegretCertificate(1.3, 0.7)
    assert theorem1_bound(params, cert, 123) == theorem1_bound(params, cert, 123)
    assert a_prime(0.2, 17, 0.03) == a_prime(0.2, 17, 0.03)


# ============================================================
# Every bound is evaluated by a run
# ============================================================

def test_acceptance_checks_use_every_public_bound():
    # A formula that no acceptance check evaluates on a run is checked by
    # nothing but its own arithmetic tests.
    public = {name for name, value in vars(saew.bounds).items()
              if callable(value) and not name.startswith("_")
              and getattr(value, "__module__", None) == "saew.bounds"}
    source = Path(__file__).with_name("test_acceptance.py").read_text()
    used = {node.id for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Name)}
    assert public and sorted(public - used) == []
