"""Loss families and synthetic environments with true-excess-risk oracles.

Two loss families: square-loss linear regression and linear quantile
regression under the pinball loss.  Environments generate seeded i.i.d.
streams; the square environments carry exact closed-form excess risk, the
quantile environment carries both a Gaussian closed form and a Monte-Carlo
oracle on a fixed seeded holdout.

A truncated-design square environment is included for coverage tests of the
risk bounds, where the covariate sup-norm bound must hold almost surely
(the raw Gaussian design is unbounded, so there it holds only empirically).
"""

from __future__ import annotations

import math
from collections import OrderedDict
from collections.abc import Callable, Iterator
from typing import NamedTuple

import numpy as np
from scipy.special import ndtri

from saew.core import DenseVector, Environment

_SQRT_2PI = math.sqrt(2.0 * math.pi)

# Monte-Carlo holdouts are ~17 MB each at d ~ 20; keep only a few alive.
# An entry is (x, y, loss_star): the holdout plus the pinball losses of
# theta_star on it, which every risk estimate subtracts.
_HOLDOUT_CACHE: OrderedDict[
    tuple, tuple[np.ndarray, np.ndarray, np.ndarray]] = OrderedDict()
_HOLDOUT_CACHE_MAX = 4
_HOLDOUT_SIZE = 10 ** 5
# Holdout rows per pass of the Monte-Carlo oracle.  A power of two, so
# every chunk starts on a row block of the BLAS gemv kernel and its product
# equals the full product's rows bit for bit; a chunk's buffers stay in L2.
_HOLDOUT_CHUNK = 8192
# Parameter vectors scored per pass over the holdout: each chunk of the
# holdout is read once for all of them.
_THETA_GROUP = 8


class RiskEstimate(NamedTuple):
    """A Monte-Carlo risk value with its standard error (one float each,
    or one array entry per row of a stack of parameter vectors)."""

    value: float | np.ndarray
    se: float | np.ndarray

    def __float__(self) -> float:
        return self.value


# ============================================================
# Losses and (sub)gradients
# ============================================================

def _check_dims(theta: np.ndarray, x: np.ndarray) -> None:
    if theta.shape != x.shape:
        raise ValueError(f"dimension mismatch: theta {theta.shape}, x {x.shape}")


def square_loss(theta: DenseVector, x: DenseVector, y: float) -> float:
    """Return ``(y - x.theta)^2``."""
    theta = np.asarray(theta, float)
    x = np.asarray(x, float)
    _check_dims(theta, x)
    r = float(y) - float(x @ theta)
    return r * r


def _check_stack_dims(theta: np.ndarray, x: np.ndarray) -> None:
    if theta.shape[-1:] != x.shape[-1:] or max(theta.ndim, x.ndim) > 2:
        raise ValueError(f"dimension mismatch: theta {theta.shape}, x {x.shape}")


def square_grad(theta: DenseVector, x: DenseVector,
                y: float | np.ndarray) -> DenseVector:
    """Return the square-loss gradient ``2x(x.theta - y)``.

    ``theta`` and ``x`` may also be ``(k, d)`` stacks (one of them may be a
    single vector shared by every row), with one response per row in
    ``y``: row ``i`` is the gradient of sample ``i`` at ``theta[i]``, with
    the bits of the single-vector call.
    """
    theta = np.asarray(theta, float)
    x = np.asarray(x, float)
    _check_stack_dims(theta, x)
    # One ddot per row, as in float(x @ theta); a matrix-vector product
    # rounds differently.
    coef = 2.0 * (np.vecdot(x, theta) - y)
    return coef[..., None] * x


def pinball_loss(theta: DenseVector, x: DenseVector, y: float,
                 alpha_q: float) -> float:
    """Return the pinball loss ``u*(alpha_q - [u < 0])`` at ``u = y - x.theta``."""
    if not (0.0 < alpha_q < 1.0):
        raise ValueError("alpha_q must lie in (0, 1)")
    theta = np.asarray(theta, float)
    x = np.asarray(x, float)
    _check_dims(theta, x)
    u = float(y) - float(x @ theta)
    return u * (alpha_q - (1.0 if u < 0.0 else 0.0))


def pinball_subgrad(theta: DenseVector, x: DenseVector,
                    y: float | np.ndarray, alpha_q: float) -> DenseVector:
    """Return a pinball subgradient ``-x*(alpha_q - [u <= 0])``.

    At the kink ``u = 0`` the element with factor ``alpha_q - 1`` is
    returned (a fixed, deterministic choice from the subdifferential).
    Stacks work as in :func:`square_grad`.
    """
    if not (0.0 < alpha_q < 1.0):
        raise ValueError("alpha_q must lie in (0, 1)")
    theta = np.asarray(theta, float)
    x = np.asarray(x, float)
    _check_stack_dims(theta, x)
    u = y - np.vecdot(x, theta)
    return -(alpha_q - (u <= 0.0))[..., None] * x


# ============================================================
# Gaussian helpers (scalar, fast)
# ============================================================

def _phi(z: float) -> float:
    """Standard normal density."""
    return math.exp(-0.5 * z * z) / _SQRT_2PI


def _Phi(z: float) -> float:
    """Standard normal CDF."""
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def gaussian_pinball_risk(mu: float, tau: float, alpha_q: float) -> float:
    """Expected pinball loss of ``u ~ N(mu, tau^2)`` at level ``alpha_q``.

    Closed form: ``alpha_q*mu - mu*Phi(-mu/tau) + tau*phi(mu/tau)``;
    degenerates to the pinball loss of ``mu`` itself as ``tau -> 0``.
    """
    if tau < 0.0:
        raise ValueError("tau must be >= 0")
    if tau == 0.0:
        return mu * (alpha_q - (1.0 if mu < 0.0 else 0.0))
    z = mu / tau
    return alpha_q * mu - mu * _Phi(-z) + tau * _phi(z)


# ============================================================
# Environments
# ============================================================

def _one_or_many(risks: Callable[[np.ndarray], np.ndarray]
                 ) -> Callable[[np.ndarray], float | np.ndarray]:
    """Let a risk function of ``(k, d)`` stacks also take one vector.

    A stack gets one risk per row; a single vector is scored as a one-row
    stack and gets a float.
    """
    def risk(theta: np.ndarray) -> float | np.ndarray:
        theta = np.asarray(theta, float)
        values = risks(np.atleast_2d(theta))
        return float(values[0]) if theta.ndim == 1 else values
    return risk


def _blockwise(seed: int, design: Callable[[np.random.Generator, int],
                                            np.ndarray]
               ) -> Callable[[int, int], Iterator[np.ndarray]]:
    """A stream's ``covariate_blocks``: ``design(rng, n)`` draws the next
    ``n`` covariate rows from the design generator, which fills its output
    in order, so consecutive blocks are the rows of one full draw."""
    def covariate_blocks(n: int, block: int) -> Iterator[np.ndarray]:
        rng_x = np.random.default_rng(np.random.SeedSequence([seed, 1]))
        for start in range(0, n, block):
            yield design(rng_x, min(block, n - start))
    return covariate_blocks


def _sparse_unit_l1_parameter(d: int, d0: int,
                              rng: np.random.Generator) -> np.ndarray:
    """A vector with d0 nonzeros at random positions, rescaled to l1 norm 1."""
    theta = np.zeros(d)
    positions = rng.choice(d, size=d0, replace=False)
    values = rng.standard_normal(d0)
    # Guard against an (astronomically unlikely) all-zero draw.
    while not np.any(values):
        values = rng.standard_normal(d0)
    theta[positions] = values / np.sum(np.abs(values))
    return theta


def _validate_env_args(d: int, d0: int) -> None:
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if not (1 <= d0 <= d):
        raise ValueError(f"d0 must satisfy 1 <= d0 <= d, got d0={d0}, d={d}")


def make_square_env(d: int, d0: int, noise_sd: float, seed: int) -> Environment:
    """Square-loss stream ``y = x.theta_star + noise`` with Gaussian design.

    ``theta_star`` has ``d0`` nonzeros at seeded random positions with
    ``||theta_star||_1 = 1``; covariates are iid standard normal (identity
    covariance, so the excess risk of ``theta`` is exactly
    ``||theta - theta_star||_2^2``) and noise is ``N(0, noise_sd^2)``.

    Raises:
        ValueError: if ``d0`` is outside ``[1, d]`` or ``noise_sd < 0``.
    """
    _validate_env_args(d, d0)
    if noise_sd < 0.0:
        raise ValueError("noise_sd must be >= 0")
    theta_star = _sparse_unit_l1_parameter(
        d, d0, np.random.default_rng(np.random.SeedSequence([seed, 0])))

    def design(rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.standard_normal((n, d))

    def draw(n: int) -> tuple[np.ndarray, np.ndarray]:
        rng_x = np.random.default_rng(np.random.SeedSequence([seed, 1]))
        rng_e = np.random.default_rng(np.random.SeedSequence([seed, 2]))
        x = design(rng_x, n)
        y = x @ theta_star + noise_sd * rng_e.standard_normal(n)
        return x, y

    @_one_or_many
    def excess_risk_exact(thetas: np.ndarray) -> np.ndarray:
        # One ddot per row, as in float(diff @ diff) for a single vector.
        diff = thetas - theta_star
        return np.vecdot(diff, diff)

    config = {"loss": "square", "d": d, "d0": d0, "noise_sd": noise_sd,
              "alpha_q": None, "seed": seed}
    return Environment(dimension=d, loss="square", seed=seed, config=config,
                       theta_star_metrics=theta_star, draw=draw,
                       covariate_blocks=_blockwise(seed, design),
                       excess_risk_exact=excess_risk_exact)


def truncated_normal_variance(c: float) -> float:
    """Variance of a standard normal truncated to ``[-c, c]``."""
    if c <= 0.0:
        raise ValueError("truncation level must be > 0")
    z = 2.0 * _Phi(c) - 1.0
    return 1.0 - 2.0 * c * _phi(c) / z


def make_truncated_square_env(d: int, d0: int, noise_sd: float, seed: int,
                              x_bound: float = 2.0,
                              noise_bound_sds: float = 3.0) -> Environment:
    """Square-loss stream with almost-surely bounded design and responses.

    Covariate entries are iid standard normals truncated to
    ``[-x_bound, x_bound]`` (still mean zero, independent coordinates, so
    the covariance is ``v*I`` with ``v = truncated_normal_variance(x_bound)``
    and the excess risk of ``theta`` is exactly ``v*||theta-theta_star||^2``).
    Noise is ``N(0, noise_sd^2)`` truncated at ``noise_bound_sds`` standard
    deviations.  Hence ``||x||_inf <= x_bound`` and
    ``|y| <= x_bound + noise_bound_sds*noise_sd`` hold almost surely
    (``||theta_star||_1 = 1``), making the bounded-design risk bounds and
    the gradient bound applicable with certainty rather than empirically.

    The environment's config records ``x_bound``, the response bound
    ``y_bound``, and the strong-convexity constant ``alpha``.
    """
    _validate_env_args(d, d0)
    if noise_sd < 0.0:
        raise ValueError("noise_sd must be >= 0")
    theta_star = _sparse_unit_l1_parameter(
        d, d0, np.random.default_rng(np.random.SeedSequence([seed, 0])))
    v = truncated_normal_variance(x_bound)
    lo_x = _Phi(-x_bound)
    lo_e = _Phi(-noise_bound_sds)

    def design(rng: np.random.Generator, n: int) -> np.ndarray:
        # Inverse-CDF sampling of the truncated normals.
        return ndtri(rng.uniform(lo_x, 1.0 - lo_x, size=(n, d)))

    def draw(n: int) -> tuple[np.ndarray, np.ndarray]:
        rng_x = np.random.default_rng(np.random.SeedSequence([seed, 1]))
        rng_e = np.random.default_rng(np.random.SeedSequence([seed, 2]))
        x = design(rng_x, n)
        u_e = rng_e.uniform(lo_e, 1.0 - lo_e, size=n)
        y = x @ theta_star + noise_sd * ndtri(u_e)
        return x, y

    @_one_or_many
    def excess_risk_exact(thetas: np.ndarray) -> np.ndarray:
        diff = thetas - theta_star
        return v * np.vecdot(diff, diff)

    config = {"loss": "square", "d": d, "d0": d0, "noise_sd": noise_sd,
              "alpha_q": None, "seed": seed, "design": "truncated",
              "x_bound": x_bound,
              "y_bound": x_bound + noise_bound_sds * noise_sd,
              "alpha": v}
    return Environment(dimension=d, loss="square", seed=seed, config=config,
                       theta_star_metrics=theta_star, draw=draw,
                       covariate_blocks=_blockwise(seed, design),
                       excess_risk_exact=excess_risk_exact)


def make_quantile_env(d: int, d0: int, alpha_q: float, noise_sd: float,
                      seed: int) -> Environment:
    """Pinball-loss stream with an intercept covariate prepended.

    The generator is the square environment's (``y = x.theta_base + noise``
    with Gaussian design and noise), but covariate vectors carry a leading
    constant 1, so the ambient dimension is ``d + 1``.  The risk minimizer
    shifts the intercept by the noise's ``alpha_q``-quantile:
    ``theta_star = (noise_sd * ndtri(alpha_q), theta_base)``, and that
    shifted vector is the one exposed for metrics.

    The exact excess risk uses the Gaussian closed form: the residual at
    ``theta = (t0, tv)`` is ``N(-t0 + q0, noise_sd^2 + ||theta_base - tv||^2)``
    shifted appropriately, and the expected pinball loss of a Gaussian is
    analytic (:func:`gaussian_pinball_risk`).

    Raises:
        ValueError: if ``d0`` is outside ``[1, d]``, ``alpha_q`` outside
            (0, 1), or ``noise_sd < 0``.
    """
    _validate_env_args(d, d0)
    if not (0.0 < alpha_q < 1.0):
        raise ValueError("alpha_q must lie in (0, 1)")
    if noise_sd < 0.0:
        raise ValueError("noise_sd must be >= 0")
    theta_base = _sparse_unit_l1_parameter(
        d, d0, np.random.default_rng(np.random.SeedSequence([seed, 0])))
    q0 = noise_sd * float(ndtri(alpha_q))
    theta_star = np.concatenate(([q0], theta_base))
    min_risk = gaussian_pinball_risk(-q0, noise_sd, alpha_q)

    def draw(n: int) -> tuple[np.ndarray, np.ndarray]:
        rng_x = np.random.default_rng(np.random.SeedSequence([seed, 1]))
        rng_e = np.random.default_rng(np.random.SeedSequence([seed, 2]))
        x = rng_x.standard_normal((n, d))
        y = x @ theta_base + noise_sd * rng_e.standard_normal(n)
        return np.hstack([np.ones((n, 1)), x]), y

    def design(rng: np.random.Generator, n: int) -> np.ndarray:
        return np.hstack([np.ones((n, 1)), rng.standard_normal((n, d))])

    @_one_or_many
    def excess_risk_exact(thetas: np.ndarray) -> np.ndarray:
        dv = theta_base - thetas[:, 1:]
        spread = np.vecdot(dv, dv).tolist()
        # The closed form is scalar math (math.erf), one row at a time.
        return np.array([
            gaussian_pinball_risk(-t0, math.sqrt(noise_sd * noise_sd + s),
                                  alpha_q) - min_risk
            for t0, s in zip(thetas[:, 0].tolist(), spread)])

    config = {"loss": "pinball", "d": d, "d0": d0, "noise_sd": noise_sd,
              "alpha_q": alpha_q, "seed": seed}
    return Environment(dimension=d + 1, loss="pinball", seed=seed,
                       config=config, theta_star_metrics=theta_star,
                       draw=draw, covariate_blocks=_blockwise(seed, design),
                       excess_risk_exact=excess_risk_exact)


# ============================================================
# True-excess-risk oracle
# ============================================================

def _holdout(env: Environment, n: int = _HOLDOUT_SIZE
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fixed seeded holdout of a quantile environment for Monte-Carlo risks.

    Returns ``(x, y, loss_star)``; ``loss_star`` holds the pinball losses
    ``u*(alpha_q - [u < 0])`` of ``theta_star`` at ``u = y - x.theta_star``.
    The arrays are cached per environment config and are read-only.
    """
    if env.loss != "pinball":
        raise ValueError(f"no Monte-Carlo holdout for {env.loss!r} loss")
    cfg = env.config
    key = (cfg["d"], cfg["d0"], cfg["noise_sd"], cfg["alpha_q"],
           cfg["seed"], n)
    if key in _HOLDOUT_CACHE:
        _HOLDOUT_CACHE.move_to_end(key)
        return _HOLDOUT_CACHE[key]
    seed = int(cfg["seed"])
    d = int(cfg["d"])
    alpha_q = float(cfg["alpha_q"])
    rng_x = np.random.default_rng(np.random.SeedSequence([seed, 3]))
    rng_e = np.random.default_rng(np.random.SeedSequence([seed, 4]))
    x = rng_x.standard_normal((n, d))
    noise = float(cfg["noise_sd"]) * rng_e.standard_normal(n)
    y = x @ env.theta_star_metrics[1:] + noise
    x = np.hstack([np.ones((n, 1)), x])
    u_star = y - x @ env.theta_star_metrics
    loss_star = u_star * (alpha_q - (u_star < 0.0))
    entry = (x, y, loss_star)
    for array in entry:
        array.flags.writeable = False
    _HOLDOUT_CACHE[key] = entry
    while len(_HOLDOUT_CACHE) > _HOLDOUT_CACHE_MAX:
        _HOLDOUT_CACHE.popitem(last=False)
    return entry


def true_excess_risk(theta: DenseVector, env: Environment,
                     se_rows: np.ndarray | None = None
                     ) -> float | np.ndarray | RiskEstimate:
    """Instantaneous excess risk of ``theta`` under ``env``'s distribution.

    ``theta`` is one parameter vector or a ``(k, d)`` stack of them; a
    stack gets one entry per row, a single vector plain floats.

    Square environments have a closed form (``alpha * ||theta - theta*||^2``)
    and return it.  The quantile environment returns a
    :class:`RiskEstimate` — a paired Monte-Carlo estimate over a fixed
    seeded holdout of 10^5 samples, with its standard error.  The
    holdout's ``theta_star`` losses are computed once (see :func:`_holdout`),
    and one pass over the holdout scores a group of rows.  ``se_rows``, a
    boolean mask over the rows, names the rows whose standard error is
    wanted (default: all); the others get NaN.
    """
    thetas = np.asarray(theta, float)
    if thetas.ndim not in (1, 2) or thetas.shape[-1] != env.dimension:
        raise ValueError(f"theta has shape {thetas.shape}, expected "
                         f"({env.dimension},) or (k, {env.dimension})")
    if env.loss == "square":
        return env.excess_risk_exact(thetas)
    stack = np.atleast_2d(thetas)
    k = stack.shape[0]
    want_se = (np.ones(k, bool) if se_rows is None
               else np.asarray(se_rows, bool))
    x, y, loss_star = _holdout(env)
    alpha_q = float(env.config["alpha_q"])
    n = x.shape[0]
    values, ses = np.empty(k), np.full(k, np.nan)
    # Each row's losses minus the theta_star losses, kept whole: the mean
    # and standard error sum a row in one pairwise pass, as for one vector.
    diffs = np.empty((min(k, _THETA_GROUP), n))
    chunk = min(n, _HOLDOUT_CHUNK)
    u, factor = np.empty(chunk), np.empty(chunk)
    negative = np.empty(chunk, bool)
    for g0 in range(0, k, _THETA_GROUP):
        group = stack[g0:g0 + _THETA_GROUP]
        for c0 in range(0, n, chunk):
            c1 = min(n, c0 + chunk)
            x_c, y_c, star_c = x[c0:c1], y[c0:c1], loss_star[c0:c1]
            u_c, neg_c, f_c = u[:c1 - c0], negative[:c1 - c0], factor[:c1 - c0]
            for row, theta_r in zip(diffs, group):
                # The pinball loss u * (alpha_q - [u < 0]) at u = y - x.theta.
                np.matmul(x_c, theta_r, out=u_c)
                np.subtract(y_c, u_c, out=u_c)
                np.less(u_c, 0.0, out=neg_c)
                np.subtract(alpha_q, neg_c, out=f_c)
                np.multiply(u_c, f_c, out=u_c)
                np.subtract(u_c, star_c, out=row[c0:c1])
        for r, diff in enumerate(diffs[:len(group)], start=g0):
            values[r] = diff.mean()
            if want_se[r]:
                ses[r] = diff.std(ddof=1) / math.sqrt(n)
    if thetas.ndim == 1:
        return RiskEstimate(value=float(values[0]), se=float(ses[0]))
    return RiskEstimate(value=values, se=ses)
