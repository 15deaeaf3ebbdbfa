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
import weakref
from collections.abc import Callable, Iterator
from statistics import NormalDist
from typing import NamedTuple

import numpy as np
# numpy loads its random module on first use; every environment seeds
# generators, so it is loaded with the package rather than mid-run.
import numpy.random  # noqa: F401

from saew.core import DenseVector, Environment

# The standard normal's density, CDF and quantile (scalar math).
_NORMAL = NormalDist()

# Each environment's Monte-Carlo holdouts (~18 MB each at d ~ 20) by size,
# dropped with it; an entry is what _holdout returns.
_HOLDOUT_CACHE: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
_HOLDOUT_SIZE = 10 ** 5
# Holdout rows drawn at a time when it is built.
_HOLDOUT_CHUNK = 8192
# The holdout's columns are padded with zeros to a multiple of this.  A
# row of a matrix-matrix product over chunks that start and end on
# multiples of 16 columns has the bits of that row's product with the
# whole holdout; narrower or unaligned chunk ends round some entries
# differently.
_HOLDOUT_PAD = 16
# The oracle scores tiles of up to _TILE_ROWS vectors on _TILE_COLUMNS
# holdout columns (a multiple of _HOLDOUT_PAD; two 256 KB buffers in L2).
# A row of a tile's product has the same bits for tiles of 1 to 32 rows.
_TILE_ROWS = 32
_TILE_COLUMNS = 1024


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
    return alpha_q * mu - mu * _NORMAL.cdf(-z) + tau * _NORMAL.pdf(z)


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


def _stream(seed: int, sample: Callable[
        [np.random.Generator, np.random.Generator, int],
        tuple[np.ndarray, np.ndarray]]) -> dict[str, Callable]:
    """A stream's ``sample``, and its ``draw`` and ``blocks`` read from it.

    ``sample(rng_x, rng_e, n)`` takes the next ``n`` rows' covariates from
    ``rng_x`` and their noise from ``rng_e``, and computes each response
    from its own row alone (one ddot per row, as the gradients take it).
    The generators fill their outputs in order, so successive calls on one
    pair of generators return the rows of one call on a fresh pair, bit for
    bit: ``draw(n)`` is a prefix of ``draw(m)``, and ``blocks(n, block)``
    yields ``draw(n)`` in consecutive ``(x, y)`` blocks of at most
    ``block`` rows.
    """
    def generators() -> tuple[np.random.Generator, np.random.Generator]:
        return (np.random.default_rng(np.random.SeedSequence([seed, 1])),
                np.random.default_rng(np.random.SeedSequence([seed, 2])))

    def draw(n: int) -> tuple[np.ndarray, np.ndarray]:
        return sample(*generators(), n)

    def blocks(n: int, block: int
               ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        rng_x, rng_e = generators()
        for start in range(0, n, block):
            yield sample(rng_x, rng_e, min(block, n - start))

    return {"sample": sample, "draw": draw, "blocks": blocks}


def _sparse_unit_l1_parameter(d: int, d0: int, seed: int) -> np.ndarray:
    """A vector with d0 nonzeros drawn on generator [seed, 0], l1 norm 1."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    theta = np.zeros(d)
    positions = rng.choice(d, size=d0, replace=False)
    values = rng.standard_normal(d0)
    # Guard against an (astronomically unlikely) all-zero draw.
    while not np.any(values):
        values = rng.standard_normal(d0)
    theta[positions] = values / np.sum(np.abs(values))
    return theta


def _validate_env_args(d: int, d0: int, noise_sd: float) -> None:
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if not (1 <= d0 <= d):
        raise ValueError(f"d0 must satisfy 1 <= d0 <= d, got d0={d0}, d={d}")
    if noise_sd < 0.0:
        raise ValueError("noise_sd must be >= 0")


def make_square_env(d: int, d0: int, noise_sd: float, seed: int) -> Environment:
    """Square-loss stream ``y = x.theta_star + noise`` with Gaussian design.

    ``theta_star`` has ``d0`` nonzeros at seeded random positions with
    ``||theta_star||_1 = 1``; covariates are iid standard normal (identity
    covariance, so the excess risk of ``theta`` is exactly
    ``||theta - theta_star||_2^2``) and noise is ``N(0, noise_sd^2)``.

    Raises:
        ValueError: if ``d0`` is outside ``[1, d]`` or ``noise_sd < 0``.
    """
    _validate_env_args(d, d0, noise_sd)
    theta_star = _sparse_unit_l1_parameter(d, d0, seed)

    def sample(rng_x: np.random.Generator, rng_e: np.random.Generator,
               n: int) -> tuple[np.ndarray, np.ndarray]:
        x = rng_x.standard_normal((n, d))
        y = np.vecdot(x, theta_star) + noise_sd * rng_e.standard_normal(n)
        return x, y

    @_one_or_many
    def excess_risk_exact(thetas: np.ndarray) -> np.ndarray:
        # One ddot per row, as in float(diff @ diff) for a single vector.
        diff = thetas - theta_star
        return np.vecdot(diff, diff)

    config = {"loss": "square", "d": d, "d0": d0, "noise_sd": noise_sd,
              "alpha_q": None, "seed": seed}
    return Environment(dimension=d, loss="square", seed=seed, config=config,
                       theta_star_metrics=theta_star,
                       excess_risk_exact=excess_risk_exact,
                       **_stream(seed, sample))


def truncated_normal_variance(c: float) -> float:
    """Variance of a standard normal truncated to ``[-c, c]``."""
    if c <= 0.0:
        raise ValueError("truncation level must be > 0")
    z = 2.0 * _NORMAL.cdf(c) - 1.0
    return 1.0 - 2.0 * c * _NORMAL.pdf(c) / z


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
    # The sampler's inverse CDF, imported here so that importing saew
    # does not load scipy.
    from scipy.special import ndtri

    _validate_env_args(d, d0, noise_sd)
    theta_star = _sparse_unit_l1_parameter(d, d0, seed)
    v = truncated_normal_variance(x_bound)
    lo_x = _NORMAL.cdf(-x_bound)
    lo_e = _NORMAL.cdf(-noise_bound_sds)

    def sample(rng_x: np.random.Generator, rng_e: np.random.Generator,
               n: int) -> tuple[np.ndarray, np.ndarray]:
        # Inverse-CDF sampling of the truncated normals.
        x = ndtri(rng_x.uniform(lo_x, 1.0 - lo_x, size=(n, d)))
        u_e = rng_e.uniform(lo_e, 1.0 - lo_e, size=n)
        return x, np.vecdot(x, theta_star) + noise_sd * ndtri(u_e)

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
                       theta_star_metrics=theta_star,
                       excess_risk_exact=excess_risk_exact,
                       **_stream(seed, sample))


def make_quantile_env(d: int, d0: int, alpha_q: float, noise_sd: float,
                      seed: int) -> Environment:
    """Pinball-loss stream with an intercept covariate prepended.

    The generator is the square environment's (``y = x.theta_base + noise``
    with Gaussian design and noise), but covariate vectors carry a leading
    constant 1, so the ambient dimension is ``d + 1``.  The risk minimizer
    shifts the intercept by the noise's ``alpha_q``-quantile:
    ``theta_star = (noise_sd * Phi^-1(alpha_q), theta_base)``, and that
    shifted vector is the one exposed for metrics; ``Phi^-1`` is
    ``statistics.NormalDist().inv_cdf``.

    The exact excess risk uses the Gaussian closed form: the residual at
    ``theta = (t0, tv)`` is ``N(-t0 + q0, noise_sd^2 + ||theta_base - tv||^2)``
    shifted appropriately, and the expected pinball loss of a Gaussian is
    analytic (:func:`gaussian_pinball_risk`).

    Raises:
        ValueError: if ``d0`` is outside ``[1, d]``, ``alpha_q`` outside
            (0, 1), or ``noise_sd < 0``.
    """
    _validate_env_args(d, d0, noise_sd)
    if not (0.0 < alpha_q < 1.0):
        raise ValueError("alpha_q must lie in (0, 1)")
    theta_base = _sparse_unit_l1_parameter(d, d0, seed)
    q0 = noise_sd * _NORMAL.inv_cdf(alpha_q)
    theta_star = np.concatenate(([q0], theta_base))
    min_risk = gaussian_pinball_risk(-q0, noise_sd, alpha_q)

    def sample(rng_x: np.random.Generator, rng_e: np.random.Generator,
               n: int) -> tuple[np.ndarray, np.ndarray]:
        x = rng_x.standard_normal((n, d))
        y = np.vecdot(x, theta_base) + noise_sd * rng_e.standard_normal(n)
        return np.hstack([np.ones((n, 1)), x]), y

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
                       excess_risk_exact=excess_risk_exact,
                       **_stream(seed, sample))


# ============================================================
# True-excess-risk oracle
# ============================================================

def _holdout(env: Environment, n: int = _HOLDOUT_SIZE) -> tuple:
    """Fixed seeded holdout of a quantile environment for Monte-Carlo risks.

    Returns ``(xyt, x_mean, rho_star, min_star_sum, n)``: the ``n``
    samples are the columns of ``xyt``, the ``(dimension + 1, n_pad)``
    transposed design with the responses ``y`` as its last row,
    zero-padded to a multiple of 16; ``x_mean`` is the mean design row
    (``y`` left out).  At theta_star's residuals ``u*``, ``rho_star`` holds
    the pinball losses ``alpha_q*u* - min(u*, 0)`` and ``min_star_sum`` the
    sum of ``min(u*, 0)``, taken as every scored vector's are (see
    :func:`_scan`), so theta_star scores exactly 0.  ``env.sample`` draws
    the samples on generators ``[seed, 3]`` and ``[seed, 4]``,
    ``_HOLDOUT_CHUNK`` rows at a time, with the bits of one ``n``-row call.
    The arrays are read-only and cached while the environment lives.
    """
    if env.loss != "pinball":
        raise ValueError(f"no Monte-Carlo holdout for {env.loss!r} loss")
    cached = _HOLDOUT_CACHE.setdefault(env, {})
    if n in cached:
        return cached[n]
    rng_x = np.random.default_rng(np.random.SeedSequence([env.seed, 3]))
    rng_e = np.random.default_rng(np.random.SeedSequence([env.seed, 4]))
    n_pad = -(-n // _HOLDOUT_PAD) * _HOLDOUT_PAD
    xyt = np.zeros((env.dimension + 1, n_pad))
    for c0 in range(0, n, _HOLDOUT_CHUNK):
        c1 = min(c0 + _HOLDOUT_CHUNK, n)
        x, xyt[-1, c0:c1] = env.sample(rng_x, rng_e, c1 - c0)
        xyt[:-1, c0:c1] = x.T
    alpha_q = float(env.config["alpha_q"])
    star = env.theta_star_metrics[None]
    u = np.empty(n_pad)
    # The row [-theta_star, 1], as _scan takes it.
    _gemm(np.append(-star, 1.0)[None], xyt, out=u[None])
    rho_star = alpha_q * u - np.minimum(u, 0.0)
    min_star_sum = _scan(star, np.zeros(1, bool), xyt, rho_star, alpha_q)[0]
    entry = cached[n] = (xyt, xyt[:-1].sum(axis=1) / n, rho_star,
                         float(min_star_sum[0]), n)
    for array in entry[:3]:
        array.flags.writeable = False
    return entry


def _gemm(group: np.ndarray, xt: np.ndarray, out: np.ndarray) -> None:
    """Write the products ``group @ xt`` into ``out`` by a matrix-matrix
    product.

    numpy computes a product with a single row as a matrix-vector
    product, which rounds differently; a one-row group is doubled and the
    copy's products dropped, so every entry has a gemm's bits.
    """
    if len(group) > 1:
        np.matmul(group, xt, out=out)
    else:
        out[:] = (np.concatenate((group, group)) @ xt)[:1]


def _scan(stack: np.ndarray, want_se: np.ndarray, xyt: np.ndarray,
          rho_star: np.ndarray, alpha_q: float
          ) -> tuple[np.ndarray, np.ndarray]:
    """Sums over the holdout columns of ``xyt`` per row of ``stack``, at
    residuals ``u = y - x.theta``: of ``min(u, 0)``, and for the rows that
    ``want_se`` names (zero elsewhere) of the squared paired differences
    ``d = alpha_q*u - min(u, 0) - rho_star``.

    Chunk-major: every tile of rows reads a chunk of columns in turn, and
    one product of the tile's ``[-theta, 1]`` rows with the chunk gives
    its residuals.  Rows with a standard error are tiled apart from the
    others, which take two passes over a tile after its product.  A row's
    sums depend on it alone.
    """
    k = len(stack)
    min_sums, squares = np.zeros(k), np.zeros(k)
    residual_rows = np.hstack((-stack, np.ones((k, 1))))
    tiles = [(rows[i:i + _TILE_ROWS], se) for se in (False, True)
             for rows in [np.flatnonzero(want_se == se)]
             for i in range(0, len(rows), _TILE_ROWS)]
    tiles = [(rows, residual_rows[rows], se) for rows, se in tiles]
    buffers = np.empty((2, min(k, _TILE_ROWS) * _TILE_COLUMNS))
    for c0 in range(0, xyt.shape[1], _TILE_COLUMNS):
        c1 = min(c0 + _TILE_COLUMNS, xyt.shape[1])
        for rows, group, se in tiles:
            u, m = buffers[:, :len(rows) * (c1 - c0)].reshape(2, len(rows), -1)
            _gemm(group, xyt[:, c0:c1], out=u)
            if not se:
                np.minimum(u, 0.0, out=u)
                min_sums[rows] += u.sum(axis=1)
                continue
            np.minimum(u, 0.0, out=m)
            min_sums[rows] += m.sum(axis=1)
            np.multiply(u, alpha_q, out=u)
            np.subtract(u, m, out=u)
            np.subtract(u, rho_star[c0:c1], out=u)
            squares[rows] += np.vecdot(u, u)
    return min_sums, squares


def true_excess_risk(theta: DenseVector, env: Environment,
                     se_rows: np.ndarray | None = None
                     ) -> float | np.ndarray | RiskEstimate:
    """Instantaneous excess risk of ``theta`` under ``env``'s distribution.

    ``theta`` is one parameter vector or a ``(k, d)`` stack of them; a
    stack gets one entry per row, a single vector plain floats.

    Square environments have a closed form (``alpha * ||theta - theta*||^2``)
    and return it.  The quantile environment returns a
    :class:`RiskEstimate` — a paired Monte-Carlo estimate over a fixed
    seeded holdout of 10^5 samples, with its standard error: one pass over
    the holdout (see :func:`_scan`) scores the whole stack.  The paired
    differences sum to ``n`` times the value, so the standard error needs
    only the sum of their squares besides it.  A row's value and standard
    error depend on the row alone, not on the stack it comes in.
    ``se_rows``, a boolean mask of shape ``(k,)``, names the rows whose
    standard error is wanted (default: all); the others get NaN.

    Raises:
        ValueError: ``theta`` of the wrong shape or with a non-finite
            entry (the message names the first such row), or ``se_rows``
            of a shape other than ``(k,)``.
    """
    thetas = np.asarray(theta, float)
    if thetas.ndim not in (1, 2) or thetas.shape[-1] != env.dimension:
        raise ValueError(f"theta has shape {thetas.shape}, expected "
                         f"({env.dimension},) or (k, {env.dimension})")
    stack = np.atleast_2d(thetas)
    k = stack.shape[0]
    finite = np.isfinite(stack).all(axis=1)
    if not finite.all():
        raise ValueError(
            f"theta row {np.argmin(finite)} has a non-finite entry")
    want_se = (np.ones(k, bool) if se_rows is None
               else np.asarray(se_rows, bool))
    if want_se.shape != (k,):
        raise ValueError(f"se_rows has shape {want_se.shape}, expected "
                         f"({k},), one entry per row of theta")
    if env.loss == "square":
        return env.excess_risk_exact(thetas)
    xyt, x_mean, rho_star, min_star_sum, n = _holdout(env)
    alpha_q = float(env.config["alpha_q"])
    min_sums, squares = _scan(stack, want_se, xyt, rho_star, alpha_q)
    # The pinball loss is alpha_q*u - min(u, 0), and a row's residuals are
    # theta_star's minus x.(theta - theta_star).
    values = ((min_star_sum - min_sums) / n
              - alpha_q * np.vecdot(stack - env.theta_star_metrics, x_mean))
    var = np.maximum(squares - values * (values * n), 0.0) / (n - 1)
    ses = np.where(want_se, np.sqrt(var) / math.sqrt(n), np.nan)
    if thetas.ndim == 1:
        return RiskEstimate(value=float(values[0]), se=float(ses[0]))
    return RiskEstimate(value=values, se=ses)
