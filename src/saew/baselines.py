"""l1-regularized dual averaging (RDA), the sparse online baseline.

The iterate is driven by the exact running mean of observed gradients
through a soft-threshold: coordinates whose mean gradient is dominated by
the (step-dependent) l1 weight are exactly zero, the rest move opposite
the thresholded mean with a sqrt(t) step scale.  Hyperparameters are set
per experiment (the ``rda_*`` config keys); ``HYPERPARAMETER_GRID`` lists
the log-decade values to choose them from.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from saew.core import DenseVector

# Log-decade candidate values for the hyperparameters: 1e-5 ... 1e3.
HYPERPARAMETER_GRID: tuple[float, ...] = tuple(
    float(10.0 ** k) for k in range(-5, 4))


@dataclasses.dataclass
class RdaState:
    """Mutable state of the dual-averaging baseline.

    One state may also run several independent learners in lockstep:
    ``grad_sum`` and ``theta`` are then ``(S, d)`` arrays with one learner
    per row, all at the same ``t``.

    Attributes:
        dimension: ambient dimension.
        gamma: step-size scale (> 0).
        rho: enhanced-sparsity offset (>= 0); adds ``gamma*rho/sqrt(t)``
            to the l1 weight.
        lam: base l1 weight (>= 0).
        t: number of gradients observed.
        grad_sum: exact running sum of the observed gradients.
        theta: current point (the prediction for the next step).
    """

    dimension: int
    gamma: float
    rho: float
    lam: float
    t: int
    grad_sum: np.ndarray
    theta: np.ndarray


def rda_init(d: int, gamma: float, rho: float = 0.0,
             lam: float = 0.0, rows: int | None = None) -> RdaState:
    """Fresh state at the origin; with ``rows``, that many learners as the
    rows of ``(rows, d)`` arrays.

    Raises:
        ValueError: if ``d < 1``, ``gamma <= 0``, ``rho < 0``, ``lam < 0``
            or ``rows < 1``.
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if not (gamma > 0.0) or not np.isfinite(gamma):
        raise ValueError(f"gamma must be > 0, got {gamma}")
    if rho < 0.0 or not np.isfinite(rho):
        raise ValueError(f"rho must be >= 0, got {rho}")
    if lam < 0.0 or not np.isfinite(lam):
        raise ValueError(f"lambda must be >= 0, got {lam}")
    if rows is not None and rows < 1:
        raise ValueError(f"rows must be >= 1, got {rows}")
    shape = (d,) if rows is None else (rows, d)
    return RdaState(dimension=d, gamma=gamma, rho=rho, lam=lam, t=0,
                    grad_sum=np.zeros(shape), theta=np.zeros(shape))


def rda_step(state: RdaState, gradient: DenseVector) -> RdaState:
    """Fold one gradient into the mean and refresh the soft-threshold point.

    With ``lam_t = lam + gamma*rho/sqrt(t)``, each coordinate becomes 0 if
    ``|grad_mean_j| <= lam_t`` and
    ``-(sqrt(t)/gamma)*(grad_mean_j - lam_t*sign(grad_mean_j))`` otherwise.
    A state of ``(S, d)`` rows takes one gradient row per learner; every
    operation is elementwise, so each row has the bits of its own
    single-learner state.  The state is modified in place and returned.

    Raises:
        ValueError: non-finite or wrongly shaped gradient (state unchanged).
    """
    gradient = np.asarray(gradient, float)
    if gradient.shape != state.grad_sum.shape:
        raise ValueError(f"gradient has shape {gradient.shape}, "
                         f"expected {state.grad_sum.shape}")
    # The sum of squares is finite only if every entry is; only one that
    # is not (or that overflows) is scanned entry by entry.
    if (not math.isfinite(np.vdot(gradient, gradient))
            and not np.isfinite(gradient).all()):
        raise ValueError("gradient must be finite")
    state.t += 1
    t = state.t
    state.grad_sum += gradient
    grad_mean = state.grad_sum / t
    sqrt_t = math.sqrt(t)
    lam_t = state.lam + state.gamma * state.rho / sqrt_t
    mag = np.abs(grad_mean)
    shrunk = np.where(mag <= lam_t, 0.0,
                      -(sqrt_t / state.gamma)
                      * (grad_mean - lam_t * np.sign(grad_mean)))
    state.theta = shrunk
    return state


def rda_predict(state: RdaState) -> DenseVector:
    """Current point: the state's array, which :func:`rda_step` replaces
    and never writes into."""
    return state.theta
