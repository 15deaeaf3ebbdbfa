"""Sparse acceleration of slow-rate online optimizers.

The package wraps any anytime online convex optimizer that works inside an
l1-ball and carries a square-root-regret certificate, restarting it in
exponentially shrinking balls centered on truncated running averages.  Under
a strongly convex risk the wrapped optimizer's averaged iterates converge at
the fast 1/T rate while every prediction stays inside an l1-ball of
controlled radius.

Modules:
    core         shared types: vectors, l1-balls, environments, run records
    subroutine   exponentiated-gradient learner over ball corners + certificate
    engine       the acceleration loop (sessions, shrinking balls, estimators)
    bounds       closed-form risk/confidence bound evaluators
    losses       square and pinball losses and seeded sample environments
    calibration  doubling-session hyperparameter grids + online aggregation
    baselines    l1-regularized dual averaging (RDA)
    harness      experiment runner, CSV emission, summaries, plot scripts
    cli          ``saew`` command-line entry point
"""

from saew.baselines import HYPERPARAMETER_GRID, RdaState, rda_init, rda_predict, rda_step
from saew.calibration import (
    BudgetExceededError,
    CalibrationState,
    GridEntry,
    SessionPredictor,
    build_grid,
    calibration_estimator,
    calibration_init,
    calibration_step,
    grid_cost,
    run_calibration,
)
from saew.core import (
    BALL_TOL,
    BASE_COLUMNS,
    DenseVector,
    Environment,
    L1Ball,
    ProblemParams,
    RunRecord,
    ball_contains,
    config_hash,
    excess_l2,
    l1_norm,
)
from saew.engine import (
    SaewState,
    saew_estimators,
    saew_init,
    saew_restore,
    saew_snapshot,
    saew_step,
    truncate_top,
)
from saew.harness import (
    ConfigError,
    ExperimentConfig,
    emit_plots,
    run_experiment,
    run_one_seed,
    summarize,
)
from saew.losses import (
    make_quantile_env,
    make_square_env,
    make_truncated_square_env,
    pinball_loss,
    pinball_subgrad,
    square_grad,
    square_loss,
    true_excess_risk,
)
from saew.subroutine import EGState, RegretCertificate, eg_certificate, eg_init

__all__ = [
    "BALL_TOL",
    "BASE_COLUMNS",
    "BudgetExceededError",
    "CalibrationState",
    "ConfigError",
    "DenseVector",
    "EGState",
    "Environment",
    "ExperimentConfig",
    "GridEntry",
    "HYPERPARAMETER_GRID",
    "L1Ball",
    "ProblemParams",
    "RdaState",
    "RegretCertificate",
    "RunRecord",
    "SaewState",
    "SessionPredictor",
    "ball_contains",
    "build_grid",
    "calibration_estimator",
    "calibration_init",
    "calibration_step",
    "config_hash",
    "eg_certificate",
    "eg_init",
    "emit_plots",
    "excess_l2",
    "grid_cost",
    "l1_norm",
    "make_quantile_env",
    "make_square_env",
    "make_truncated_square_env",
    "pinball_loss",
    "pinball_subgrad",
    "rda_init",
    "rda_predict",
    "rda_step",
    "run_calibration",
    "run_experiment",
    "run_one_seed",
    "saew_estimators",
    "saew_init",
    "saew_restore",
    "saew_snapshot",
    "saew_step",
    "square_grad",
    "square_loss",
    "summarize",
    "true_excess_risk",
    "truncate_top",
]

__version__ = "0.1.0"
