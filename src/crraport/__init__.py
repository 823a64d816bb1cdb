"""Closed-form CRRA-optimal portfolios under a log-normal approximation.

The package estimates market parameters from simple-return panels,
computes the classical efficient-frontier machinery, solves the power-
and log-utility portfolio problems in closed form, cross-checks every
closed form against an independent numerical maximizer, and ships a
desk-scale study harness with a CLI front end.
"""

from .crra import (
    CrraSolution,
    PowerGrid,
    gamma_min,
    objective_rows,
    objective_value,
    power_grid,
    power_solution,
)
from .frontier import (
    FrontierConstants,
    Weights,
    efficient_constants,
    efficient_constants_rows,
    portfolio_moments_rows,
    sharpe_weights,
)
from .lognormal import psi, psi_sup_bound, psi_sup_empirical
from .market import (
    MarketParams,
    ReturnMatrix,
    SynthSpec,
    estimate_params,
    load_returns_csv,
    synth_market,
)
from .oracle import OracleConfig, maximize_numeric, random_feasible
from .stats import TestResult, normal_cdf, quantile, quantile_columns, shapiro_wilk
from .study import StudyConfig, StudyReport, default_synth_spec, run_study

__version__ = "0.1.0"

__all__ = [
    "CrraSolution",
    "FrontierConstants",
    "MarketParams",
    "OracleConfig",
    "PowerGrid",
    "ReturnMatrix",
    "StudyConfig",
    "StudyReport",
    "SynthSpec",
    "TestResult",
    "Weights",
    "default_synth_spec",
    "efficient_constants",
    "efficient_constants_rows",
    "estimate_params",
    "gamma_min",
    "load_returns_csv",
    "maximize_numeric",
    "normal_cdf",
    "objective_rows",
    "objective_value",
    "portfolio_moments_rows",
    "power_grid",
    "power_solution",
    "psi",
    "psi_sup_bound",
    "psi_sup_empirical",
    "quantile",
    "quantile_columns",
    "random_feasible",
    "run_study",
    "sharpe_weights",
    "shapiro_wilk",
    "synth_market",
]
