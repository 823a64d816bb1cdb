"""Closed-form CRRA-optimal portfolios under a log-normal approximation.

The package estimates market parameters from simple-return panels,
computes the classical efficient-frontier machinery, solves the power-
and log-utility portfolio problems in closed form, cross-checks every
closed form against a derivative-free numerical maximizer, and ships a
desk-scale study harness with a CLI front end.
"""

from .crra import (
    CrraSolution,
    PowerGrid,
    discriminant,
    gamma_min,
    log_solution,
    objective_value,
    power_grid,
    power_solution,
)
from .frontier import (
    FrontierConstants,
    Weights,
    efficient_constants,
    gmv_weights,
    markowitz_weights,
    parabola_variance,
    portfolio_moments,
    sharpe_weights,
)
from .lognormal import (
    LogNormalParams,
    lognormal_moment,
    match_params,
    psi,
    psi_sup_bound,
    psi_sup_empirical,
)
from .market import (
    MarketParams,
    ReturnMatrix,
    SynthSpec,
    estimate_params,
    load_returns_csv,
    subset,
    synth_market,
)
from .oracle import OracleConfig, maximize_numeric, random_feasible
from .stats import TestResult, normal_cdf, quantile, shapiro_wilk, shapiro_wilk_rows
from .study import StudyConfig, StudyReport, default_synth_spec, run_study

__version__ = "0.1.0"

__all__ = [
    "CrraSolution",
    "FrontierConstants",
    "LogNormalParams",
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
    "discriminant",
    "efficient_constants",
    "estimate_params",
    "gamma_min",
    "gmv_weights",
    "load_returns_csv",
    "log_solution",
    "lognormal_moment",
    "markowitz_weights",
    "match_params",
    "maximize_numeric",
    "normal_cdf",
    "objective_value",
    "parabola_variance",
    "portfolio_moments",
    "power_grid",
    "power_solution",
    "psi",
    "psi_sup_bound",
    "psi_sup_empirical",
    "quantile",
    "random_feasible",
    "run_study",
    "sharpe_weights",
    "shapiro_wilk",
    "shapiro_wilk_rows",
    "subset",
    "synth_market",
]
