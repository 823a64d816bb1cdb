"""Log-normal approximation: moment matching and the normal gap.

A portfolio gross return with mean E and variance V is approximated by
the log-normal law with parameters

    beta^2 = ln(1 + V / E^2),    alpha = 2 ln E - ln(V + E^2) / 2,

chosen so the first two moments match exactly. The quality of the
approximation is controlled by the CDF gap

    psi(x) = Phi((x - mu)/sigma) - Phi((ln x - ln mu)/(sigma/mu)),

whose sup norm is O(sigma/mu): ``psi_sup_bound`` evaluates the analytic
envelope and ``psi_sup_empirical`` grid-searches |psi| directly.
"""

from __future__ import annotations

import math

import numpy as np

from .stats import normal_cdf

__all__ = [
    "psi",
    "psi_sup_bound",
    "psi_sup_empirical",
]


def psi(x, mu: float, sigma: float):
    """Gap between the N(mu, sigma^2) CDF and its matched log-normal CDF.

    The matched law is ln N(ln mu, (sigma/mu)^2). For x <= 0 the
    log-normal CDF is 0, so the gap reduces to the normal CDF alone.
    Accepts scalars or arrays.
    """
    if not (mu > 0.0 and sigma > 0.0):  # NaN fails too
        raise ValueError("mu and sigma must be positive")
    arr = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_cdf = normal_cdf((np.log(arr) - math.log(mu)) / (sigma / mu))
    gap = normal_cdf((arr - mu) / sigma) - np.where(arr > 0.0, log_cdf, 0.0)
    return float(gap) if arr.ndim == 0 else gap


def psi_sup_bound(mu: float, sigma: float) -> float:
    """Analytic upper bound for sup |psi| at ratio x = sigma/mu.

    max[(e^t - 1 - t); (e^{2x} - 1 - 2x)] / (x sqrt(2 pi)) with
    t = 1 - x^2 - sqrt(x^4 + 1) <= 0; the two branches cover the
    negative- and positive-side extrema of psi.
    """
    if not (mu > 0.0 and sigma > 0.0):  # NaN fails too
        raise ValueError("mu and sigma must be positive")
    x = sigma / mu
    t = 1.0 - x * x - math.sqrt(x**4 + 1.0)
    branch_neg = (math.expm1(t) - t) / x
    branch_pos = (math.expm1(2.0 * x) - 2.0 * x) / x
    return max(branch_neg, branch_pos) / math.sqrt(2.0 * math.pi)


def psi_sup_empirical(mu: float, sigma: float, n_grid: int = 10_000) -> float:
    """Grid-searched sup of |psi|.

    The grid concatenates the two bracketing intervals where the
    nonzero extrema of psi provably live (scaled by mu) with a
    log-spaced envelope over (mu e^{-10x}, mu e^{10x}), x = sigma/mu;
    each segment carries ``n_grid`` points. Deterministic.
    """
    if not (mu > 0.0 and sigma > 0.0):  # NaN fails too
        raise ValueError("mu and sigma must be positive")
    if n_grid < 1000:
        raise ValueError("n_grid must be at least 1000")
    x = sigma / mu
    lo1 = math.exp(1.0 - x * x - math.sqrt(x**4 + 1.0))
    hi1 = math.exp(-2.0 * x * x)
    seg1 = np.linspace(lo1, hi1, n_grid) * mu
    seg2 = np.linspace(1.0, math.exp(2.0 * x), n_grid) * mu
    envelope = np.geomspace(mu * math.exp(-10.0 * x), mu * math.exp(10.0 * x), n_grid)
    grid = np.concatenate([seg1, seg2, envelope])
    return float(np.max(np.abs(psi(grid, mu, sigma))))
