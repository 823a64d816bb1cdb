"""Shared generators and reference predicates for the test suite."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from crraport import (
    FrontierConstants,
    MarketParams,
    discriminant,
    efficient_constants,
    gamma_min,
    power_solution,
)
from crraport.frontier import S_MIN


def random_market(
    rng: np.random.Generator,
    k: int,
    mean_spread: float = 0.01,
    vol_range: tuple[float, float] = (0.02, 0.08),
) -> MarketParams:
    """Random PD market with gross means near 1.

    Correlations come from a Wishart-style draw with k+4 samples, so
    the covariance is comfortably positive definite.
    """
    while True:
        vols = rng.uniform(*vol_range, k)
        a = rng.normal(size=(k + 4, k))
        corr = a.T @ a
        d = np.sqrt(np.diag(corr))
        corr = corr / np.outer(d, d)
        sigma = corr * np.outer(vols, vols)
        mu = 1.0 + rng.normal(0.0, mean_spread, k)
        try:
            return MarketParams(mu, sigma)
        except ValueError:
            continue


def market_with_constants(r_gmv: float, v_gmv: float, s: float) -> MarketParams:
    """Two-asset market realizing exact target efficient-set constants.

    With sigma = 2 v_gmv I and mu = r_gmv +- sqrt(v_gmv s), the GMV
    portfolio is (1/2, 1/2) with mean r_gmv and variance v_gmv, and the
    slope comes out exactly s.
    """
    root = math.sqrt(v_gmv * s)
    mu = np.array([r_gmv + root, r_gmv - root])
    sigma = np.diag([2.0 * v_gmv, 2.0 * v_gmv])
    return MarketParams(mu, sigma)


def random_feasible_weights(rng: np.random.Generator, k: int, n: int) -> np.ndarray:
    """n raw fully-invested weight vectors (no domain screening)."""
    head = rng.uniform(-2.0, 3.0, size=(n, k - 1))
    return np.hstack([head, 1.0 - head.sum(axis=1, keepdims=True)])


@dataclass(frozen=True, eq=False)
class GammaCondition:
    """Existence threshold bundled with the sign condition on r_gmv."""

    gamma_min: float
    r_gmv_positive: bool
    constants: FrontierConstants = field(repr=False)

    def discriminant_at(self, gamma: float) -> float:
        return discriminant(gamma, self.constants)

    def exists(self, gamma: float) -> bool:
        return gamma >= self.gamma_min


def gamma_condition(constants: FrontierConstants) -> GammaCondition:
    """Bundle gamma_min with the sign condition on r_gmv."""
    gm = gamma_min(constants)
    d_at_min = discriminant(gm, constants)
    if abs(d_at_min) > 1e-9 * constants.r_gmv * constants.r_gmv:
        raise ArithmeticError("discriminant does not vanish at gamma_min")
    return GammaCondition(
        gamma_min=gm, r_gmv_positive=constants.r_gmv > 0.0, constants=constants
    )


def is_mv_efficient_power(gamma: float, constants: FrontierConstants) -> bool:
    """True iff the power-utility optimum is mean-variance efficient.

    Equivalent to gamma >= gamma_min together with r_gmv > 0.
    """
    if constants.r_gmv <= 0.0:
        return False
    if constants.s <= S_MIN:
        # Degenerate-frontier limit: gamma_min -> 0.
        return gamma > 0.0
    return gamma >= gamma_min(constants)


@dataclass(frozen=True)
class MonotonicityReport:
    """Per-gamma table of (x, v, utility) plus the monotonicity verdicts."""

    gammas: tuple[float, ...]
    x_values: tuple[float, ...]
    v_values: tuple[float, ...]
    utilities: tuple[float, ...]
    sharpe_return: float
    x_strictly_decreasing: bool
    v_strictly_decreasing: bool
    x_above_sharpe_return: bool

    @property
    def passed(self) -> bool:
        return (
            self.x_strictly_decreasing
            and self.v_strictly_decreasing
            and self.x_above_sharpe_return
        )


def monotonicity_check(params: MarketParams, gammas) -> MonotonicityReport:
    """Verify that x(gamma), v(gamma) decrease and x stays above the
    Sharpe portfolio's expected return along an ascending gamma grid."""
    grid = [float(g) for g in gammas]
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("gamma grid must be strictly ascending")
    constants = efficient_constants(params)
    if constants.r_gmv <= 0.0:
        raise ValueError("r_gmv must be positive")
    gm = gamma_min(constants)
    if grid and grid[0] < gm:
        raise ValueError(f"all gammas must be >= gamma_min ({gm:.6g})")

    solutions = [power_solution(g, params) for g in grid]
    xs = tuple(sol.x for sol in solutions)
    vs = tuple(sol.v for sol in solutions)
    us = tuple(sol.expected_utility for sol in solutions)
    ones = np.ones(params.k)
    sinv_mu = params.solve(params.mu)
    sharpe_return = float(params.mu @ sinv_mu) / float(ones @ sinv_mu)
    return MonotonicityReport(
        gammas=tuple(grid),
        x_values=xs,
        v_values=vs,
        utilities=us,
        sharpe_return=sharpe_return,
        x_strictly_decreasing=all(b < a for a, b in zip(xs, xs[1:])),
        v_strictly_decreasing=all(b < a for a, b in zip(vs, vs[1:])),
        x_above_sharpe_return=all(x >= sharpe_return - 1e-10 for x in xs),
    )


class EmpiricalCdf:
    """Right-continuous empirical distribution function.

    ``F(x) = #{values <= x} / n``; callable on scalars or arrays.
    """

    __slots__ = ("_sorted",)

    def __init__(self, values) -> None:
        arr = np.sort(np.asarray(values, dtype=float).ravel())
        if arr.size == 0:
            raise ValueError("empty sample")
        if not np.all(np.isfinite(arr)):
            raise ValueError("sample must contain only finite values")
        self._sorted = arr

    @property
    def n(self) -> int:
        return int(self._sorted.size)

    def __call__(self, x):
        pos = np.searchsorted(self._sorted, np.asarray(x, dtype=float), side="right")
        out = pos / self._sorted.size
        if np.ndim(x) == 0:
            return float(out)
        return out


def empirical_cdf(values) -> EmpiricalCdf:
    """Build the right-continuous ECDF of a nonempty sample."""
    return EmpiricalCdf(values)
