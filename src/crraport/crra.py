"""Closed-form optimal portfolios for power and logarithmic utility.

Under the log-normal approximation of the portfolio gross return, the
expected power utility of terminal wealth W0 * w'R is

    E[U(W)] = W0^(1-g)/(1-g) * exp[(1-g^2) ln X + (g^2-g)/2 ln Y],

with X = w'mu and Y = w'Sigma w + X^2. Stationarity along w'1 = 1
reduces the problem to a quadratic in X,

    (1+s) X^2 - (g+2) r_gmv X + (g+1) (r_gmv^2 + s v_gmv) = 0,

whose discriminant is nonnegative exactly when g reaches a
market-determined threshold: existence is the one test g >= ``gamma_min``.
The maximum sits at the smaller root X-, and the optimal portfolio is
the frontier portfolio with that mean,

    w* = w_gmv + t(g) tilt,    t(g) = (X- - r_gmv) / s,

so one market's ``FrontierConstants`` serve every g and only the scalar
t(g) depends on risk aversion. ``power_grid`` solves a whole gamma grid
(G,) for a batch of markets (B,) at once, on (B, G) arrays, and is the
one place the optimum is computed; ``power_solution`` is its
one-market, one-gamma call. Logarithmic utility is its g = 1 case,
``power_solution(1.0, ...)``, with value ln W0 + 2 ln X - ln(Y)/2; it
exists iff gamma_min <= 1. The optimum is mean-variance efficient iff it
exists and r_gmv > 0, it never coincides with the GMV portfolio, and as
g -> infinity it converges to the Sharpe ratio portfolio while X and V
decrease monotonically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .frontier import (
    S_MIN,
    FrontierConstants,
    Weights,
    _first_failures,
    efficient_constants,
    portfolio_moments_rows,
)
from .market import MarketParams

__all__ = [
    "OUTCOMES",
    "CrraSolution",
    "PowerGrid",
    "gamma_min",
    "power_grid",
    "power_solution",
    "objective_value",
    "objective_rows",
]

_NO_SOLUTION_MSG = "no solution exists below gamma_min"
_NONPOS_MEAN_MSG = "optimal mean non-positive; the objective's ln X is undefined"
_PARABOLA_RTOL = 1e-8

# The checks every optimum must pass, in the order they apply, with the
# error a one-gamma solve raises when one fails. Existence comes first,
# so a cell is below_gamma_min exactly where gamma >= gamma_min fails.
_CHECKS = (
    ("below_gamma_min", ValueError, _NO_SOLUTION_MSG),
    ("discriminant_mismatch", ArithmeticError, "discriminant forms disagree"),
    ("nonpositive_mean", ValueError, _NONPOS_MEAN_MSG),
    (
        "nonpositive_second_moment",
        ArithmeticError,
        "internal inconsistency: second moment non-positive",
    ),
    ("nan_utility", ValueError, "expected utility must not be NaN"),
    ("off_parabola", ArithmeticError, "solution left the mean-variance parabola"),
    ("at_gmv", ArithmeticError, "solution coincides with the GMV portfolio"),
)
# Per-gamma outcome names of ``power_grid``: 0 is "ok", code i > 0 the
# i-th check above, the first one the cell failed.
OUTCOMES = ("ok",) + tuple(name for name, _, _ in _CHECKS)


@dataclass(frozen=True, eq=False)
class CrraSolution:
    """Optimal portfolio for one risk-aversion level.

    ``x`` is the optimal expected gross return w*'mu, ``y`` the second
    moment E[(w'R)^2], ``v = y - x^2`` the variance. ``gamma = 1``
    marks logarithmic utility. Built from a ``power_grid`` cell that
    passed every check.
    """

    gamma: float
    x: float
    y: float
    v: float
    weights: Weights
    expected_utility: float
    mv_efficient: bool
    w0: float = 1.0


@dataclass(frozen=True, eq=False)
class PowerGrid:
    """Closed-form optima of a batch of markets across a gamma grid.

    Every field has shape B + (G,): the constants' batch shape, then one
    cell per gamma of the grid, in its order. Per cell: the optimal mean
    ``x``, second moment ``y``, frontier coordinate ``t = (x - r_gmv)/s``
    (the optimal weights are ``w_gmv + t * tilt`` of the market's
    constants), the expected utility, and ``outcome``, an index into
    ``OUTCOMES``. Cells that failed a check hold NaN in every float field.
    """

    x: np.ndarray
    y: np.ndarray
    t: np.ndarray
    utility: np.ndarray
    outcome: np.ndarray

    @property
    def ok(self) -> np.ndarray:
        return self.outcome == 0


def _threshold(r, s, v):
    """``gamma_min``'s formula, elementwise; inf or NaN where r = 0."""
    with np.errstate(all="ignore"):
        ratio = v / (r * r)
        root = np.sqrt(s * (1.0 + s) * (1.0 + s * ratio) * (1.0 + (1.0 + s) * ratio))
        return 2.0 * s + 2.0 * (s * (1.0 + s) * ratio + root)


def gamma_min(constants: FrontierConstants):
    """Smallest risk aversion for which the power-utility optimum exists.

    2s + 2 [ s(1+s) v/r^2 + sqrt(s(1+s)(1 + s v/r^2)(1 + (1+s) v/r^2)) ]
    with r = r_gmv, v = v_gmv; always exceeds 2s. Undefined for a
    degenerate frontier (s <= S_MIN) and for r_gmv = 0: one market
    raises ValueError there, a batch gets NaN for those markets.
    """
    s, r = constants.s, constants.r_gmv
    if np.ndim(s):
        return np.where(~(s > S_MIN) | (r == 0.0), np.nan, _threshold(r, s, constants.v_gmv))
    if s <= S_MIN:
        raise ValueError("degenerate frontier")
    if r == 0.0:
        raise ValueError("existence threshold undefined for r_gmv = 0")
    return float(_threshold(r, s, constants.v_gmv))


def _discriminants(gamma, r, s, v) -> tuple[np.ndarray, np.ndarray]:
    """Existence discriminant, and where its two algebraic forms disagree."""
    r2 = r * r
    d = (gamma + 2.0) ** 2 * r2 - 4.0 * (gamma + 1.0) * (1.0 + s) * (r2 + s * v)
    alt = (gamma - 2.0 * s) ** 2 * r2 - 4.0 * (1.0 + s) * s * (r2 + (gamma + 1.0) * v)
    scale = np.maximum(np.maximum(np.abs(d), (gamma + 2.0) ** 2 * r2), 1.0)
    return d, np.abs(d - alt) > 1e-10 * scale


def _utility(x, y, gamma, w0: float) -> np.ndarray:
    """Expected utility at portfolio moments (x, y), elementwise over
    broadcast arrays; gamma = 1 is log.

    Exponents beyond the double range collapse to +/-inf, never NaN.
    """
    gamma = np.asarray(gamma, dtype=float)
    with np.errstate(all="ignore"):
        log_x, log_y = np.log(x), np.log(y)
        prefactor = w0 ** (1.0 - gamma) / (1.0 - gamma)
        growth = np.exp((1.0 - gamma * gamma) * log_x + 0.5 * (gamma * gamma - gamma) * log_y)
        power = np.where(
            np.isinf(growth), np.copysign(np.inf, prefactor), prefactor * growth
        )
        log_utility = math.log(w0) + 2.0 * log_x - 0.5 * log_y
    return np.where(gamma == 1.0, log_utility, power)


def power_grid(constants: FrontierConstants, gammas, w0: float = 1.0) -> PowerGrid:
    """Optimal portfolios for every risk aversion in ``gammas`` (G,) and
    every market of ``constants`` (batch shape B) at once; every field of
    the result has shape B + (G,).

    Each gamma gets the smaller root of the optimal-mean quadratic, its
    second moment, frontier coordinate and expected utility, and the
    first check it fails, if any: gamma >= gamma_min (as ``gamma_min``
    gives it; never for r_gmv = 0), the discriminant forms agree, x > 0,
    y > 0, the utility is not NaN, the point lies on the parabola, and it
    is not the GMV portfolio. Raises ValueError for a nonpositive gamma or
    wealth and if any market has a degenerate frontier.
    """
    g = np.array(gammas, dtype=float).ravel()
    if not np.all(g > 0.0):
        raise ValueError("relative risk aversion must be positive")
    if not w0 > 0.0:
        raise ValueError("initial wealth must be positive")
    if not np.all(constants.s > S_MIN):
        raise ValueError("degenerate frontier")
    r, s, v = (
        np.asarray(c)[..., None] for c in (constants.r_gmv, constants.s, constants.v_gmv)
    )
    d, mismatch = _discriminants(g, r, s, v)
    below = ~(g >= _threshold(r, s, v))
    with np.errstate(all="ignore"):
        sq = np.sqrt(np.maximum(d, 0.0))
        x = np.where(
            r > 0.0,
            # Conjugate form: no cancellation as gamma grows large.
            2.0 * (g + 1.0) * (r * r + s * v) / ((g + 2.0) * r + sq),
            ((g + 2.0) * r - sq) / (2.0 * (1.0 + s)),
        )
        # t = (x - r)/s through the conjugate of the alternate
        # discriminant form: exact algebra, and it dodges the small-s
        # cancellation that the literal (gamma/s)(x r - r^2 - s v)
        # suffers. The denominator is positive where x > 0, because
        # then r > 0 and gamma >= gamma_min > 2s.
        t = 2.0 * (r * r + (g + 1.0) * v) / ((g - 2.0 * s) * r + sq)
        # Same quantity as (gamma/s)(x r - r^2 - s v), rearranged so
        # every term keeps its sign: stable for tiny s and huge gamma.
        y = g / (g + 2.0) * ((1.0 + s) * t * (x + r) + (r * r - v))
        utility = _utility(x, y, g, w0)
        # The absolute floor covers extreme gamma, where v - v_gmv sinks
        # below what y - x^2 can resolve in doubles; real defects
        # violate the identity at O(1).
        lhs = (x - r) ** 2
        rhs = s * (y - x * x - v)
        tol = _PARABOLA_RTOL * np.maximum(np.abs(lhs), np.abs(rhs)) + 1e-12 * np.maximum(
            np.maximum(1.0, y), x * x
        )
        failed = (
            below,
            mismatch,
            ~(x > 0.0),
            ~(y > 0.0),
            np.isnan(utility),
            ~(np.abs(lhs - rhs) <= tol),
            x == r,
        )
    outcome, x, y, t, utility = _first_failures(failed, (x, y, t, utility))
    return PowerGrid(x=x, y=y, t=t, utility=utility, outcome=outcome)


def power_solution(
    gamma: float, params: MarketParams, w0: float = 1.0
) -> CrraSolution:
    """Optimal portfolio maximizing expected power utility: the
    one-market, one-gamma call of ``power_grid``, raising the check it
    failed. Requires gamma >= gamma_min; gamma = 1 is logarithmic utility.
    """
    constants = efficient_constants(params)
    grid = power_grid(constants, (gamma,), w0)
    code = int(grid.outcome[0])
    if code:
        _, error, message = _CHECKS[code - 1]
        if message == _NO_SOLUTION_MSG:
            message += f" (gamma={gamma:.6g}, gamma_min={gamma_min(constants):.6g})"
        raise error(message)
    x, y = float(grid.x[0]), float(grid.y[0])
    return CrraSolution(
        gamma=float(gamma),
        x=x,
        y=y,
        v=y - x * x,
        weights=Weights(constants.weights_at(grid.t[0])),
        expected_utility=float(grid.utility[0]),
        mv_efficient=bool(constants.r_gmv > 0.0),
        w0=w0,
    )


def objective_rows(w: np.ndarray, mu: np.ndarray, sigma: np.ndarray, gammas, w0: float = 1.0):
    """Expected utility of a batch of portfolios ``w`` (B, k) in their
    markets ``mu`` (B, k), ``sigma`` (B, k, k) at every gamma of
    ``gammas`` (G,), as (B, G), and the portfolios inside the
    objective's domain (w'mu > 0; the others get NaN)."""
    x, v = portfolio_moments_rows(w, mu, sigma)
    inside = x > 0.0
    utility = _utility(x[..., None], (v + x * x)[..., None], gammas, w0)
    utility[~inside] = np.nan
    return utility, inside


def objective_value(w: Weights, params: MarketParams, gamma, w0: float = 1.0):
    """Expected utility of an arbitrary feasible portfolio: the one-row
    call of ``objective_rows``.

    ``gamma`` is one risk aversion (returns a float) or an array of them
    (returns an array, elementwise). Exact under the moment-matched
    log-normal model. Raises ValueError for a nonpositive (or NaN) gamma
    or wealth, for weights of another size than the market, and outside
    the objective's domain w'mu > 0 (the objective contains ln of the
    mean).
    """
    g = np.asarray(gamma, dtype=float)
    if not np.all(g > 0.0):
        raise ValueError("relative risk aversion must be positive")
    if not w0 > 0.0:
        raise ValueError("initial wealth must be positive")
    if w.w.size != params.k:
        raise ValueError("weights dimension does not match market")
    utility, inside = objective_rows(w.w, params.mu, params.sigma, g, w0)
    if not inside:
        raise ValueError("outside objective domain")
    return float(utility[0]) if g.ndim == 0 else utility
