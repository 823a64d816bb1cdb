"""Closed-form optimal portfolios for power and logarithmic utility.

Under the log-normal approximation of the portfolio gross return, the
expected power utility of terminal wealth W0 * w'R is

    E[U(W)] = exp[(1-g) L]/(1-g),   L = ln W0 + ln X - (g/2)(ln Y - 2 ln X),

with X = w'mu and Y = w'Sigma w + X^2; L = ln(W0 CE), CE the certainty
equivalent, is also the expected log utility. Stationarity along w'1 = 1
reduces the problem to a quadratic in X,

    (1+s) X^2 - (g+2) r_gmv X + (g+1) (r_gmv^2 + s v_gmv) = 0,

whose discriminant is nonnegative exactly when g reaches a
market-determined threshold: existence is the one test g >= ``gamma_min``.
The maximum sits at the smaller root X-, and the optimal portfolio is
the frontier portfolio with that mean,

    w* = w_gmv + t(g) tilt,    t(g) = (X- - r_gmv) / s,

so one market's ``FrontierConstants`` serve every g and only the scalar
t(g) depends on risk aversion. Their slope has passed ``frontier``'s one
slope rule: the bound on its rounding is below ``SLOPE_RTOL`` = 1e-2 of
s. ``power_grid`` solves a whole gamma grid (G,) for a batch of markets
(B,) at once, on (B, G) arrays, and is the one place the optimum is
computed, at every finite gamma: it codes each cell's first failed
check, and raises for no market. Its first check is a degenerate
frontier, the NaN constants of a market the frontier rejected. The
discriminant is taken in its expanded form,
g^2 r_gmv^2 - 4 (g+1) s (r_gmv^2 + (1+s) v_gmv), in which no two terms
cancel exactly, so X and t(g) are accurate to a few ulps, or to the
root's own conditioning just above gamma_min, at any slope s > 0.
``power_solution`` is its one-market, one-gamma call, which raises the
check's error. Logarithmic utility is its g = 1 case,
``power_solution(1.0, ...)``, with value L; it exists iff one market's
``gamma_min`` <= 1. The optimum is mean-variance efficient iff it exists and
r_gmv > 0, it never coincides with the GMV portfolio, and as g ->
infinity it converges to the Sharpe ratio portfolio, t = v_gmv / r_gmv
with mean r_gmv + s t and variance v_gmv + s t^2, while X and V
decrease monotonically.

The objective depends on a portfolio only through its moments:
``objective_rows`` scores a batch of portfolios from their means and
variances, and ``objective_value`` is its one-portfolio call from
weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .frontier import (
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
    "ln_ce",
    "power_grid",
    "power_solution",
    "objective_value",
    "objective_rows",
]

# The checks every optimum must pass, in the order they apply, with the
# error a one-gamma solve raises when one fails. A degenerate frontier
# fills a market's every cell; existence comes next, so a cell is
# below_gamma_min exactly where gamma >= gamma_min fails.
_CHECKS = (
    ("degenerate_frontier", ValueError, "degenerate frontier"),
    ("below_gamma_min", ValueError, "no solution exists below gamma_min"),
    ("nonpositive_mean", ValueError, "optimal mean non-positive; the objective's ln X is undefined"),
    ("off_parabola", ArithmeticError, "solution left the mean-variance parabola"),
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
    constants), the expected utility (``_utility``'s one formula, so
    +/-inf or 0 only where the true value is beyond the double range),
    and ``outcome``, an index into ``OUTCOMES``. Cells that failed a check
    hold NaN in every float field.
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
    with r = r_gmv, v = v_gmv, of one market; always exceeds 2s. s is
    accurate to the one slope rule of ``frontier``: its rounding bound is
    below ``SLOPE_RTOL`` of s, and gamma_min's relative error from it is
    at most about twice s's, since its elasticity in s is at most 2.
    Raises ValueError for a degenerate frontier (s <= 0, or NaN) and
    for r_gmv = 0, where it is undefined. ``power_grid`` codes both per
    cell instead.
    """
    s, r = constants.s, constants.r_gmv
    if not s > 0.0:
        raise ValueError("degenerate frontier")
    if r == 0.0:
        raise ValueError("existence threshold undefined for r_gmv = 0")
    return float(_threshold(r, s, constants.v_gmv))


def ln_ce(x, y, gamma):
    """ln CE = ln x - (gamma/2)(ln y - 2 ln x), the log certainty
    equivalent of a unit of wealth in a portfolio with moments (x, y),
    elementwise over broadcast arrays: finite for x, y > 0 where E[U]
    is beyond the double range."""
    log_x = np.log(x)
    return log_x - 0.5 * gamma * (np.log(y) - 2.0 * log_x)


def _utility(x, y, gamma, w0: float) -> np.ndarray:
    """Expected utility at portfolio moments (x, y), elementwise over
    broadcast arrays, from its log level L = ln W0 + ``ln_ce``: L itself
    at gamma = 1 (log utility), elsewhere exp((1-gamma) L)/(1-gamma),
    divided inside the exponent so that the result is +/-inf or 0 only
    where the true value is beyond the double range. Never NaN for
    x, y > 0.
    """
    gamma = np.asarray(gamma, dtype=float)
    with np.errstate(all="ignore"):
        level = math.log(w0) + ln_ce(x, y, gamma)
        power = np.exp((1.0 - gamma) * level - np.log(np.abs(1.0 - gamma)))
        return np.where(gamma == 1.0, level, np.copysign(power, 1.0 - gamma))


def _positive_finite(values) -> bool:
    """Whether every value is a positive, finite number (NaN is not)."""
    return bool(np.all(np.isfinite(values) & np.greater(values, 0.0)))


def _checked_gammas(gammas, w0: float) -> np.ndarray:
    """``gammas`` as floats; raises ValueError unless they and ``w0`` are
    positive and finite."""
    g = np.asarray(gammas, dtype=float)
    if not _positive_finite(g):
        raise ValueError("relative risk aversion must be positive and finite")
    if not _positive_finite(w0):
        raise ValueError("initial wealth must be positive and finite")
    return g


def _off_parabola(x, y, r, s, v) -> np.ndarray:
    """Where (x, y) misses the parabola (x - r)^2 = s (y - x^2 - v) by
    more than rounding: 1e-8 of the larger side, 1e-12 max(y, x^2) for
    extreme gamma, where y - x^2 cannot resolve v - v_gmv, the s
    ulp(...) cancellation of s (y - x^2 - v), and the 2 s x dx that x's
    own error dx of up to 4 ulps adds; none is absolute, so a market's
    scale does not matter. Real defects miss it at O(1)."""
    lhs = (x - r) ** 2
    rhs = s * (y - x * x - v)
    tol = (
        1e-8 * np.maximum(np.abs(lhs), np.abs(rhs))
        + 1e-12 * np.maximum(y, x * x)
        + 4.0 * s * (np.spacing(y) + np.spacing(x * x) + np.spacing(v))
        + 8.0 * s * x * np.spacing(x)
    )
    return ~(np.abs(lhs - rhs) <= tol)


def power_grid(constants: FrontierConstants, gammas, w0: float = 1.0) -> PowerGrid:
    """Optimal portfolios for every risk aversion in ``gammas`` (G,) and
    every market of ``constants`` (batch shape B) at once; every field of
    the result has shape B + (G,).

    Each gamma gets the smaller root of the optimal-mean quadratic, its
    second moment, frontier coordinate and expected utility, and the
    first check it fails, if any: s > 0 (which NaN constants fail),
    gamma >= gamma_min (as ``gamma_min`` gives it; never for r_gmv = 0),
    x > 0 (so r_gmv > 0), and the point lies on the parabola. The
    discriminant is the expanded gamma^2 r^2 - 4 (gamma + 1) s (r^2 +
    (1 + s) v): the literal (gamma + 2)^2 r^2 - 4 (gamma + 1)(1 + s)(r^2
    + s v) is the same polynomial, but its 4 gamma r^2 and 4 r^2 terms
    cancel exactly, which costs digits at small gamma and near
    gamma_min. With gamma = m 2^e (m in [1/2, 1)) and u = 2^-e, each
    term is the unscaled form's times a power of two: the same
    roundings, and past gamma_min s u^2 <= 1/4, so no finite gamma
    overflows while r_gmv^2, v_gmv, (1 + s)(r_gmv^2 + s v_gmv) and
    (s v_gmv / r_gmv)^2 stay below 1e290. Raises ValueError only for a
    gamma or wealth that is not positive and finite.
    """
    g = _checked_gammas(gammas, w0).ravel()
    r, s, v = (
        np.asarray(c)[..., None] for c in (constants.r_gmv, constants.s, constants.v_gmv)
    )
    m, e = np.frexp(g)
    u = np.ldexp(1.0, -e)
    with np.errstate(all="ignore"):
        below = ~(g >= _threshold(r, s, v))
        r2 = r * r
        d = m * m * r2 - 4.0 * s * u * (m + u) * (r2 + (1.0 + s) * v)
        sq = np.sqrt(np.maximum(d, 0.0))
        # The smaller root in conjugate form: no cancellation as gamma
        # grows large. For r < 0, sq < (m + 2u)|r| makes the denominator
        # negative and x < 0; past gamma ~ 1e17, d can round to m^2 r^2
        # and the denominator to 0 or above, so nonpositive_mean reads r
        # too.
        x = 2.0 * (m + u) * (r2 + s * v) / ((m + 2.0 * u) * r + sq)
        # t = (x - r)/s through the conjugate of the alternate
        # discriminant form: exact algebra, and it dodges the small-s
        # cancellation that the literal (gamma/s)(x r - r^2 - s v)
        # suffers. So no cell is the GMV portfolio: the numerator is
        # positive, and so is the denominator where x > 0, because then
        # r > 0 and gamma >= gamma_min > 2s; t > 0 on every ok cell.
        t = 2.0 * (u * r2 + (m + u) * v) / ((m - 2.0 * s * u) * r + sq)
        # Same quantity as (gamma/s)(x r - r^2 - s v), rearranged so
        # every term keeps its sign: stable for tiny s and huge gamma.
        y = m / (m + 2.0 * u) * ((1.0 + s) * t * (x + r) + (r2 - v))
        utility = _utility(x, y, g, w0)
        failed = (
            np.broadcast_to(~(s > 0.0), below.shape),
            below,
            ~(x > 0.0) | ~(r > 0.0),
            _off_parabola(x, y, r, s, v),
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
        if OUTCOMES[code] == "below_gamma_min":
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


def objective_rows(x: np.ndarray, v: np.ndarray, gammas, w0: float = 1.0):
    """Expected utility of a batch of portfolios with gross means ``x``
    (B,) and variances ``v`` (B,) at every gamma of ``gammas`` (G,), as
    (B, G), and the portfolios inside the objective's domain (x > 0; the
    others get NaN). Moments beyond the double range give +/-inf, 0 or
    NaN, and no warning."""
    x = np.asarray(x, dtype=float)
    inside = x > 0.0
    with np.errstate(all="ignore"):
        y = v + x * x
    utility = _utility(x[..., None], y[..., None], gammas, w0)
    utility[~inside] = np.nan
    return utility, inside


def objective_value(w: Weights, params: MarketParams, gamma, w0: float = 1.0):
    """Expected utility of an arbitrary feasible portfolio: the one-row
    call of ``objective_rows`` at the portfolio's moments.

    ``gamma`` is one risk aversion (returns a float) or an array of them
    (returns an array, elementwise). Exact under the moment-matched
    log-normal model. Raises ValueError for a gamma or wealth that is not
    positive and finite, for weights of another size than the market, and
    outside the objective's domain w'mu > 0 (it contains ln of the mean).
    """
    g = _checked_gammas(gamma, w0)
    if w.w.size != params.k:
        raise ValueError("weights dimension does not match market")
    x, v = portfolio_moments_rows(w.w, params.mu, params.sigma)
    utility, inside = objective_rows(x, v, g, w0)
    if not inside:
        raise ValueError("outside objective domain")
    return float(utility[0]) if g.ndim == 0 else utility
