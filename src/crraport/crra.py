"""Closed-form optimal portfolios for power and logarithmic utility.

Under the log-normal approximation of the portfolio gross return, the
expected power utility of terminal wealth W0 * w'R is

    E[U(W)] = W0^(1-g)/(1-g) * exp[(1-g^2) ln X + (g^2-g)/2 ln Y],

with X = w'mu and Y = w'Sigma w + X^2. Stationarity along w'1 = 1
reduces the problem to a quadratic in X,

    (1+s) X^2 - (g+2) r_gmv X + (g+1) (r_gmv^2 + s v_gmv) = 0,

whose discriminant gates existence: a real optimum requires the risk
aversion g to reach a market-determined threshold ``gamma_min``. The
maximum sits at the smaller root X-, and the optimal portfolio is the
frontier portfolio with that mean,

    w* = w_gmv + t(g) tilt,    t(g) = (X- - r_gmv) / s,

so one market's ``FrontierConstants`` serve every g and only the scalar
t(g) depends on risk aversion. ``power_grid`` solves a whole gamma grid
at once and is the one place the optimum is computed; ``power_solution``
is its one-gamma call. Logarithmic utility is its g = 1 case, with value
ln W0 + 2 ln X - ln(Y)/2, and exists iff gamma_min <= 1
(``log_solution``). The optimum is mean-variance efficient iff it exists
and r_gmv > 0, it never coincides with the GMV portfolio, and as
g -> infinity it converges to the Sharpe ratio portfolio while X and V
decrease monotonically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .frontier import S_MIN, FrontierConstants, Weights, efficient_constants
from .market import MarketParams

__all__ = [
    "OUTCOMES",
    "CrraSolution",
    "PowerGrid",
    "gamma_min",
    "discriminant",
    "power_grid",
    "power_solution",
    "log_solution",
    "objective_value",
]

_NO_SOLUTION_MSG = "no solution exists below gamma_min"
_NONPOS_MEAN_MSG = "optimal mean non-positive; log-utility objective undefined"
_PARABOLA_RTOL = 1e-8

# The checks every optimum must pass, in the order they apply, with the
# error a one-gamma solve raises when one fails.
_CHECKS = (
    ("discriminant_mismatch", ArithmeticError, "discriminant forms disagree"),
    ("below_gamma_min", ValueError, _NO_SOLUTION_MSG),
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
    marks logarithmic utility.
    """

    gamma: float
    x: float
    y: float
    v: float
    weights: Weights
    expected_utility: float
    mv_efficient: bool
    w0: float = 1.0

    def __post_init__(self) -> None:
        if self.y <= 0.0:
            raise ValueError("second moment must be positive")
        if abs(self.y - (self.v + self.x * self.x)) > 1e-12 * self.y:
            raise ValueError("inconsistent moments: y != v + x^2")
        if math.isnan(self.expected_utility):
            raise ValueError("expected utility must not be NaN")


@dataclass(frozen=True, eq=False)
class PowerGrid:
    """Closed-form optima of one market across a gamma grid.

    Per gamma of the grid, in its order: the optimal mean ``x``, second moment ``y``, frontier
    coordinate ``t = (x - r_gmv)/s`` (the optimal weights are
    ``w_gmv.w + t * tilt`` of the market's constants), the expected
    utility, and ``outcome``, an index into ``OUTCOMES``. Cells that
    failed a check hold NaN in every float field.
    """

    x: np.ndarray
    y: np.ndarray
    t: np.ndarray
    utility: np.ndarray
    outcome: np.ndarray

    @property
    def ok(self) -> np.ndarray:
        return self.outcome == 0


def gamma_min(constants: FrontierConstants) -> float:
    """Smallest risk aversion for which the power-utility optimum exists.

    2s + 2 [ s(1+s) v/r^2 + sqrt(s(1+s)(1 + s v/r^2)(1 + (1+s) v/r^2)) ]
    with r = r_gmv, v = v_gmv; always exceeds 2s.
    """
    if constants.s <= S_MIN:
        raise ValueError("degenerate frontier")
    if constants.r_gmv == 0.0:
        raise ValueError("existence threshold undefined for r_gmv = 0")
    s = constants.s
    ratio = constants.v_gmv / (constants.r_gmv * constants.r_gmv)
    root = math.sqrt(s * (1.0 + s) * (1.0 + s * ratio) * (1.0 + (1.0 + s) * ratio))
    return 2.0 * s + 2.0 * (s * (1.0 + s) * ratio + root)


def _discriminants(
    gamma: np.ndarray, constants: FrontierConstants
) -> tuple[np.ndarray, np.ndarray]:
    """Existence discriminant, and where its two algebraic forms disagree."""
    r2 = constants.r_gmv * constants.r_gmv
    s, v = constants.s, constants.v_gmv
    d = (gamma + 2.0) ** 2 * r2 - 4.0 * (gamma + 1.0) * (1.0 + s) * (r2 + s * v)
    alt = (gamma - 2.0 * s) ** 2 * r2 - 4.0 * (1.0 + s) * s * (r2 + (gamma + 1.0) * v)
    scale = np.maximum(np.maximum(np.abs(d), (gamma + 2.0) ** 2 * r2), 1.0)
    return d, np.abs(d - alt) > 1e-10 * scale


def discriminant(gamma: float, constants: FrontierConstants) -> float:
    """Existence discriminant of the optimal-mean quadratic.

    (g+2)^2 r^2 - 4 (g+1) (1+s) (r^2 + s v); nonnegative exactly when
    the power-utility optimum exists.
    """
    d, mismatch = _discriminants(np.float64(gamma), constants)
    if mismatch:
        raise ArithmeticError("discriminant forms disagree")
    return float(d)


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
    """Optimal portfolios for every risk aversion in ``gammas`` at once.

    Each gamma gets the smaller root of the optimal-mean quadratic, its
    second moment, frontier coordinate and expected utility, and the
    first check it fails, if any: the two discriminant forms agree, the
    discriminant is at least its tiny-negative clamp floor (gamma
    reaches gamma_min up to rounding), x > 0, y > 0, the utility is not
    NaN, the point lies on the mean-variance parabola, and it is not the
    GMV portfolio. Raises ValueError for a nonpositive gamma or wealth
    and for a degenerate frontier.
    """
    g = np.array(gammas, dtype=float).ravel()
    if not np.all(g > 0.0):
        raise ValueError("relative risk aversion must be positive")
    if not w0 > 0.0:
        raise ValueError("initial wealth must be positive")
    if constants.s <= S_MIN:
        raise ValueError("degenerate frontier")
    r, s, v = constants.r_gmv, constants.s, constants.v_gmv
    d, mismatch = _discriminants(g, constants)
    with np.errstate(all="ignore"):
        below = d < -1e-12 * r * r * (g + 2.0) ** 2
        sq = np.sqrt(np.maximum(d, 0.0))
        if r > 0.0:
            # Conjugate form: no cancellation as gamma grows large.
            x = 2.0 * (g + 1.0) * (r * r + s * v) / ((g + 2.0) * r + sq)
        else:
            x = ((g + 2.0) * r - sq) / (2.0 * (1.0 + s))
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
            mismatch,
            below,
            ~(x > 0.0),
            ~(y > 0.0),
            np.isnan(utility),
            ~(np.abs(lhs - rhs) <= tol),
            x == r,
        )
    outcome = np.zeros(g.shape, dtype=np.int8)
    for code in range(len(failed), 0, -1):
        outcome[failed[code - 1]] = code
    bad = outcome != 0
    for arr in (x, y, t, utility):
        arr[bad] = np.nan
        arr.flags.writeable = False
    outcome.flags.writeable = False
    return PowerGrid(x=x, y=y, t=t, utility=utility, outcome=outcome)


def _solution(gamma: float, constants: FrontierConstants, w0: float) -> CrraSolution:
    """The one-gamma call of ``power_grid``, raising the failed check."""
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
        weights=Weights(constants.w_gmv.w + float(grid.t[0]) * constants.tilt),
        expected_utility=float(grid.utility[0]),
        mv_efficient=constants.r_gmv > 0.0,
        w0=w0,
    )


def power_solution(
    gamma: float, params: MarketParams, w0: float = 1.0
) -> CrraSolution:
    """Optimal portfolio maximizing expected power utility.

    Requires gamma >= gamma_min (a discriminant within rounding of zero
    is treated as the boundary case). gamma = 1 is logarithmic utility.
    """
    return _solution(gamma, efficient_constants(params), w0)


def log_solution(params: MarketParams, w0: float = 1.0) -> CrraSolution:
    """Optimal portfolio maximizing expected logarithmic utility.

    The gamma = 1 case of ``power_solution``, with value
    ln W0 + 2 ln X - ln(Y)/2; exists iff gamma_min <= 1.
    """
    if w0 <= 0.0:
        raise ValueError("initial wealth must be positive")
    constants = efficient_constants(params)
    gm = gamma_min(constants)
    if gm > 1.0:
        raise ValueError(
            f"log-utility solution does not exist for this market "
            f"(gamma_min={gm:.6g} > 1)"
        )
    return _solution(1.0, constants, w0)


def objective_value(w: Weights, params: MarketParams, gamma, w0: float = 1.0):
    """Expected utility of an arbitrary feasible portfolio.

    ``gamma`` is one risk aversion (returns a float) or an array of them
    (returns an array, elementwise). Exact under the moment-matched
    log-normal model; requires w'mu > 0 (the objective contains ln of
    the mean).
    """
    g = np.asarray(gamma, dtype=float)
    if not np.all(g > 0.0):
        raise ValueError("relative risk aversion must be positive")
    if w0 <= 0.0:
        raise ValueError("initial wealth must be positive")
    x = float(w.w @ params.mu)
    if x <= 0.0:
        raise ValueError("outside objective domain")
    y = float(w.w @ params.sigma @ w.w) + x * x
    utility = _utility(x, y, g, w0)
    return float(utility) if g.ndim == 0 else utility
