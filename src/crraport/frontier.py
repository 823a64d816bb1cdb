"""Efficient-set constants and classical mean-variance portfolios.

Three scalars pin down the frontier geometry: the expected gross return
``r_gmv`` and variance ``v_gmv`` of the global minimum variance (GMV)
portfolio, and the slope

    s = mu' Q mu,   Q = Sigma^-1 - Sigma^-1 1 1' Sigma^-1 / (1' Sigma^-1 1).

Every feasible optimal portfolio lives on the parabola
``(X - r_gmv)^2 = s (V - v_gmv)`` in mean-variance space; its upper
branch (X >= r_gmv) is the efficient frontier. The frontier portfolio
with mean X is ``w_gmv + t tilt`` with ``t = (X - r_gmv)/s`` and the
Markowitz tilt ``tilt = Q mu = Sigma^-1 (mu - r_gmv 1)``, which sums to
zero. ``Q`` itself is never formed: ``tilt`` and ``s = tilt'(mu - r_gmv)``
come from one solve against the stacked right-hand side [1, mu - mean(mu)].
Shorting is allowed throughout: feasible means w'1 = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .market import MarketParams

__all__ = [
    "S_MIN",
    "Weights",
    "FrontierConstants",
    "efficient_constants",
    "gmv_weights",
    "sharpe_weights",
    "portfolio_moments",
    "markowitz_weights",
    "parabola_variance",
]

# Below this slope the frontier degenerates (all feasible portfolios
# share one mean) and the closed forms divide by s; reject, don't
# regularize.
S_MIN = 1e-12

# Budget and null-space checks, relative to the magnitudes summed: the
# rounding of a sum grows with its terms, and leveraged or
# small-variance markets carry large terms.
_SUM_RTOL = 1e-10


@dataclass(frozen=True, eq=False)
class Weights:
    """Fully-invested portfolio weights (w'1 = 1, shorting allowed)."""

    w: np.ndarray

    def __post_init__(self) -> None:
        w = np.array(self.w, dtype=float).ravel()
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        if abs(w.sum() - 1.0) > _SUM_RTOL * max(1.0, float(np.abs(w).sum())):
            raise ValueError("weights must sum to 1 (relative tolerance 1e-10 of sum |w|)")
        w.flags.writeable = False
        object.__setattr__(self, "w", w)


@dataclass(frozen=True, eq=False)
class FrontierConstants:
    """One market's efficient frontier: ``r_gmv``, ``v_gmv``, the slope
    ``s``, the GMV weights and the Markowitz tilt ``Q mu``.

    The frontier portfolio with mean X is ``w_gmv.w + (X - r_gmv)/s * tilt``.
    """

    r_gmv: float
    v_gmv: float
    s: float
    w_gmv: Weights
    tilt: np.ndarray

    def __post_init__(self) -> None:
        if not self.v_gmv > 0.0:
            raise ValueError("v_gmv must be positive")
        if self.s < 0.0:
            raise ValueError("s must be nonnegative")
        tilt = np.array(self.tilt, dtype=float).ravel()
        if tilt.shape != self.w_gmv.w.shape or not np.all(np.isfinite(tilt)):
            raise ValueError("tilt must be finite and match the GMV weights")
        tilt.flags.writeable = False
        object.__setattr__(self, "tilt", tilt)


def efficient_constants(params: MarketParams) -> FrontierConstants:
    """Compute (r_gmv, v_gmv, s, w_gmv, tilt) from the market parameters.

    One linear solve against the cached Cholesky factor of sigma, with
    the stacked right-hand side [1, mu - m] for m the mean of mu.
    In exact arithmetic centring mu changes nothing (the tilt is
    Sigma^-1 (mu - r_gmv 1) either way), but it keeps the tilt from being
    the difference of two large, nearly equal vectors when the means sit
    close together, as gross means near 1 do.
    """
    centre = float(params.mu.mean())
    dev = params.mu - centre
    solved = params.solve(np.column_stack((np.ones(params.k), dev)))
    sinv_one, sinv_dev = solved[:, 0], solved[:, 1]
    a = float(sinv_one.sum())
    shift = float(sinv_dev.sum()) / a
    r_gmv = centre + shift
    tilt = sinv_dev - shift * sinv_one

    scale = float(np.abs(sinv_dev).sum()) + abs(shift) * float(np.abs(sinv_one).sum())
    if abs(float(tilt.sum())) > _SUM_RTOL * scale:
        raise ArithmeticError("tilt must sum to zero")

    # s is a positive semidefinite form; rounding can leave it a few
    # ulps of its terms either side of zero, and true-zero slopes
    # (equal means) clamp to exactly 0.
    excess = params.mu - r_gmv
    terms = tilt * excess
    s = float(terms.sum())
    noise = 16.0 * np.finfo(float).eps * params.k * float(np.abs(terms).sum())
    if s < -noise:
        raise ValueError("slope parameter came out materially negative")
    if s <= noise:
        s = 0.0
    c_dev = float(dev @ sinv_dev)
    s_quadratic = c_dev - shift * shift * a
    if abs(s_quadratic - s) > max(1e-10 * max(1.0, c_dev), 4.0 * noise):
        raise ArithmeticError("inconsistent slope between tilt and quadratic forms")
    return FrontierConstants(
        r_gmv=r_gmv, v_gmv=1.0 / a, s=s, w_gmv=Weights(sinv_one / a), tilt=tilt
    )


def gmv_weights(params: MarketParams) -> Weights:
    """Global minimum variance portfolio, Sigma^-1 1 / (1' Sigma^-1 1)."""
    ones = np.ones(params.k)
    sinv_one = params.solve(ones)
    return Weights(sinv_one / (ones @ sinv_one))


def sharpe_weights(params: MarketParams) -> Weights:
    """Sharpe ratio portfolio, Sigma^-1 mu / (1' Sigma^-1 mu).

    Note mu is the mean of GROSS returns, so this differs slightly from
    the textbook net-return Sharpe portfolio. Undefined when
    1' Sigma^-1 mu = 0.
    """
    sinv_mu = params.solve(params.mu)
    b = float(sinv_mu.sum())
    if abs(b) <= 1e-12 * max(1.0, float(np.max(np.abs(sinv_mu)))):
        raise ValueError("Sharpe portfolio undefined")
    return Weights(sinv_mu / b)


def portfolio_moments(w: Weights, params: MarketParams) -> tuple[float, float]:
    """Expected gross return and variance, (w'mu, w'Sigma w)."""
    if w.w.size != params.k:
        raise ValueError("weights dimension does not match market")
    x = float(w.w @ params.mu)
    v = float(w.w @ params.sigma @ w.w)
    return x, max(v, 0.0)


def markowitz_weights(
    x_target: float, params: MarketParams, constants: FrontierConstants
) -> Weights:
    """Frontier portfolio with expected gross return ``x_target``.

    w = w_gmv + (x_target - r_gmv)/s * tilt, with ``constants`` those of
    ``params``.
    """
    if constants.tilt.size != params.k:
        raise ValueError("frontier constants do not match the market")
    if constants.s <= S_MIN:
        raise ValueError("degenerate frontier")
    t = (float(x_target) - constants.r_gmv) / constants.s
    return Weights(constants.w_gmv.w + t * constants.tilt)


def parabola_variance(x: float, constants: FrontierConstants) -> float:
    """Variance of the frontier portfolio with mean ``x``."""
    if constants.s <= S_MIN:
        raise ValueError("degenerate frontier")
    d = float(x) - constants.r_gmv
    return d * d / constants.s + constants.v_gmv
