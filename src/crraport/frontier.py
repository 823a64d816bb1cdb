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
After ``s`` is read, the tilt is projected onto 1'x = 0 along ``w_gmv``,
so every frontier portfolio meets the budget as ``w_gmv`` does; this is
the one place the budget rule is applied. Shorting is allowed
throughout: feasible means w'1 = 1.

The slope is usable only where its rounding is small beside it. The
sum that forms s rounds by at most ``16 eps k sum |tilt_i (mu_i - r_gmv)|``.
The Cholesky solve behind it is exact for a covariance off by at most
``(3k + 1) eps |L| |L'|`` per column (Higham, *Accuracy and Stability
of Numerical Algorithms*, 2nd ed., 2002, Thm 10.4). That moves s by
at most ``(3k + 1) eps |tilt|' |L| |L'| (|Sigma^-1 (mu - mean(mu))| +
|shift| |Sigma^-1 1|)`` to first order, for ``shift = r_gmv - mean(mu)``:
eps k times a componentwise condition number of s, in place of kappa.
This is the one slope rule: a market's slope is accepted when the sum
of the two bounds is below ``SLOPE_RTOL`` = 1e-2 of s. So s <= 0 is
rejected, flat frontiers (equal means, where s and its bound are 0)
included.

The constants carry leading batch axes: ``efficient_constants_rows``
solves a stack of markets (B,) at once and codes each market's failed
check in ``outcome`` (``FRONTIER_OUTCOMES``: ok, infeasible_gmv,
nonfinite_tilt, degenerate_frontier); ``efficient_constants`` is its
one-market call (batch shape ``()``), which raises the check's
ValueError instead. ``weights_at`` and ``period_returns`` (a panel's
returns of the GMV portfolio and the tilt) act on the whole batch.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from .market import MarketParams, cho_solve_rows

__all__ = [
    "SLOPE_RTOL",
    "FRONTIER_OUTCOMES",
    "Weights",
    "FrontierConstants",
    "efficient_constants",
    "efficient_constants_rows",
    "sharpe_weights",
    "portfolio_moments_rows",
]

# A slope is accepted when the bound on its rounding is below this
# fraction of it (see the module docstring).
SLOPE_RTOL = 1e-2

# The budget check, relative to the magnitudes summed: the rounding of
# a sum grows with its terms, and leveraged or small-variance markets
# carry large terms.
_SUM_RTOL = 1e-10


@dataclass(frozen=True, eq=False)
class Weights:
    """Fully-invested portfolio weights (w'1 = 1, shorting allowed)."""

    w: np.ndarray

    def __post_init__(self) -> None:
        w = np.array(self.w, dtype=float).ravel()
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        if not abs(w.sum() - 1.0) <= _SUM_RTOL * max(1.0, np.abs(w).sum()):
            raise ValueError("weights must sum to 1 (relative tolerance 1e-10 of sum |w|)")
        w.flags.writeable = False
        object.__setattr__(self, "w", w)


# The checks of the frontier constants, in the order they apply, with
# the ValueError message the one-market ``efficient_constants`` raises.
_CHECKS = (
    ("infeasible_gmv", "GMV weights must be finite and v_gmv positive"),
    ("nonfinite_tilt", "tilt must be finite"),
    ("degenerate_frontier", "degenerate frontier"),
)
# Per-market outcome names of ``efficient_constants_rows``: 0 is "ok",
# code i > 0 the i-th check above, the first one the market failed.
FRONTIER_OUTCOMES = ("ok",) + tuple(name for name, _ in _CHECKS)


@dataclass(frozen=True, eq=False)
class FrontierConstants:
    """Efficient frontiers of a batch of markets: ``r_gmv``, ``v_gmv``,
    the slope ``s``, the GMV weights ``w_gmv`` and the Markowitz tilt
    ``Q mu``, with ``outcome`` an index into ``FRONTIER_OUTCOMES``.

    Every field has the batch's leading shape, ``()`` for one market
    (then the scalars are numpy floats); ``w_gmv`` and ``tilt`` add a
    trailing asset axis. A market that failed a check holds NaN in every
    float field. The frontier portfolio with mean X is
    ``w_gmv + (X - r_gmv)/s * tilt`` (``weights_at``).
    """

    r_gmv: np.ndarray
    v_gmv: np.ndarray
    s: np.ndarray
    w_gmv: np.ndarray
    tilt: np.ndarray
    outcome: np.ndarray

    @property
    def t_sharpe(self) -> np.ndarray:
        """Frontier coordinate ``v_gmv / r_gmv`` of the Sharpe portfolio
        Sigma^-1 mu / (1' Sigma^-1 mu), the gamma -> infinity end of the
        optimal portfolios."""
        with np.errstate(all="ignore"):
            return self.v_gmv / self.r_gmv

    def weights_at(self, t) -> np.ndarray:
        """Frontier portfolios ``w_gmv + t tilt``; ``t`` has the batch's shape."""
        return self.w_gmv + np.asarray(t)[..., None] * self.tilt

    def period_returns(self, gross: np.ndarray, assets: np.ndarray) -> np.ndarray:
        """Realized gross returns ``base, slope`` (batch + (2, n)) of the
        GMV portfolio and the tilt of markets made of the columns
        ``assets`` (batch + (k,)) of a panel of gross returns ``gross``
        (n, K); the frontier portfolio at t returns ``t * slope + base``.
        Dot products of the panel's rows and the weights scattered to its
        full width: unlike a matrix product's, they do not depend on the
        rest of the batch."""
        weights = np.zeros(self.tilt.shape[:-1] + (2, gross.shape[-1]))
        np.put_along_axis(
            weights, assets[..., None, :], np.stack((self.w_gmv, self.tilt), axis=-2), axis=-1
        )
        return np.vecdot(weights[..., None, :], gross)


def _first_failures(failed: tuple, values: tuple) -> tuple:
    """Outcome codes from the failure masks of checks taken in order: 0
    where none failed, else 1 + the index of the first that did; and
    ``values`` (whose leading shape is the masks') read-only, with NaN
    in the failed cells. Returns (outcome, *values), with numpy scalars
    in place of 0-d arrays."""
    bad = functools.reduce(np.logical_or, failed)
    outcome = np.zeros(np.shape(bad), dtype=np.int8)
    out = [outcome]
    for code in range(len(failed), 0, -1):
        outcome[failed[code - 1]] = code
    for arr in map(np.asarray, values):
        arr[bad] = np.nan
        out.append(arr)
    for arr in out:
        arr.flags.writeable = False
    return tuple(arr[()] for arr in out)


def efficient_constants_rows(mu: np.ndarray, lower: np.ndarray) -> FrontierConstants:
    """Frontier constants of a batch of markets, from their gross means
    ``mu`` (B, k) and the lower Cholesky factors ``lower`` (B, k, k) of
    their covariances; one market's ``mu`` (k,) and ``lower`` (k, k)
    give batch shape ().

    One linear solve per market against its factor, with the stacked
    right-hand side [1, mu - m] for m the mean of mu. In exact
    arithmetic centring mu changes nothing (the tilt is
    Sigma^-1 (mu - r_gmv 1) either way), but it keeps the tilt from
    being the difference of two large, nearly equal vectors when the
    means sit close together, as gross means near 1 do. A market's
    results are bitwise those of its one-market call.
    """
    k = mu.shape[-1]
    centre = mu.sum(axis=-1) / k
    dev = mu - centre[..., None]
    rhs = np.ones(mu.shape + (2,))
    rhs[..., 1] = dev
    solved = cho_solve_rows(lower, rhs)
    sinv_one, sinv_dev = solved[..., 0], solved[..., 1]
    with np.errstate(all="ignore"):
        a = sinv_one.sum(axis=-1)
        shift = sinv_dev.sum(axis=-1) / a
        r_gmv = centre + shift
        tilt = sinv_dev - shift[..., None] * sinv_one

        terms = tilt * (mu - r_gmv[..., None])
        s = terms.sum(axis=-1)
        # The rounding bound of s that the module docstring derives.
        factor = np.abs(lower)
        spread = np.abs(sinv_dev) + np.abs(shift)[..., None] * np.abs(sinv_one)
        solve = np.vecdot(np.vecmat(np.abs(tilt), factor), np.vecmat(spread, factor))
        bound = np.finfo(float).eps * (16.0 * k * np.abs(terms).sum(axis=-1) + (3 * k + 1) * solve)
        w_gmv = sinv_one / a[..., None]
        v_gmv = 1.0 / a
        # The solve's rounding, times the conditioning, leaves 1' tilt off
        # zero; the Sigma-orthogonal projection onto 1'x = 0 (along w_gmv)
        # puts w_gmv + t tilt on the budget for every t.
        tilt = tilt - w_gmv * tilt.sum(axis=-1)[..., None]
        failed = (
            # Finite w_gmv sums to 1 within ~2 k eps sum |w_gmv|.
            ~np.isfinite(w_gmv).all(axis=-1) | ~(v_gmv > 0.0),
            ~np.isfinite(tilt).all(axis=-1),
            ~(bound < SLOPE_RTOL * s),
        )
    outcome, r_gmv, v_gmv, s, w_gmv, tilt = _first_failures(failed, (r_gmv, v_gmv, s, w_gmv, tilt))
    return FrontierConstants(r_gmv=r_gmv, v_gmv=v_gmv, s=s, w_gmv=w_gmv, tilt=tilt, outcome=outcome)


def efficient_constants(params: MarketParams) -> FrontierConstants:
    """Frontier constants (r_gmv, v_gmv, s, w_gmv, tilt) of one market:
    the one-market call of ``efficient_constants_rows``, raising the
    ValueError of the check it failed."""
    constants = efficient_constants_rows(params.mu, params.lower)
    code = int(constants.outcome)
    if code:
        raise ValueError(_CHECKS[code - 1][1])
    return constants


def sharpe_weights(params: MarketParams) -> Weights:
    """Sharpe ratio portfolio Sigma^-1 mu / (1' Sigma^-1 mu), ``t_sharpe``
    on the frontier of ``efficient_constants``. mu is the mean of GROSS
    returns, so this differs slightly from the textbook net-return Sharpe
    portfolio. Undefined (ValueError) where its weights are not finite,
    as when 1' Sigma^-1 mu = 0 (r_gmv = 0, so ``t_sharpe`` is infinite)."""
    constants = efficient_constants(params)
    w = constants.weights_at(constants.t_sharpe)
    if not np.isfinite(w).all():
        raise ValueError("Sharpe portfolio undefined")
    return Weights(w)


def portfolio_moments_rows(
    w: np.ndarray, mu: np.ndarray, sigma: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Expected gross returns w'mu and variances w'Sigma w (floored at 0)
    of portfolios ``w`` (..., k) in markets ``mu`` (..., k) and
    ``sigma`` (..., k, k); non-finite weights, such as the Sharpe
    portfolio's where r_gmv = 0, may give NaN."""
    with np.errstate(invalid="ignore"):
        x = np.vecdot(w, mu)
        v = np.vecdot(np.vecmat(w, sigma), w)
    return x, np.maximum(v, 0.0)

