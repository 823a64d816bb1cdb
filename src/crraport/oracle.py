"""Brute-force verification of the closed-form portfolios.

Maximizes the expected-utility objective numerically over the
fully-invested set by eliminating the budget constraint (the last
weight closes the sum) and running multi-start Nelder-Mead simplex
descent on the reduced coordinates. Deliberately derivative-free and
independent of the closed-form derivation.

The moment-matched log-normal objective is only meaningful where the
portfolio's coefficient of variation is small; at extreme leverage it
spuriously improves toward its (unattained) supremum at infinity. The
search is therefore confined to a generous leverage box: candidates
outside it score -inf, and runs that end glued to the box boundary are
discarded as divergent rather than reported as maxima.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .frontier import Weights, efficient_constants, feasible_rows
from .market import MarketParams

__all__ = ["OracleConfig", "maximize_numeric", "random_feasible"]

logger = logging.getLogger(__name__)

# Candidate portfolios with w'mu at or below this get objective -inf,
# steering the simplex back into the log's domain.
_DOMAIN_FLOOR = 1e-10
_POLISH_ROUNDS = 4
# Nelder-Mead's iteration and evaluation budget per run, and its
# objective tolerance (also the polish rounds' relative stopping gain).
_MAX_ITERS = 20_000
_TOL_OBJ = 1e-12
# The search box: |w_i| is bounded by this, and runs ending beyond half
# of it are treated as divergent and dropped.
_MAX_LEVERAGE = 100.0


@dataclass(frozen=True)
class OracleConfig:
    """Number of search starts (at least 1) and the seed of the random
    ones; the iteration budget, objective tolerance and leverage box
    are the module's constants."""

    n_starts: int = 16
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_starts < 1:
            raise ValueError("n_starts must be at least 1")


def random_feasible(params: MarketParams, n: int, seed: int) -> list[Weights]:
    """n random fully-invested portfolios with w'mu > 0.

    Free coordinates are drawn uniformly from [-2, 3]; the last weight
    closes the sum. Draws violating w'mu > 0 are retried up to 100
    times, then skipped (with the skip count logged).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = np.random.default_rng(seed)
    out: list[Weights] = []
    skipped = 0
    for _ in range(n):
        for _attempt in range(100):
            head = rng.uniform(-2.0, 3.0, size=params.k - 1)
            w = np.append(head, 1.0 - head.sum())
            if w @ params.mu > 0.0:
                out.append(Weights(w))
                break
        else:
            skipped += 1
    if skipped:
        logger.warning("random_feasible: skipped %d of %d draws", skipped, n)
    return out


def _objective(x: float, y: float, gamma: float, w0: float) -> float:
    """Expected utility at portfolio moments (x, y); gamma = 1 is log.

    The oracle's own scalar evaluation, apart from the closed forms in
    ``crra``. Exponents beyond the double range collapse to +/-inf
    (extreme gamma), never NaN.
    """
    if gamma == 1.0:
        return math.log(w0) + 2.0 * math.log(x) - 0.5 * math.log(y)
    prefactor = w0 ** (1.0 - gamma) / (1.0 - gamma)
    exponent = (1.0 - gamma * gamma) * math.log(x) + 0.5 * (
        gamma * gamma - gamma
    ) * math.log(y)
    try:
        return prefactor * math.exp(exponent)
    except OverflowError:
        return math.copysign(math.inf, prefactor)


def _full_weights(u: np.ndarray) -> np.ndarray:
    return np.append(u, 1.0 - u.sum())


def maximize_numeric(
    params: MarketParams, gamma: float, cfg: OracleConfig | None = None
) -> tuple[Weights, float]:
    """Numerically maximize expected utility over {w : w'1 = 1}.

    Multi-start Nelder-Mead from the GMV, Sharpe (if defined; both off
    ``efficient_constants``) and equal-weight portfolios plus seeded random
    feasible points, then restarted polishing of the best surviving
    candidate. Returns the argmax weights and attained objective (W0 = 1).
    """
    if gamma <= 0.0:
        raise ValueError("relative risk aversion must be positive")
    cfg = cfg or OracleConfig()
    mu, sigma = params.mu, params.sigma
    interior = 0.5 * _MAX_LEVERAGE

    def neg_objective(u: np.ndarray) -> float:
        w = _full_weights(u)
        if np.max(np.abs(w)) > _MAX_LEVERAGE:
            return np.inf
        x = float(w @ mu)
        if x <= _DOMAIN_FLOOR:
            return np.inf
        y = float(w @ sigma @ w) + x * x
        return -_objective(x, y, gamma, 1.0)

    constants = efficient_constants(params)
    sharpe = constants.weights_at(constants.t_sharpe)
    starts = [constants.w_gmv]
    if feasible_rows(sharpe):
        starts.append(sharpe)
    starts.append(np.full(params.k, 1.0 / params.k))
    n_random = max(0, cfg.n_starts - len(starts))
    if n_random:
        starts.extend(w.w for w in random_feasible(params, n_random, cfg.seed))

    reduced = [
        w[:-1]
        for w in starts
        if w @ mu > _DOMAIN_FLOOR and np.max(np.abs(w)) <= _MAX_LEVERAGE
    ]
    if not reduced:
        raise ValueError("objective domain empty along search")

    options = {
        "maxiter": _MAX_ITERS,
        "maxfev": _MAX_ITERS,
        "xatol": 1e-9,
        "fatol": _TOL_OBJ,
        "adaptive": params.k > 4,
    }

    def accept(res) -> bool:
        if not res.success or not np.isfinite(res.fun):
            return False
        return np.max(np.abs(_full_weights(res.x))) < interior

    best_u, best_f = None, np.inf
    for u0 in reduced:
        res = minimize(neg_objective, u0, method="Nelder-Mead", options=options)
        if accept(res) and res.fun < best_f:
            best_u, best_f = res.x, float(res.fun)
    if best_u is None:
        raise ValueError("objective domain empty along search")

    # Restarted polish: a fresh simplex around the incumbent escapes
    # the stagnation Nelder-Mead is prone to near an optimum.
    for _ in range(_POLISH_ROUNDS):
        res = minimize(neg_objective, best_u, method="Nelder-Mead", options=options)
        if not accept(res):
            break
        gain = best_f - float(res.fun)
        if res.fun < best_f:
            best_u, best_f = res.x, float(res.fun)
        if gain <= _TOL_OBJ * max(1.0, abs(best_f)):
            break

    return Weights(_full_weights(best_u)), -best_f
