"""Brute-force verification of the closed-form portfolios.

Maximizes the expected-utility objective numerically over the
fully-invested set by eliminating the budget constraint (the last
weight closes the sum) and running multi-start Nelder-Mead simplex
descent on the reduced coordinates, where the portfolio's mean and
variance are per-market linear and quadratic forms. Deliberately
derivative-free and independent of the closed-form derivation.

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
# The looser stopping rule of the multi-start screen; only the polish of
# its best candidate runs to the tight one above.
_SCREEN_XATOL = 1e-6
_SCREEN_FATOL = 1e-9
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


def _reduced_moments(params: MarketParams):
    """The map u -> (w'mu, w'Sigma w) for w = (u, 1 - 1'u).

    Built from per-market reduced forms, w'mu = m0 + d'u and
    w'Sigma w = c0 + 2 g'u + u'H u: plain algebra of the budget
    constraint, not of the closed-form optimum.
    """
    mu, sigma = params.mu, params.sigma
    m0 = float(mu[-1])
    d = mu[:-1] - m0
    c0 = float(sigma[-1, -1])
    col = sigma[:-1, -1]
    g2 = 2.0 * (col - c0)
    h = sigma[:-1, :-1] - col[:, None] - col[None, :] + c0

    def moments(u: np.ndarray) -> tuple[float, float]:
        return m0 + float(d @ u), c0 + float(u @ (g2 + h @ u))

    return moments


def _leverage(u: np.ndarray) -> float:
    """max |w_i| of w = (u, 1 - 1'u), read off the reduced coordinates."""
    head = u.tolist()  # Python floats: cheaper than numpy reductions at small k
    return max(abs(1.0 - sum(head)), *map(abs, head))


def maximize_numeric(
    params: MarketParams, gamma: float, cfg: OracleConfig | None = None
) -> tuple[Weights, float]:
    """Numerically maximize expected utility over {w : w'1 = 1}.

    Multi-start Nelder-Mead from the GMV, Sharpe (if defined; both off
    ``efficient_constants``) and equal-weight portfolios plus seeded random
    feasible points, each run to a coarse stopping rule, then restarted
    tight polishing of the best surviving candidate. Returns the argmax
    weights and attained objective (W0 = 1).
    """
    if gamma <= 0.0:
        raise ValueError("relative risk aversion must be positive")
    cfg = cfg or OracleConfig()
    mu = params.mu
    interior = 0.5 * _MAX_LEVERAGE
    moments = _reduced_moments(params)

    def neg_objective(u: np.ndarray) -> float:
        if _leverage(u) > _MAX_LEVERAGE:
            return np.inf
        x, v = moments(u)
        if x <= _DOMAIN_FLOOR:
            return np.inf
        return -_objective(x, v + x * x, gamma, 1.0)

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

    polish = {
        "maxiter": _MAX_ITERS,
        "maxfev": _MAX_ITERS,
        "xatol": 1e-9,
        "fatol": _TOL_OBJ,
        "adaptive": params.k > 4,
    }
    screen = {**polish, "xatol": _SCREEN_XATOL, "fatol": _SCREEN_FATOL}

    def diverged(res) -> bool:
        return _leverage(res.x) >= interior

    def accept(res) -> bool:
        return bool(res.success) and np.isfinite(res.fun) and not diverged(res)

    best_u, best_f = None, np.inf
    n_divergent = screen_nfev = 0
    for u0 in reduced:
        res = minimize(neg_objective, u0, method="Nelder-Mead", options=screen)
        screen_nfev += res.nfev
        n_divergent += diverged(res)
        if accept(res) and res.fun < best_f:
            best_u, best_f = res.x, float(res.fun)
    if best_u is None:
        raise ValueError(
            "no search run converged inside the leverage box: "
            f"{n_divergent} of {len(reduced)} diverged to it"
        )

    # Restarted tight polish: a fresh simplex around the incumbent
    # escapes the stagnation Nelder-Mead is prone to near an optimum,
    # and sets the returned optimum's accuracy.
    polish_nfev, gain = 0, 0.0
    for rounds in range(1, _POLISH_ROUNDS + 1):
        res = minimize(neg_objective, best_u, method="Nelder-Mead", options=polish)
        polish_nfev += res.nfev
        if not accept(res):
            break
        gain = best_f - float(res.fun)
        if res.fun < best_f:
            best_u, best_f = res.x, float(res.fun)
        if gain <= _TOL_OBJ * max(1.0, abs(best_f)):
            break

    logger.debug(
        "maximize_numeric k=%d gamma=%g: %d starts, %d kept, %d divergent; "
        "screen nfev %d; polish %d rounds, nfev %d, last gain %.3g; max|w| %.6g",
        params.k, gamma, len(starts), len(reduced), n_divergent,
        screen_nfev, rounds, polish_nfev, gain, _leverage(best_u),
    )
    return Weights(np.append(best_u, 1.0 - best_u.sum())), -best_f
