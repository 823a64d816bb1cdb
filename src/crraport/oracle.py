"""Brute-force verification of the closed-form portfolios.

Maximizes expected utility numerically over the fully-invested set: the
last weight closes the budget, and the search runs on the remaining
coordinates u, where the portfolio's mean x and variance v are linear
and quadratic forms. It minimizes -ln CE = -(ln x - (gamma/2) log1p(v/x^2)),
the log certainty equivalent, which rises strictly with expected utility
at every gamma > 0 and never overflows, with scipy's trust-exact
(Moré-Sorensen trust-region Newton; Nocedal & Wright, *Numerical
Optimization*, ch. 4). Its gradient and Hessian are chain-rule calculus
of those forms; nothing of the closed-form derivation enters, and the
module imports nothing from ``crra``.

The moment-matched log-normal objective is only meaningful where the
portfolio's coefficient of variation is small; at extreme leverage it
spuriously improves toward its (unattained) supremum at infinity. The
search is therefore confined to a generous leverage box: candidates
outside it score -inf, and runs that end beyond half of the box are
discarded as divergent rather than reported as maxima.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .frontier import Weights, efficient_constants
from .market import MarketParams, check_int, check_seed

__all__ = ["OracleConfig", "maximize_numeric", "random_feasible"]

logger = logging.getLogger(__name__)

# Candidate portfolios with w'mu at or below this get objective -inf,
# steering the search back into the log's domain.
_DOMAIN_FLOOR = 1e-10
# trust-exact's stopping rule: the gradient norm of -ln CE.
_GTOL = 1e-10
# Plain Newton steps tried from the best run. Along flat directions
# trust-exact's decrease test is swamped by the rounding of -ln CE; the
# gradient, which these steps drive down, does not suffer from that.
_NEWTON_STEPS = 2
# The search box: |w_i| is bounded by this, and runs ending beyond half
# of it are treated as divergent and dropped.
_MAX_LEVERAGE = 100.0


@dataclass(frozen=True)
class OracleConfig:
    """Number of search starts, an integer of at least 1, and the seed
    of the random ones, a non-negative integer (``market.check_int``'s
    rule: a float or a string is rejected); the stopping rule and
    leverage box are the module's constants."""

    n_starts: int = 16
    seed: int = 0

    def __post_init__(self) -> None:
        check_int(self.n_starts, 1, "n_starts must be an integer of at least 1")
        check_seed(self.seed)


def random_feasible(params: MarketParams, n: int, seed: int) -> list[Weights]:
    """n random fully-invested portfolios with w'mu > 0.

    Free coordinates are drawn uniformly from [-2, 3]; the last weight
    closes the sum. Draws violating w'mu > 0 are retried up to 100
    times, then skipped (with the skip count logged).
    """
    check_int(n, 1, "n must be an integer of at least 1")
    check_seed(seed)
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


class _NegLnCE:
    """-ln CE on the reduced coordinates u of w = (u, 1 - 1'u).

    Built once per market from x = w'mu = m0 + d'u and
    v = w'Sigma w = c0 + u'(g2 + H u): algebra of the budget constraint,
    not of the closed-form optimum. With q = v/x^2 and dv = g2 + 2 H u:
    dq = dv/x^2 - 2 q d/x, grad = (gamma/2) dq/(1+q) - d/x,
    d2q = 2H/x^2 - 2(dv d' + d dv')/x^3 + 6 v d d'/x^4 and
    Hess = d d'/x^2 + (gamma/2)(d2q/(1+q) - dq dq'/(1+q)^2).
    Outside the box or the log's domain it scores inf; trust-exact asks
    for the Hessian there too, and gets zeros where x is out of domain.
    """

    def __init__(self, params: MarketParams, gamma: float) -> None:
        mu, sigma = params.mu, params.sigma
        self.m0 = float(mu[-1])
        self.d = mu[:-1] - self.m0
        self.c0 = float(sigma[-1, -1])
        col = sigma[:-1, -1]
        self.g2 = 2.0 * (col - self.c0)
        self.h = sigma[:-1, :-1] - col[:, None] - col[None, :] + self.c0
        self.half_gamma = 0.5 * gamma

    def moments(self, u: np.ndarray) -> tuple[float, float]:
        """(w'mu, w'Sigma w) of w = (u, 1 - 1'u)."""
        return self.m0 + float(self.d @ u), self.c0 + float(u @ (self.g2 + self.h @ u))

    def __call__(self, u: np.ndarray) -> float:
        if _leverage(u) > _MAX_LEVERAGE:
            return math.inf
        x, v = self.moments(u)
        if x <= _DOMAIN_FLOOR:
            return math.inf
        return self.half_gamma * math.log1p(v / (x * x)) - math.log(x)

    def _partials(self, u: np.ndarray):
        """x, v, dv, q and dq at u, or None outside the log's domain."""
        x, v = self.moments(u)
        if x <= _DOMAIN_FLOOR:
            return None
        dv = self.g2 + 2.0 * (self.h @ u)
        q = v / (x * x)
        return x, v, dv, q, dv / (x * x) - (2.0 * q / x) * self.d

    def grad(self, u: np.ndarray) -> np.ndarray:
        parts = self._partials(u)
        if parts is None:
            return np.zeros_like(u)
        x, _, _, q, dq = parts
        return (self.half_gamma / (1.0 + q)) * dq - self.d / x

    def hess(self, u: np.ndarray) -> np.ndarray:
        parts = self._partials(u)
        if parts is None:
            return np.zeros((u.size, u.size))
        x, v, dv, q, dq = parts
        dd, cross = np.outer(self.d, self.d), np.outer(dv, self.d)
        d2q = 2.0 * self.h / x**2 - 2.0 * (cross + cross.T) / x**3 + 6.0 * v * dd / x**4
        return dd / x**2 + self.half_gamma * (d2q - np.outer(dq, dq) / (1.0 + q)) / (1.0 + q)


def _leverage(u: np.ndarray) -> float:
    """max |w_i| of w = (u, 1 - 1'u), read off the reduced coordinates."""
    head = u.tolist()  # Python floats: cheaper than numpy reductions at small k
    return max(abs(1.0 - sum(head)), *map(abs, head))


def maximize_numeric(
    params: MarketParams, gamma: float, cfg: OracleConfig | None = None
) -> tuple[Weights, float]:
    """Numerically maximize expected utility over {w : w'1 = 1}.

    Minimizes -ln CE with trust-exact, once from each of the GMV, Sharpe
    (if defined; both off ``efficient_constants``) and equal-weight
    portfolios plus seeded random feasible points up to ``n_starts``.
    Runs ending beyond half the leverage box are dropped as divergent.
    The best run then takes at most two plain Newton steps, each kept
    only if it lowers the gradient norm and stays inside the box.
    Returns the argmax weights and the expected utility there (W0 = 1),
    CE^(1-gamma)/(1-gamma) from the search's own ln CE at that point (ln
    CE itself at gamma = 1): +/-inf or 0 only where the true value is
    beyond the double range (extreme gamma); the search never overflows.

    Raises ValueError for a gamma that is not positive and finite, when
    no start lies in the objective's domain, and when every run diverges
    to the leverage box.
    """
    if not 0.0 < gamma < math.inf:
        raise ValueError("relative risk aversion must be positive and finite")
    cfg = cfg or OracleConfig()
    target = _NegLnCE(params, gamma)

    constants = efficient_constants(params)
    sharpe = constants.weights_at(constants.t_sharpe)
    starts = [constants.w_gmv]
    if np.isfinite(sharpe).all():  # the search closes each start's budget
        starts.append(sharpe)
    starts.append(np.full(params.k, 1.0 / params.k))
    n_random = max(0, cfg.n_starts - len(starts))
    if n_random:
        starts.extend(w.w for w in random_feasible(params, n_random, cfg.seed))

    reduced = [
        w[:-1]
        for w in starts
        if w @ params.mu > _DOMAIN_FLOOR and np.max(np.abs(w)) <= _MAX_LEVERAGE
    ]
    if not reduced:
        raise ValueError("objective domain empty along search")

    best = None
    n_divergent = nfev = njev = nhev = 0
    for u0 in reduced:
        res = minimize(
            target, u0, jac=target.grad, hess=target.hess,
            method="trust-exact", options={"gtol": _GTOL},
        )
        nfev, njev, nhev = nfev + res.nfev, njev + res.njev, nhev + res.nhev
        if _leverage(res.x) >= 0.5 * _MAX_LEVERAGE:
            n_divergent += 1
        elif best is None or res.fun < best.fun:
            best = res
    if best is None:
        raise ValueError(
            "no search run converged inside the leverage box: "
            f"{n_divergent} of {len(reduced)} diverged to it"
        )

    u = best.x
    g = target.grad(u)
    steps = 0
    for _ in range(_NEWTON_STEPS):
        try:
            trial = u - np.linalg.solve(target.hess(u), g)
        except np.linalg.LinAlgError:
            break
        if not math.isfinite(target(trial)):
            break
        g_trial = target.grad(trial)
        if np.linalg.norm(g_trial) >= np.linalg.norm(g):
            break
        u, g, steps = trial, g_trial, steps + 1

    logger.debug(
        "maximize_numeric k=%d gamma=%g: %d starts, %d kept, %d divergent; "
        "nfev %d, njev %d, nhev %d; %d Newton steps; |grad| %.3g; max|w| %.6g",
        params.k, gamma, len(starts), len(reduced), n_divergent,
        nfev, njev, nhev, steps, np.linalg.norm(g), _leverage(u),
    )
    weights, ln_ce = Weights(np.append(u, 1.0 - u.sum())), -target(u)
    if gamma == 1.0:
        return weights, ln_ce
    # exp((1-gamma) ln CE)/(1-gamma), divided inside the exponent so that
    # it overflows only where the true value does.
    with np.errstate(over="ignore"):
        power = np.exp((1.0 - gamma) * ln_ce - math.log(abs(1.0 - gamma)))
    return weights, math.copysign(float(power), 1.0 - gamma)
