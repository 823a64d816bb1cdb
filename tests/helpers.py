"""Shared generators and reference predicates for the test suite."""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import mpmath as mp
import numpy as np

from crraport import (
    FrontierConstants,
    MarketParams,
    Weights,
    efficient_constants,
    gamma_min,
    portfolio_moments_rows,
    power_solution,
)
from crraport.cli import main
from crraport.market import cho_solve_rows


# A 4-asset market (condition number 5.7e12, smallest squared Cholesky
# pivot 1.09e-12 of the largest variance, just inside MarketParams' rule)
# whose slope is accurate although the covariance is near singular: s is
# within 2.6e-10 of a 60-digit solve, and its rounding bound is 2.2e-8
# of s, so the one slope rule accepts it. The quadratic form
# mu'Q mu = c - b^2/a cancels on it, and differs from s by 4.3e-8.
ACCURATE_NEAR_SINGULAR_MARKET = {
    "mu": [0.9894089655237345, 0.9981237027242235, 0.9993062630666962, 1.0052234116128562],
    "sigma": [
        [1.1347969776245166e-06, -5.519150930715595e-07, -4.23545558584404e-07, -1.5933625088415626e-07],
        [-5.519150930715595e-07, 1.1635488176144855e-06, -2.0017560992688533e-07, -4.114573544456671e-07],
        [-4.23545558584404e-07, -2.0017560992688533e-07, 9.905125671409849e-07, -3.6679004774282844e-07],
        [-1.5933625088415626e-07, -4.114573544456671e-07, -3.6679004774282844e-07, 9.375814669376757e-07],
    ],
}


def mp_constants(mu, sigma, dps: int = 60) -> tuple:
    """r_gmv, v_gmv and s (mpmath numbers) of the market with the double
    means ``mu`` and covariance ``sigma``, solved at ``dps`` digits: one
    LU factorization, solved against 1 and mu - mean(mu), and the
    frontier's forms."""
    k = len(mu)
    with mp.workdps(dps):
        lu, perm = mp.mp.LU_decomp(mp.matrix([[mp.mpf(float(v)) for v in row] for row in np.asarray(sigma)]))
        means = [mp.mpf(float(m)) for m in mu]
        centre = mp.fsum(means) / k
        dev = [m - centre for m in means]
        sinv_one, sinv_dev = (mp.mp.U_solve(lu, mp.mp.L_solve(lu, mp.matrix(b), perm)) for b in ([1] * k, dev))
        a, b = mp.fsum(sinv_one), mp.fsum(sinv_dev)
        s = mp.fsum(d * z for d, z in zip(dev, sinv_dev)) - b * b / a
        return centre + b / a, 1 / a, s


def mp_optimum(r, s, v, gamma, dps: int = 60) -> tuple:
    """x, y and t (mpmath numbers) of the smaller root of the
    optimal-mean quadratic at ``gamma``, from the constants r_gmv ``r``,
    slope ``s`` and v_gmv ``v`` (doubles or mpmath numbers), at ``dps``
    digits plus the log10(gamma) digits that b - sqrt(b^2 - 4ac)
    cancels. A discriminant below 0 (gamma under the constants'
    gamma_min) counts as 0."""
    with mp.workdps(dps + max(0, int(math.log10(gamma)))):
        r, s, v, gamma = (c if isinstance(c, mp.mpf) else mp.mpf(float(c)) for c in (r, s, v, gamma))
        a, b = 1 + s, (gamma + 2) * r
        x = (b - mp.sqrt(max(b * b - 4 * a * (gamma + 1) * (r * r + s * v), 0))) / (2 * a)
        t = (x - r) / s
        return x, v + s * t * t + x * x, t


def slope_and_bound(params: MarketParams) -> tuple[float, float]:
    """A market's slope s and the rounding bound of it that the
    frontier's one slope rule states, recomputed from the market's own
    solve in the frontier's operations: the sum's 16 eps k sum |terms|
    plus (3k + 1) eps |tilt|' |L| |L'| (|Sigma^-1 (mu - m)| + |shift|
    |Sigma^-1 1|), for m the mean of mu."""
    mu, lower, k = params.mu, params.lower, params.k
    centre = mu.sum() / k
    dev = mu - centre
    sinv_one, sinv_dev = sigma_solve(params, np.column_stack((np.ones(k), dev))).T
    shift = sinv_dev.sum() / sinv_one.sum()
    tilt = sinv_dev - shift * sinv_one
    terms = tilt * (mu - (centre + shift))
    factor = np.abs(lower)
    spread = np.abs(sinv_dev) + abs(shift) * np.abs(sinv_one)
    solve = (np.abs(tilt) @ factor) @ (spread @ factor)
    bound = np.finfo(float).eps * (16.0 * k * np.abs(terms).sum() + (3 * k + 1) * solve)
    return float(terms.sum()), float(bound)


def sigma_solve(params: MarketParams, rhs) -> np.ndarray:
    """Solve ``sigma @ x = rhs`` through the market's Cholesky factor."""
    return cho_solve_rows(params.lower, np.asarray(rhs, dtype=float))


def portfolio_moments(w: Weights, params: MarketParams) -> tuple[float, float]:
    """Expected gross return and variance, (w'mu, w'Sigma w)."""
    x, v = portfolio_moments_rows(w.w, params.mu, params.sigma)
    return float(x), float(v)


class FrontierSample(NamedTuple):
    code: int
    payload: dict  # the JSON on stdout on success, on stderr on failure
    rows: np.ndarray | None  # the CSV rows (x, v, w_1..w_k); None if none was written


def frontier_sample(tmp_path: Path, params: MarketParams, *flags: str) -> FrontierSample:
    """Run the ``frontier`` command on ``params`` with ``--out`` set and
    extra ``flags``; its exit code, JSON output and CSV rows."""
    market = tmp_path / "market.json"
    market.write_text(json.dumps({"mu": params.mu.tolist(), "sigma": params.sigma.tolist()}))
    out_csv = tmp_path / "parabola.csv"
    out_csv.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["frontier", "--market", str(market), "--out", str(out_csv), *flags])
    payload = json.loads(out.getvalue() if code == 0 else err.getvalue())
    rows = None
    if out_csv.exists():
        with out_csv.open(newline="") as fh:
            rows = np.array([[float(cell) for cell in row] for row in list(csv.reader(fh))[1:]])
    return FrontierSample(code, payload, rows)


def discriminant(gamma: float, constants: FrontierConstants) -> float:
    """Existence discriminant of the optimal-mean quadratic, the literal
    (g+2)^2 r^2 - 4 (g+1) (1+s) (r^2 + s v); nonnegative exactly when
    the power-utility optimum exists."""
    r2 = constants.r_gmv * constants.r_gmv
    s, v = constants.s, constants.v_gmv
    return float((gamma + 2.0) ** 2 * r2 - 4.0 * (gamma + 1.0) * (1.0 + s) * (r2 + s * v))


def expanded_discriminant(gamma, r, s, v):
    """``discriminant`` expanded, g^2 r^2 - 4 (g+1) s (r^2 + (1+s) v), in
    which no two terms cancel exactly: ``power_grid``'s form without its
    power-of-two scaling of gamma, elementwise over broadcast arrays of
    gamma and the constants r_gmv ``r``, slope ``s`` and v_gmv ``v``."""
    r2 = r * r
    return gamma * gamma * r2 - 4.0 * s * (gamma + 1.0) * (r2 + (1.0 + s) * v)


def power_grid_reference(constants: FrontierConstants, gammas) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """x, y and t (batch + (G,)) of ``power_grid``'s closed form without
    its power-of-two scaling of gamma: the same operations in the same
    order, on gamma itself. Its squares overflow past gamma ~ 1e154."""
    g = np.asarray(gammas, dtype=float)
    r, s, v = (np.asarray(c)[..., None] for c in (constants.r_gmv, constants.s, constants.v_gmv))
    with np.errstate(all="ignore"):
        r2 = r * r
        sq = np.sqrt(np.maximum(expanded_discriminant(g, r, s, v), 0.0))
        x = 2.0 * (g + 1.0) * (r2 + s * v) / ((g + 2.0) * r + sq)
        t = 2.0 * (r2 + (g + 1.0) * v) / ((g - 2.0 * s) * r + sq)
        y = g / (g + 2.0) * ((1.0 + s) * t * (x + r) + (r2 - v))
    return x, y, t


def objective_reference(x: float, y: float, gamma: float, w0: float) -> float:
    """Expected utility at portfolio moments (x, y); gamma = 1 is log.

    A scalar evaluation apart from ``crra``'s kernel, in the expanded
    form W0^(1-g)/(1-g) exp[(1-g^2) ln x + (g^2-g)/2 ln y]. Exponents
    beyond the double range collapse to +/-inf (extreme gamma).
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


class LogNormalParams(NamedTuple):
    """Parameters of ln N(alpha, beta2); beta2 is the log-scale variance."""

    alpha: float
    beta2: float


def lognormal_moment(p: LogNormalParams, tau: float) -> float:
    """Raw moment E[Z^tau] = exp(alpha tau + beta2 tau^2 / 2)."""
    exponent = p.alpha * tau + 0.5 * p.beta2 * tau * tau
    if exponent > 700.0:
        raise OverflowError(f"moment exponent {exponent:.3g} exceeds 700")
    return math.exp(exponent)


def match_params(e: float, v: float) -> LogNormalParams:
    """Log-normal parameters with mean ``e`` and variance ``v``."""
    beta2 = math.log1p(v / (e * e))
    alpha = 2.0 * math.log(e) - 0.5 * math.log(v + e * e)
    return LogNormalParams(alpha=alpha, beta2=beta2)


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


def ill_conditioned_market(
    rng: np.random.Generator, log_cond: tuple[float, float] = (0.0, 10.0)
) -> MarketParams:
    """Random market of 2 to 50 assets, variance scale 1e-7 to 1e-1 and
    condition number 10^log_cond (1 to 1e10 by default), from an
    orthogonal Q diag(ev) Q' with gross means 1 + 0.3 sqrt(scale) N(0, 1)."""
    k = int(rng.integers(2, 51))
    scale = 10.0 ** rng.uniform(-7.0, -1.0)
    cond = 10.0 ** rng.uniform(*log_cond)
    q, _ = np.linalg.qr(rng.normal(size=(k, k)))
    ev = scale * cond ** -rng.uniform(0.0, 1.0, k)
    ev[0], ev[-1] = scale, scale / cond
    sigma = (q * ev) @ q.T
    mu = 1.0 + 0.3 * math.sqrt(scale) * rng.normal(size=k)
    return MarketParams(mu, 0.5 * (sigma + sigma.T))


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
    sinv_mu = sigma_solve(params, params.mu)
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


def table_rows(table: dict) -> list[dict]:
    """The rows of a study report table, stored as columns, as dicts."""
    return [dict(zip(table, row)) for row in zip(*table.values(), strict=True)]
