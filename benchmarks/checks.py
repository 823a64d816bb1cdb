"""Correctness checks on a workload's outputs, computed apart from crraport.

Every check takes plain values (rows read back from the written CSVs,
arrays, or numbers the program returned) and returns a list of problem
strings; an empty list means the check passed. ``strategy_rows_failing``
instead returns the rows that fail, because each such row is one failed
operation. None of these functions is timed.
"""

from __future__ import annotations

import math
from collections import defaultdict

import numpy as np

# Acceptance criterion 1 of the closed form against the numerical oracle.
ORACLE_MAX_DW = 1e-5
ORACLE_MAX_REL_GAP = 1e-9
UTILITY_RTOL = 1e-9
ESTIMATE_RTOL = 1e-10
SHAPIRO_ATOL = 1e-5
EPS = float(np.finfo(float).eps)
ROUNDING_ULPS = 16


def _num(cell: str) -> float | None:
    return None if cell == "" else float(cell)


def _at_least(opt: float, other: float, rtol: float) -> bool:
    if math.isnan(opt) or math.isnan(other):
        return False
    if opt == other or other == -math.inf or opt == math.inf:
        return True  # equal infinities are ties
    if math.isinf(opt) or math.isinf(other):
        return False
    return opt >= other - rtol * max(abs(opt), abs(other))


def strategy_rows_failing(rows: list[dict], rtol: float = UTILITY_RTOL) -> list[dict]:
    """Rows where utility_optimal falls below utility_naive or utility_sharpe.

    The closed form maximizes the same objective the other two strategies
    are scored by, so it may only tie or win. NaN or a blank never passes.
    """
    bad = []
    for row in rows:
        values = [_num(row[c]) for c in ("utility_optimal", "utility_naive", "utility_sharpe")]
        opt, *others = values
        if None in values or not all(_at_least(opt, o, rtol) for o in others):
            bad.append(row)
    return bad


def check_failure_rates(rows: list[dict]) -> list[str]:
    """rate_gamma_min_violated never rises with gamma, and the MV-efficiency
    failure rate is at least the existence failure rate."""
    problems = []
    by_k = defaultdict(list)
    for row in rows:
        by_k[row["k"]].append(row)
    for k, group in by_k.items():
        group.sort(key=lambda r: float(r["gamma"]))
        prev = math.inf
        for row in group:
            gm, mv = _num(row["rate_gamma_min_violated"]), _num(row["rate_mv_violated"])
            if gm is None or mv is None:
                problems.append(f"k={k} gamma={row['gamma']}: rate missing")
                continue
            if not (0.0 <= gm <= 1.0 and 0.0 <= mv <= 1.0):
                problems.append(f"k={k} gamma={row['gamma']}: rate outside [0, 1]")
            if gm > prev:
                problems.append(f"k={k} gamma={row['gamma']}: gamma_min rate rose")
            if mv < gm:
                problems.append(f"k={k} gamma={row['gamma']}: mv rate below gamma_min rate")
            prev = gm
    if not rows:
        problems.append("condition_failure_rates is empty")
    return problems


def check_frontier(rows: list[dict]) -> list[str]:
    """Per k: optimal x and v decrease in gamma, x stays above the Sharpe
    portfolio's x, and v stays at or above the GMV variance.

    Comparisons allow ROUNDING_ULPS of rounding in x and in y = v + x^2:
    near the Sharpe limit (gamma ~ 1e8) successive optima differ by less
    than one ulp, and v = y - x^2 carries the rounding of y.
    """
    problems = []
    by_k = defaultdict(lambda: defaultdict(list))
    for row in rows:
        by_k[row["k"]][row["portfolio"]].append(row)
    for k, parts in by_k.items():
        if len(parts["gmv"]) != 1 or len(parts["sharpe"]) != 1:
            problems.append(f"k={k}: expected one gmv and one sharpe row")
            continue
        x_sharpe = float(parts["sharpe"][0]["x"])
        v_gmv = float(parts["gmv"][0]["v"])
        optimal = sorted(parts["optimal"], key=lambda r: float(r["gamma"]))
        prev_x = prev_v = math.inf
        for row in optimal:
            x, v = float(row["x"]), float(row["v"])
            tol_x = ROUNDING_ULPS * EPS * abs(x)
            tol_v = ROUNDING_ULPS * EPS * (v + x * x)
            if not (x <= prev_x + tol_x and v <= prev_v + tol_v):
                problems.append(f"k={k} gamma={row['gamma']}: x or v rose with gamma")
            if not x > x_sharpe - tol_x:
                problems.append(f"k={k} gamma={row['gamma']}: x below the Sharpe x")
            if not v >= v_gmv - tol_v:
                problems.append(f"k={k} gamma={row['gamma']}: v below the GMV v")
            prev_x, prev_v = x, v
    if not by_k:
        problems.append("frontier_locations is empty")
    return problems


def check_pvalue_quantiles(rows: list[dict]) -> list[str]:
    """P-value quantiles lie in [0, 1] and rise with the quantile level."""
    problems = []
    by_cell = defaultdict(list)
    for row in rows:
        by_cell[(row["k"], row["gamma"])].append(row)
    for (k, gamma), group in by_cell.items():
        group.sort(key=lambda r: float(r["quantile"]))
        values = [_num(r["value"]) for r in group]
        if any(v is not None and not 0.0 <= v <= 1.0 for v in values):
            problems.append(f"k={k} gamma={gamma}: p-value quantile outside [0, 1]")
        present = [v for v in values if v is not None]
        if any(b < a for a, b in zip(present, present[1:])):
            problems.append(f"k={k} gamma={gamma}: p-value quantiles out of order")
    if not by_cell:
        problems.append("pvalue_quantiles is empty")
    return problems


def check_estimate(returns: np.ndarray, mu: np.ndarray, sigma: np.ndarray) -> list[str]:
    """Program mean and covariance of gross returns against numpy's."""
    gross = np.asarray(returns, dtype=float) + 1.0
    ref_mu = gross.mean(axis=0)
    ref_sigma = np.cov(gross, rowvar=False, ddof=1)
    scale = float(np.max(np.abs(ref_sigma)))
    problems = []
    if not np.allclose(mu, ref_mu, rtol=ESTIMATE_RTOL, atol=0.0):
        problems.append("estimated mean differs from numpy")
    if not np.allclose(sigma, ref_sigma, rtol=ESTIMATE_RTOL, atol=ESTIMATE_RTOL * scale):
        problems.append("estimated covariance differs from numpy")
    return problems


def oracle_gaps(
    closed_w: np.ndarray, closed_u: float, oracle_w: np.ndarray, oracle_u: float
) -> tuple[float, float]:
    """|dw| and the relative objective gap of criterion 1."""
    dw = float(np.max(np.abs(np.asarray(oracle_w) - np.asarray(closed_w))))
    gap = abs(oracle_u - closed_u) / max(1.0, abs(closed_u))
    return dw, gap


def check_oracle(
    closed_w: np.ndarray, closed_u: float, oracle_w: np.ndarray, oracle_u: float
) -> list[str]:
    """Closed form against the numerical oracle at criterion 1's tolerances."""
    dw, gap = oracle_gaps(closed_w, closed_u, oracle_w, oracle_u)
    if dw <= ORACLE_MAX_DW and gap <= ORACLE_MAX_REL_GAP:
        return []
    return [f"oracle disagrees: |dw|={dw:.2e}, objective gap={gap:.2e}"]


def check_shapiro(sample: np.ndarray, statistic: float, p_value: float) -> list[str]:
    """Program Shapiro-Wilk W and p-value against scipy.stats.shapiro."""
    from scipy.stats import shapiro

    ref = shapiro(np.asarray(sample, dtype=float))
    if (
        abs(statistic - float(ref.statistic)) <= SHAPIRO_ATOL
        and abs(p_value - float(ref.pvalue)) <= SHAPIRO_ATOL
    ):
        return []
    return [
        f"shapiro_wilk (W={statistic:.6g}, p={p_value:.6g}) differs from scipy "
        f"(W={float(ref.statistic):.6g}, p={float(ref.pvalue):.6g})"
    ]


def check_identical(digests: list) -> list[str]:
    """Every pass of one seed produced the same output bytes."""
    if len(digests) < 2:
        return ["fewer than two passes to compare"]
    if any(d != digests[0] for d in digests[1:]):
        return ["passes of the same seed wrote different outputs"]
    return []
