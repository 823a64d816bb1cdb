"""Statistical kernel: normal CDF, Shapiro-Wilk test, quantiles.

Everything here is a pure function of its inputs and safe to call from
any thread.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc, ndtri

__all__ = [
    "TestResult",
    "normal_cdf",
    "shapiro_wilk",
    "shapiro_wilk_sorted",
    "quantile",
    "quantile_columns",
]

_SQRT1_2 = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class TestResult:
    """Outcome of a hypothesis test."""

    statistic: float
    p_value: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.statistic):
            raise ValueError("test statistic must be finite")
        if not 0.0 <= self.p_value <= 1.0:
            raise ValueError("p-value must lie in [0, 1]")


def normal_cdf(x):
    """Standard normal CDF.

    Evaluated through the complementary error function,
    ``Phi(x) = erfc(-x / sqrt(2)) / 2``, which keeps the absolute error
    well below 1e-12 for |x| <= 8 and never produces NaN or negative
    values in the far tails. Accepts scalars or arrays.
    """
    arr = np.asarray(x, dtype=float)
    out = 0.5 * erfc(-arr * _SQRT1_2)
    if arr.ndim == 0:
        return float(out)
    return out


# Royston (1995) / AS R94 polynomial coefficients, ascending order.
_C1 = (0.0, 0.221157, -0.147981, -2.071190, 4.434685, -2.706056)
_C2 = (0.0, 0.042981, -0.293762, -1.752461, 5.682633, -3.582633)
_C3 = (0.544, -0.39978, 0.025054, -6.714e-4)
_C4 = (1.3822, -0.77857, 0.062767, -0.0020322)
_C5 = (-1.5861, -0.31082, -0.083751, 0.0038915)
_C6 = (-0.4803, -0.082676, 0.0030302)
_G = (-2.273, 0.459)


def _poly(coeffs, x: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


@functools.lru_cache(maxsize=64)
def _sw_coefficients(n: int) -> np.ndarray:
    """AS R94 coefficients of the lower half of the ordered sample, for
    sample size n; read-only, computed once per n.

    Expected normal order statistics come from the Blom-type quantile
    formula, with the two end coefficients polynomial-corrected.
    """
    n2 = n // 2
    # Lower-half expected order statistics (all negative; middle is 0
    # for odd n and drops out of the statistic).
    m = ndtri((np.arange(1, n2 + 1) - 0.375) / (n + 0.25))
    ssq = 2.0 * float(np.dot(m, m))

    if n == 3:
        coef = np.array([math.sqrt(0.5)])
    else:
        rsn = 1.0 / math.sqrt(n)
        a1 = _poly(_C1, rsn) - m[0] / math.sqrt(ssq)
        coef = np.empty(n2)
        if n > 5:
            a2 = _poly(_C2, rsn) - m[1] / math.sqrt(ssq)
            fac = math.sqrt(
                (ssq - 2.0 * m[0] ** 2 - 2.0 * m[1] ** 2)
                / (1.0 - 2.0 * a1 * a1 - 2.0 * a2 * a2)
            )
            coef[0] = a1
            coef[1] = a2
            coef[2:] = -m[2:] / fac
        else:
            fac = math.sqrt((ssq - 2.0 * m[0] ** 2) / (1.0 - 2.0 * a1 * a1))
            coef[0] = a1
            coef[1:] = -m[1:] / fac
    coef.flags.writeable = False
    return coef


def _sw_p_values(w: np.ndarray, n: int) -> np.ndarray:
    """Upper-tail p-values of W for sample size n: exact for n = 3,
    otherwise a normal approximation of log(1 - W), with separate
    regressions for n <= 11 and n >= 12."""
    if n == 3:
        p = 1.90985931710274 * (np.arcsin(np.sqrt(w)) - 1.04719755119660)
        return np.clip(p, 0.0, 1.0)
    w1 = 1.0 - w
    y = np.log(w1)
    if n <= 11:
        gma = _poly(_G, float(n))
        z = (-np.log(gma - y) - _poly(_C3, float(n))) / math.exp(_poly(_C4, float(n)))
        p = np.where(y >= gma, 0.0, normal_cdf(-z))
    else:
        ln_n = math.log(n)
        z = (y - _poly(_C5, ln_n)) / math.exp(_poly(_C6, ln_n))
        p = normal_cdf(-z)
    return np.clip(np.where(w1 <= 1e-19, 1.0, p), 0.0, 1.0)


def shapiro_wilk_sorted(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Shapiro-Wilk W statistics and p-values of each row of ``x``, rows
    already sorted ascending, (m, n) with 3 <= n <= 5000: the test of
    ``shapiro_wilk`` on every row at once, with one set of coefficients
    for their sample size n. A row with zero range has no test and gets
    NaN for both. Centres the rows in place: ``x`` holds each row minus
    its mean afterwards. Raises ValueError unless every value is finite,
    which it reads off the first and last columns (NaN sorts last)."""
    if not (np.isfinite(x[:, 0]).all() and np.isfinite(x[:, -1]).all()):
        raise ValueError("sample must contain only finite values")
    n = x.shape[1]
    coef = _sw_coefficients(n)
    n2 = coef.size

    # A per-row reduction, not a matrix-vector product: BLAS gemv would
    # make a row's rounding depend on how many rows share the call.
    sax = np.vecdot(x[:, : -n2 - 1 : -1] - x[:, :n2], coef)
    flat = x[:, -1] - x[:, 0] <= 0.0
    x -= x.mean(axis=1, keepdims=True)
    ssx = np.einsum("ij,ij->i", x, x)
    with np.errstate(all="ignore"):
        w = np.minimum(sax * sax / ssx, 1.0)
        p = _sw_p_values(w, n)
    w[flat] = np.nan
    p[flat] = np.nan
    return w, p


def shapiro_wilk(sample) -> TestResult:
    """Shapiro-Wilk W test of composite normality.

    Implements the Royston (1995) approximation (AS R94): expected
    normal order statistics from the Blom-type quantile formula,
    polynomial-corrected end coefficients, and a normal approximation
    of the null distribution of ``log(1 - W)`` (with separate
    regressions for n <= 11 and n >= 12; n = 3 is exact). The one-row
    call of ``shapiro_wilk_sorted``, on a sorted copy of the sample.

    Valid for 1-d samples of size 3 <= n <= 5000 with finite values and
    non-degenerate spread; raises ValueError otherwise.
    """
    x = np.asarray(sample, dtype=float)
    if x.ndim != 1:
        raise ValueError("sample must be 1-d")
    if not 3 <= x.size <= 5000:
        raise ValueError("sample size must be in [3, 5000]")
    w, p = shapiro_wilk_sorted(np.sort(x)[None])
    if math.isnan(w[0]):
        raise ValueError("zero sample variance")
    return TestResult(float(w[0]), float(p[0]))


def quantile_columns(values, q) -> tuple[np.ndarray, np.ndarray]:
    """Order-statistic quantiles (type 7) of each column of a 2-d array,
    with NaN marking a missing value.

    Returns each column's count of non-NaN values (C,) and its
    quantiles at the levels ``q`` (L, C); a column with no value gets
    NaN. Each quantile is bitwise that of ``np.quantile`` on the
    column's non-NaN values: the columns are sorted, NaN last, and the
    two order statistics around the virtual index ``(n - 1) q`` are
    interpolated by numpy's ``_lerp``, including its ``t >= 0.5``
    branch and its weight past the last index.
    """
    x = np.asarray(values, dtype=float)
    if x.ndim != 2:
        raise ValueError("values must form a 2-d array")
    x = np.sort(x, axis=0)
    levels = np.asarray(q, dtype=float).reshape(-1, 1)
    if not np.all((levels >= 0.0) & (levels <= 1.0)):
        raise ValueError("quantile level must lie in [0, 1]")
    n = x.shape[0] - np.count_nonzero(np.isnan(x), axis=0)
    if x.shape[0] == 0:
        return n, np.full((levels.size, x.shape[1]), np.nan)
    virtual = (n - 1) * levels
    lower = np.floor(virtual)
    top = virtual >= n - 1
    below = np.where(top, n - 1, lower).astype(np.intp)
    above = np.where(top, n - 1, lower + 1.0).astype(np.intp)
    # numpy puts a top index at -1, so its weight there is virtual + 1.
    t = np.where(top, virtual + 1.0, virtual - lower)
    # A column with no value reads its last entry, a NaN, at index -1.
    a = np.take_along_axis(x, below, axis=0)
    b = np.take_along_axis(x, above, axis=0)
    diff = b - a
    out = a + diff * t
    np.subtract(b, diff * (1.0 - t), out=out, where=t >= 0.5)
    return n, out


def quantile(values, q):
    """Order-statistic quantile with linear interpolation (type 7).

    ``q`` is one level (returns a float) or a sequence of levels
    (returns an array, one quantile per level, each equal to its
    one-level call). The one-column call of ``quantile_columns``;
    raises ValueError on an empty sample or one holding NaN.
    """
    arr = np.asarray(values, dtype=float).reshape(-1, 1)
    if arr.size == 0:
        raise ValueError("empty sample")
    if np.isnan(arr).any():
        raise ValueError("sample must not contain NaN")
    out = quantile_columns(arr, q)[1][:, 0]
    return float(out[0]) if np.ndim(q) == 0 else out.reshape(np.shape(q))
