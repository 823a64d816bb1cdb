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
    "shapiro_wilk_rows",
    "quantile",
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


def shapiro_wilk_rows(samples) -> tuple[np.ndarray, np.ndarray]:
    """Shapiro-Wilk W statistics and p-values of each row of a 2-d array.

    The test of ``shapiro_wilk`` applied to every row at once; the rows
    share one sample size n, whose coefficients are computed once. A row
    with zero range has no test and gets NaN for both. Raises
    ValueError unless 3 <= n <= 5000 and every value is finite.
    """
    x = np.asarray(samples, dtype=float)
    if x.ndim != 2:
        raise ValueError("samples must form a 2-d array")
    n = x.shape[1]
    if n < 3 or n > 5000:
        raise ValueError("sample size must be in [3, 5000]")
    if not np.all(np.isfinite(x)):
        raise ValueError("sample must contain only finite values")
    x = np.sort(x, axis=1)
    coef = _sw_coefficients(n)
    n2 = coef.size

    centred = x - x.mean(axis=1, keepdims=True)
    ssx = np.einsum("ij,ij->i", centred, centred)
    sax = (x[:, : -n2 - 1 : -1] - x[:, :n2]) @ coef
    flat = x[:, -1] - x[:, 0] <= 0.0
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
    call of ``shapiro_wilk_rows``.

    Valid for sample sizes 3 <= n <= 5000 with non-degenerate spread.
    """
    w, p = shapiro_wilk_rows(np.asarray(sample, dtype=float).reshape(1, -1))
    if math.isnan(w[0]):
        raise ValueError("zero sample variance")
    return TestResult(float(w[0]), float(p[0]))


def quantile(values, q: float) -> float:
    """Order-statistic quantile with linear interpolation (type 7)."""
    arr = np.asarray(values, dtype=float).ravel()
    if arr.size == 0:
        raise ValueError("empty sample")
    qf = float(q)
    if not 0.0 <= qf <= 1.0:
        raise ValueError("quantile level must lie in [0, 1]")
    return float(np.quantile(arr, qf))
