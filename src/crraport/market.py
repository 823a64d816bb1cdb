"""Asset-return ingestion and market-parameter estimation.

Returns are simple per-period returns ``r``; everything downstream works
with gross returns ``R = 1 + r``, so ``MarketParams.mu`` is the mean of
gross returns and ``MarketParams.sigma`` their covariance (identical to
the covariance of simple returns). All values are immutable after
construction. A column subset's sample moments are the matching
entries of its panel's, so ``subset_rows`` gathers a stack of subsets
from one ``sample_moments`` estimate instead of re-estimating each.

Each kind of input is checked in one place here:

- a mean and covariance pair, ``MarketParams``' (mu, sigma) and
  ``SynthSpec``'s (mu0, sigma0), by ``_checked_moments``: k >= 2, a
  k x k covariance, finite entries, symmetry within 1e-10 relative to
  the largest entry, and positive definiteness by ``subset_rows``'
  Cholesky pivot rule;
- a parsed JSON object with required keys, a market file or a synth
  spec, by ``json_fields``: "{what} must be a JSON object" or
  "{what} is missing a, b";
- a count or a seed by ``check_int``: a Python or numpy integer, not a
  float or a string, of at least a minimum.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.linalg import get_lapack_funcs

__all__ = [
    "ReturnMatrix",
    "MarketParams",
    "SynthSpec",
    "load_returns_csv",
    "estimate_params",
    "sample_moments",
    "subset_rows",
    "cho_solve_rows",
    "check_int",
    "check_seed",
    "json_fields",
    "synth_market",
]

# Cholesky pivot acceptance threshold, relative to the largest diagonal
# entry of the covariance matrix.
_PIVOT_RTOL = 1e-12
_SYMMETRY_RTOL = 1e-10

_SINGULAR_MSG = "singular covariance; need n > k and non-degenerate returns"

# LAPACK's Cholesky solve for doubles, as scipy's cho_solve calls it.
(_POTRS,) = get_lapack_funcs(("potrs",), (np.empty((1, 1)),))


def _spd_cholesky_rows(sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower Cholesky factors of a stack of symmetric matrices (B, k, k),
    and which of them are positive definite.

    A matrix passes when its largest diagonal entry is positive, the
    factorization succeeds and every pivot exceeds ``1e-12 * max(diag)``
    (a matrix without a positive diagonal entry fails to factor). A
    failed matrix gets the identity as its factor, so solves against it
    stay finite.
    """
    max_diag = sigma.diagonal(axis1=1, axis2=2).max(axis=1)
    ok = max_diag > 0.0
    try:
        lower = np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError:
        # One failed factorization fails the whole stack: factor each
        # matrix on its own to find the failures.
        lower = np.zeros_like(sigma)
        for i, matrix in enumerate(sigma):
            try:
                lower[i] = np.linalg.cholesky(matrix)
            except np.linalg.LinAlgError:
                ok[i] = False
    ok &= (lower.diagonal(axis1=1, axis2=2) ** 2 > _PIVOT_RTOL * max_diag[:, None]).all(axis=1)
    if not ok.all():
        lower[~ok] = np.eye(sigma.shape[-1])
    return lower, ok


def cho_solve_rows(lower: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Scipy's ``cho_solve((lower, True), rhs)`` for one lower
    Cholesky factor (k, k) or a stack of them (B, k, k) with matching
    right-hand sides: the same LAPACK potrs call per factor, without
    scipy's per-call input checks and batch dispatch."""
    if lower.ndim == 2:
        return _POTRS(lower, rhs, lower=True)[0]
    out = np.empty_like(rhs)
    for i, factor in enumerate(lower):
        out[i] = _POTRS(factor, rhs[i], lower=True)[0]
    return out


def _float_array(value, name: str) -> np.ndarray:
    """``value`` as a float array; ValueError, naming ``name``, for a
    value of another type, such as a JSON object."""
    try:
        return np.array(value, dtype=float)
    except TypeError:
        raise ValueError(f"{name} must be an array of numbers") from None


def _checked_moments(mean, cov, names: tuple[str, str]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A mean vector and covariance matrix, named ``names``, checked as
    the module docstring says: the read-only mean (k,), the symmetrized
    covariance (k, k) and its lower Cholesky factor; ValueError naming
    the failed check otherwise."""
    mean_name, cov_name = names
    mean = _float_array(mean, mean_name).ravel()
    cov = _float_array(cov, cov_name)
    if mean.size < 2:
        raise ValueError("n_assets >= 2 required")
    if cov.shape != (mean.size, mean.size):
        raise ValueError(f"{cov_name} must be k x k with k = len({mean_name})")
    if not np.all(np.isfinite(mean)) or not np.all(np.isfinite(cov)):
        raise ValueError(f"{mean_name} and {cov_name} must be finite")
    if np.max(np.abs(cov - cov.T)) > _SYMMETRY_RTOL * np.max(np.abs(cov)):
        raise ValueError(f"{cov_name} must be symmetric within relative tolerance 1e-10")
    cov = 0.5 * (cov + cov.T)
    (lower,), (ok,) = _spd_cholesky_rows(cov[None])
    if not ok:
        raise ValueError(f"{cov_name} is not positive definite")
    for arr in (mean, cov, lower):
        arr.flags.writeable = False
    return mean, cov, lower


@dataclass(frozen=True, eq=False)
class ReturnMatrix:
    """n_periods x n_assets matrix of simple returns."""

    values: np.ndarray
    asset_labels: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        values = _float_array(self.values, "returns")
        if values.ndim != 2:
            raise ValueError("returns must form a 2-d matrix")
        n, k = values.shape
        if n < 2:
            raise ValueError("n_periods >= 2 required")
        if k < 2:
            raise ValueError("n_assets >= 2 required")
        if not np.all(np.isfinite(values)):
            raise ValueError("returns must contain only finite values")
        labels = tuple(self.asset_labels) or tuple(
            f"asset_{j + 1}" for j in range(k)
        )
        if len(labels) != k:
            raise ValueError("asset_labels length must match n_assets")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "asset_labels", labels)

    @property
    def n_periods(self) -> int:
        return self.values.shape[0]

    @property
    def n_assets(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True, eq=False)
class MarketParams:
    """Mean vector and covariance matrix of gross returns.

    ``sigma`` must be symmetric (relative tolerance 1e-10) and positive
    definite; its lower Cholesky factor ``lower`` is computed once at
    construction and reused for every linear solve against sigma.
    """

    mu: np.ndarray
    sigma: np.ndarray
    lower: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        mu, sigma, lower = _checked_moments(self.mu, self.sigma, ("mu", "sigma"))
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "lower", lower)

    @property
    def k(self) -> int:
        return self.mu.size


def load_returns_csv(path) -> ReturnMatrix:
    """Load a comma-separated returns CSV: one row per period, one column
    per asset.

    The first row is a header of asset labels when it holds a cell that
    is not a finite real. Every other cell must parse as a finite real;
    ragged rows and bad cells are reported with their row/column position.
    """
    with Path(path).open(newline="", encoding="utf-8-sig") as fh:  # drops a byte-order mark
        raw = [row for row in csv.reader(fh) if any(cell.strip() for cell in row)]
    labels: tuple[str, ...] = ()
    if raw and _first_bad_cell(raw[:1], len(raw[0]), 1) is not None:
        labels = tuple(cell.strip() for cell in raw.pop(0))
    if not raw:
        raise ValueError("no data rows")
    if len(raw) == 1:
        raise ValueError("n_periods >= 2 required")

    k = len(raw[0])
    try:
        data = np.array([[float(cell) for cell in row] for row in raw if len(row) == k])
    except ValueError:  # a non-numeric cell
        data = None
    if data is None or len(data) < len(raw) or not np.isfinite(data).all():
        raise _first_bad_cell(raw, k, 2 if labels else 1)
    return ReturnMatrix(data, labels)


def _first_bad_cell(raw: list[list[str]], k: int, first_row: int) -> ValueError | None:
    """The error of the first ragged row or bad cell of ``raw`` (whose
    first row is file row ``first_row``), in reading order; None if
    there is none."""
    for row_no, row in enumerate(raw, start=first_row):
        if len(row) != k:
            return ValueError(f"ragged row {row_no}: expected {k} cells, found {len(row)}")
        for col_no, cell in enumerate(row, start=1):
            try:
                value = float(cell)
            except ValueError:
                return ValueError(
                    f"non-numeric cell at row {row_no}, column {col_no}: {cell.strip()!r}"
                )
            if not np.isfinite(value):
                return ValueError(
                    f"non-finite cell at row {row_no}, column {col_no}: {cell.strip()!r}"
                )


def sample_moments(returns: ReturnMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Sample mean (k,) and unbiased sample covariance (k, k) of a
    panel's gross returns, unchecked: with n <= k periods or collinear
    columns the covariance is singular."""
    dev = returns.values + 1.0
    mu = dev.mean(axis=0)
    dev -= mu
    sigma = dev.T @ dev / (returns.n_periods - 1)
    return mu, sigma


def estimate_params(returns: ReturnMatrix) -> MarketParams:
    """Sample mean and unbiased sample covariance of gross returns."""
    try:
        return MarketParams(*sample_moments(returns))
    except ValueError as exc:
        raise ValueError(_SINGULAR_MSG) from exc


def subset_rows(
    mu: np.ndarray, sigma: np.ndarray, subsets: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Restrict one panel's ``sample_moments`` ``mu`` (K,) and ``sigma``
    (K, K) to each of a stack of column subsets ``subsets`` (B, k), with
    one flag per subset in place of ``MarketParams``' error.

    Returns the subsets' gross means (B, k), covariances (B, k, k), their
    lower Cholesky factors (B, k, k) and ``ok`` (B,), False where the
    covariance is not positive definite by ``MarketParams``' pivot rule
    (those subsets get the identity as their factor). A subset's results
    are bitwise the same whatever else is in the stack.
    """
    sub_mu = mu[subsets]
    sub_sigma = sigma[subsets[:, :, None], subsets[:, None, :]]
    lower, ok = _spd_cholesky_rows(sub_sigma)
    return sub_mu, sub_sigma, lower, ok


@dataclass(frozen=True, eq=False)
class SynthSpec:
    """Specification of a synthetic i.i.d. normal market.

    ``mu0`` is the target mean of GROSS returns (simple returns are
    drawn with mean ``mu0 - 1``); ``sigma0`` their covariance, checked
    as ``MarketParams``' sigma is. ``n`` is an integer of at least 2.
    """

    n: int
    mu0: np.ndarray
    sigma0: np.ndarray

    def __post_init__(self) -> None:
        n = check_int(self.n, float("-inf"), "n must be an integer")
        if n < 2:
            raise ValueError("n_periods >= 2 required")
        mu0, sigma0, chol = _checked_moments(self.mu0, self.sigma0, ("mu0", "sigma0"))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "mu0", mu0)
        object.__setattr__(self, "sigma0", sigma0)
        object.__setattr__(self, "_chol", chol)

    @property
    def k(self) -> int:
        return self.mu0.size

    @classmethod
    def from_dict(cls, spec: dict) -> "SynthSpec":
        """The spec a JSON object with keys n, mu0, sigma0 (and optionally
        k) describes; ValueError for any other payload."""
        out = cls(*json_fields(spec, ("n", "mu0", "sigma0"), "synth spec"))
        if spec.get("k", out.k) != out.k:
            raise ValueError("k in spec does not match len(mu0)")
        return out


def json_fields(payload, keys: tuple[str, ...], what: str) -> tuple:
    """The values of ``keys`` in ``payload``, a parsed JSON object, in
    order; ValueError naming ``what`` if it is not an object or lacks
    any of them."""
    if not isinstance(payload, dict):
        raise ValueError(f"{what} must be a JSON object")
    missing = [key for key in keys if key not in payload]
    if missing:
        raise ValueError(f"{what} is missing {', '.join(missing)}")
    return tuple(payload[key] for key in keys)


def check_int(value, minimum, message: str) -> int:
    """``value`` as an int if it is a Python or numpy integer of at
    least ``minimum``; ValueError with ``message`` otherwise, for a
    float or a string too."""
    if not (isinstance(value, (int, np.integer)) and value >= minimum):
        raise ValueError(message)
    return int(value)


def check_seed(seed) -> int:
    """``check_int`` for a seed: a non-negative integer, the seeds
    numpy's generators take."""
    return check_int(seed, 0, "seed must be a non-negative integer")


def synth_market(spec: SynthSpec, seed: int) -> ReturnMatrix:
    """Draw n i.i.d. multivariate-normal return rows, deterministically."""
    check_seed(seed)
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((spec.n, spec.k))
    values = (spec.mu0 - 1.0) + z @ spec._chol.T
    return ReturnMatrix(values)
