"""Desk-scale study harness.

Draws capped random asset subsets from a returns panel (CSV or
synthetic), solves the closed-form optimal portfolio across a gamma
grid for each subset, screens the realized optimal-portfolio log gross
returns for normality, tracks how often the existence and efficiency
conditions fail, and compares the naive / Sharpe / optimal strategies
by their expected-utility samples. Per k it also places the GMV, Sharpe
and optimal portfolios of the first-k-assets market on its frontier.

The panel's gross means and covariance are estimated once per run; a
subset's are the matching entries of those, so no subset is
re-estimated. Each k is solved in batched passes over blocks of its
sampled subsets (sized so memory stays bounded whatever the cap). A
block of B subsets gathers its means (B, k) and covariances (B, k, k)
and goes through the library's batch calls on arrays: Cholesky factors,
frontier constants and gamma_min (B,), the closed-form grid (B, G), the
realized gross returns of every optimum (B, G, n) over the whole panel,
one Shapiro-Wilk call on every solved cell, and the naive and Sharpe
utilities (B, G). The first-k market is the same solve with B = 1. The
optimum at each gamma is ``w_gmv + t tilt`` and the Sharpe portfolio
that line's gamma -> infinity end ``w_gmv + (v_gmv / r_gmv) tilt``, so
both come from the market's one set of frontier constants. A market's
results are bitwise the same whatever block it runs in, and agree with
its own ``estimate_params`` solve to rounding.

Each k's p-value quantiles, one column per gamma, come from one
``quantile_columns`` call. The report keeps each table as columns, one
list per CSV column, and writes one CSV per table plus a JSON summary.
``csvout.write_csv`` formats a chunk of rows of each column at once, a
float by its repr and None as an empty cell, and joins the chunk's rows;
its bytes are those of the csv module's writer. The summary's ``error_counts``
counts each code of cell_errors per (k, gamma), and its ``timings_s``
holds the seconds spent per stage; everything else is deterministic
given the seed (per-k subset draws use independent child streams, so
evaluation order never matters).
"""

from __future__ import annotations

import json
import math
import time
from collections import Counter
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .crra import OUTCOMES, gamma_min, objective_rows, power_grid
from .csvout import write_csv
from .frontier import (
    FRONTIER_ERRORS,
    efficient_constants_rows,
    feasible_rows,
    portfolio_moments_rows,
)
from .market import (
    ReturnMatrix,
    SynthSpec,
    load_returns_csv,
    sample_moments,
    subset_rows,
    synth_market,
)
from .stats import quantile_columns, shapiro_wilk_rows

__all__ = ["StudyConfig", "StudyReport", "run_study", "default_synth_spec"]

SCHEMA_VERSION = "1"

_CSV_FILES = {
    "pvalue_quantiles": ("k", "gamma", "quantile", "n", "value"),
    "condition_failure_rates": (
        "k",
        "gamma",
        "n_subsets",
        "n_evaluated",
        "rate_gamma_min_violated",
        "rate_mv_violated",
    ),
    "frontier_locations": ("k", "portfolio", "gamma", "x", "v"),
    "strategy_utilities": (
        "k",
        "gamma",
        "subset_index",
        "utility_naive",
        "utility_sharpe",
        "utility_optimal",
    ),
    "cell_errors": ("k", "subset_index", "gamma", "code"),
}

# Cell codes, in the order a cell lists them. The first two, and
# solve_failed when it comes from the frontier constants, are
# market-level: they fill every gamma of a market, alone.
_CODES = (
    "singular_covariance",
    "degenerate_frontier",
    "below_gamma_min",
    "solve_failed",
    "sw_sample_size",
    "nonpositive_realized_gross_return",
    "sw_degenerate",
    "naive_outside_domain",
    "sharpe_undefined",
    "sharpe_outside_domain",
)
# Market-level code of each frontier outcome: a ValueError is a
# degenerate frontier, an ArithmeticError a failed solve.
_FRONTIER_CODES = np.array(
    [-1]
    + [
        _CODES.index("degenerate_frontier" if error is ValueError else "solve_failed")
        for error in FRONTIER_ERRORS[1:]
    ]
)

# Subsets are solved in blocks whose largest arrays, the realized returns
# (B, G, n), the covariances (B, k, k) and the full-width weights
# (B, 2, K) with their returns (B, 2, n), hold at most this many values,
# so memory stays bounded whatever the subset cap.
_BLOCK_VALUES = 2**17

# Stages timed into summary.json's timings_s.
_STAGES = ("estimate", "constants", "grid", "realized_returns", "shapiro_wilk", "utilities", "csv_write")


def default_synth_spec() -> SynthSpec:
    """Shipped synthetic calibration: 17 assets at weekly scale."""
    payload = json.loads(
        (Path(__file__).parent / "data" / "default_synth.json").read_text()
    )
    return SynthSpec.from_dict(payload)


@dataclass(frozen=True, eq=False)
class StudyConfig:
    """Configuration of one study run."""

    seed: int
    k_range: tuple[int, ...]
    gamma_grid: tuple[float, ...]
    output_dir: Path
    data_csv: Path | None = None
    synth: SynthSpec | None = None
    n_subsets_cap: int = 200
    w0: float = 1.0
    quantiles: tuple[float, ...] = (0.05, 0.25, 0.5)

    def __post_init__(self) -> None:
        object.__setattr__(self, "k_range", tuple(int(k) for k in self.k_range))
        object.__setattr__(self, "gamma_grid", tuple(float(g) for g in self.gamma_grid))
        object.__setattr__(self, "quantiles", tuple(float(q) for q in self.quantiles))
        object.__setattr__(self, "output_dir", Path(self.output_dir))
        if (self.data_csv is None) == (self.synth is None):
            raise ValueError("exactly one of data_csv / synth must be given")
        for name in ("k_range", "gamma_grid"):
            if not getattr(self, name):
                raise ValueError(f"{name} must not be empty")
        for name in ("k_range", "gamma_grid", "quantiles"):
            if len(set(getattr(self, name))) < len(getattr(self, name)):
                raise ValueError(f"{name} entries must be distinct")
        if any(k < 2 for k in self.k_range):
            raise ValueError("k_range entries must be >= 2")
        if any(not g > 0.0 for g in self.gamma_grid):
            raise ValueError("gamma_grid entries must be positive")
        if self.n_subsets_cap < 1:
            raise ValueError("n_subsets_cap must be at least 1")
        if not self.w0 > 0.0:
            raise ValueError("w0 must be positive")
        if any(not 0.0 <= q <= 1.0 for q in self.quantiles):
            raise ValueError("quantiles must lie in [0, 1]")


@dataclass(frozen=True, eq=False)
class StudyReport:
    """Aggregated study results plus per-cell error codes.

    Each table maps its CSV columns, in order, to equal-length lists of
    Python values (``None`` is an empty cell). ``timings_s`` holds the
    seconds spent per stage of the run that made the report.
    """

    metadata: dict
    pvalue_quantiles: dict = field(default_factory=dict)
    condition_failure_rates: dict = field(default_factory=dict)
    frontier_locations: dict = field(default_factory=dict)
    strategy_utilities: dict = field(default_factory=dict)
    cell_errors: dict = field(default_factory=dict)
    timings_s: dict = field(default_factory=dict)

    def write(self, output_dir: Path) -> dict[str, Path]:
        """Write one CSV per table plus summary.json; returns the paths.

        Each table's columns go through ``write_csv``. The time spent on
        the CSVs goes into ``timings_s["csv_write"]``.
        """
        start = time.perf_counter()
        output_dir = Path(output_dir)
        output_dir.mkdir(parents=True, exist_ok=True)
        paths: dict[str, Path] = {}
        counts: dict[str, int] = {}
        for name, header in _CSV_FILES.items():
            columns = [getattr(self, name).get(col, []) for col in header]
            counts[name] = len(columns[0])
            path = output_dir / f"{name}.csv"
            with path.open("w", newline="", encoding="utf-8") as fh:
                write_csv(fh, header, columns)
            paths[name] = path
        self.timings_s["csv_write"] = time.perf_counter() - start
        summary = {
            "schema_version": SCHEMA_VERSION,
            "metadata": self.metadata,
            "tables": {name: f"{name}.csv" for name in _CSV_FILES},
            "counts": counts,
            "error_counts": _error_counts(self.cell_errors),
            "timings_s": self.timings_s,
        }
        path = output_dir / "summary.json"
        path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
        paths["summary"] = path
        return paths


def _error_counts(cell_errors: dict) -> list[dict]:
    """The number of cell_errors rows of each code per (k, gamma), one
    record per pair in the order the pairs first appear (the frontier
    market's market-level rows have gamma None)."""
    tally = Counter(zip(*(cell_errors.get(col, []) for col in ("k", "gamma", "code"))))
    records: dict[tuple, dict] = {}
    for (k, gamma, code), count in tally.items():
        records.setdefault((k, gamma), {})[code] = count
    return [{"k": k, "gamma": gamma, "counts": codes} for (k, gamma), codes in records.items()]


def _append(table: dict, n_rows: int, /, **columns) -> None:
    """Append n_rows rows to a column table; a scalar fills its column."""
    for name, values in columns.items():
        if isinstance(values, np.ndarray):
            values = values.tolist()
        elif not isinstance(values, list):
            values = [values] * n_rows
        table[name].extend(values)


class _Stopwatch:
    """Seconds per stage, from ``time.perf_counter`` laps."""

    def __init__(self) -> None:
        self.seconds = dict.fromkeys(_STAGES, 0.0)
        self._last = time.perf_counter()

    def lap(self, stage: str | None = None) -> None:
        """Charge the time since the last lap to ``stage`` (None: to none)."""
        now = time.perf_counter()
        if stage is not None:
            self.seconds[stage] += now - self._last
        self._last = now


def _draw_subsets(n_assets: int, k: int, cap: int, seed: int) -> list[tuple[int, ...]]:
    """Seeded sampling of distinct k-subsets, without replacement. Up to
    100,000 subsets in all, it draws distinct ranks in their
    lexicographic order and unranks them; beyond that, it rejects
    repeated draws."""
    total = math.comb(n_assets, k)
    take = min(cap, total)
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(k,)))
    if total <= 100_000:
        chosen = np.sort(rng.choice(total, size=take, replace=False))
        return list(zip(*_unrank(chosen, n_assets, k, total).T.tolist()))
    seen: set[tuple[int, ...]] = set()
    out: list[tuple[int, ...]] = []
    while len(out) < take:
        pick = tuple(sorted(rng.choice(n_assets, size=k, replace=False).tolist()))
        if pick not in seen:
            seen.add(pick)
            out.append(pick)
    return out


def _unrank(ranks: np.ndarray, n: int, k: int, total: int) -> np.ndarray:
    """The k-subsets of range(n) at positions ``ranks`` of their
    lexicographic order (that of ``itertools.combinations``), as rows.

    Through the combinatorial number system: the subset at rank r has
    ``N = total - 1 - r = sum_i C(d_i, k - i)`` with ``d_i = n - 1 - c_i``
    strictly falling, so each d_i is the largest d with C(d, k - i) at
    most what is left of N. Binomials are clipped at ``total``, which
    keeps them exact where they are compared and subtracted.
    """
    binom = [np.ones(n, dtype=np.int64)]  # C(d, j) for d < n, j = 0..k
    for _ in range(k):
        binom.append(np.minimum(np.concatenate(([0], np.cumsum(binom[-1])[:-1])), total))
    rest = total - 1 - ranks
    out = np.empty((ranks.size, k), dtype=np.int64)
    for i in range(k):
        d = np.searchsorted(binom[k - i], rest, side="right") - 1
        rest = rest - binom[k - i][d]
        out[:, i] = n - 1 - d
    return out


def _load_source(cfg: StudyConfig) -> tuple[ReturnMatrix, str]:
    if cfg.data_csv is not None:
        return load_returns_csv(cfg.data_csv), f"csv:{cfg.data_csv}"
    return synth_market(cfg.synth, cfg.seed), f"synth:k={cfg.synth.k},n={cfg.synth.n}"


def _panel(returns: ReturnMatrix) -> SimpleNamespace:
    """A returns panel's ``gross`` returns (n, K) and their sample means
    ``mu`` (K,) and covariance ``sigma`` (K, K), estimated once for every
    subset market of a run."""
    mu, sigma = sample_moments(returns)
    return SimpleNamespace(gross=returns.values + 1.0, mu=mu, sigma=sigma)


def _solve_markets(
    panel: SimpleNamespace, subsets: np.ndarray, cfg: StudyConfig, clock: _Stopwatch
) -> SimpleNamespace:
    """Gather the moments of a stack of column subsets (B, k) of
    ``panel``, build their frontier constants, code the degenerate ones
    (where gamma_min is NaN), and solve the gamma grid for the others;
    their ``below_gamma_min`` codes are ``power_grid``'s outcome.

    Returns each market's market-level ``code`` (an index into
    ``_CODES``, or -1) and, for the ``good`` markets without one, their
    ``subsets``, ``mu``, ``sigma``, ``constants``, ``grid`` and per-gamma
    ``codes``, (B_good, G) masks by name.
    """
    mu, sigma, lower, chol_ok = subset_rows(panel.mu, panel.sigma, subsets)
    clock.lap("estimate")
    constants = efficient_constants_rows(mu, lower)
    code = _FRONTIER_CODES[constants.outcome]
    code[(code < 0) & np.isnan(gamma_min(constants))] = _CODES.index("degenerate_frontier")
    code[~chol_ok] = _CODES.index("singular_covariance")
    good = code < 0
    clock.lap("constants")
    gammas = np.array(cfg.gamma_grid)
    constants = constants[good]
    grid = power_grid(constants, gammas, cfg.w0)
    below = grid.outcome == OUTCOMES.index("below_gamma_min")
    clock.lap("grid")
    return SimpleNamespace(
        gammas=gammas,
        code=code,
        good=good,
        subsets=subsets[good],
        mu=mu[good],
        sigma=sigma[good],
        constants=constants,
        grid=grid,
        codes={"below_gamma_min": below, "solve_failed": ~below & ~grid.ok},
    )


def _append_cells(table: dict, k: int, m: SimpleNamespace, subset_index: np.ndarray) -> None:
    """A cell_errors row per code of every cell of ``_solve_markets``'
    markets ``m``: market by market, gamma by gamma, and within a cell in
    the order of ``_CODES``."""
    flags = np.zeros((m.code.size, m.gammas.size, len(_CODES)), dtype=bool)
    coded = np.flatnonzero(~m.good)
    flags[coded, :, m.code[coded]] = True
    none = np.zeros(m.grid.ok.shape, dtype=bool)
    flags[m.good] = np.stack([m.codes.get(c, none) for c in _CODES], axis=-1)
    row, gi, ci = np.nonzero(flags)
    codes = [_CODES[c] for c in ci.tolist()]
    _append(table, row.size, k=k, subset_index=subset_index[row], gamma=m.gammas[gi], code=codes)


def _subsets_pass(
    tables: dict, k: int, panel: SimpleNamespace, subsets: np.ndarray, cfg: StudyConfig, clock: _Stopwatch
) -> None:
    """Solve one k's subsets (B, k) of ``panel`` block by block and
    append their rows."""
    (n_periods, n_assets), n_gammas = panel.gross.shape, len(cfg.gamma_grid)
    per_market = max(n_gammas * n_periods, k * k, 2 * max(n_periods, n_assets))
    block = max(1, _BLOCK_VALUES // per_market)
    blocks = [
        _solve_block(tables, k, panel, subsets[i : i + block], i, cfg, clock)
        for i in range(0, len(subsets), block)
    ]
    exists, mv_ok, p_values = (np.concatenate(parts) for parts in zip(*blocks))

    n_eval = len(exists)
    fails = {"rate_gamma_min_violated": ~exists, "rate_mv_violated": ~(exists & mv_ok[:, None])}
    _append(
        tables["condition_failure_rates"],
        n_gammas,
        k=k,
        gamma=list(cfg.gamma_grid),
        n_subsets=len(subsets),
        n_evaluated=n_eval,
        **{
            name: [f / n_eval if n_eval else None for f in mask.sum(axis=0).tolist()]
            for name, mask in fails.items()
        },
    )
    n_levels = len(cfg.quantiles)
    n, values = quantile_columns(p_values, cfg.quantiles)
    n = np.repeat(n, n_levels).tolist()
    values = [v if count else None for count, v in zip(n, values.T.ravel().tolist())]
    _append(
        tables["pvalue_quantiles"],
        n_gammas * n_levels,
        k=k,
        gamma=np.repeat(cfg.gamma_grid, n_levels),
        quantile=list(cfg.quantiles) * n_gammas,
        n=n,
        value=values,
    )


def _solve_block(
    tables: dict, k: int, panel: SimpleNamespace, subsets: np.ndarray, first: int, cfg: StudyConfig,
    clock: _Stopwatch,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Solve a block of subsets (B, k) of ``panel``, the first of them
    subset ``first``, and append their cell and strategy rows. Returns,
    for the markets without a market-level code, where gamma reaches
    gamma_min (B_good, G), where r_gmv > 0 (B_good,) and the p-values of
    the tested cells (B_good, G; NaN elsewhere)."""
    m = _solve_markets(panel, subsets, cfg, clock)
    constants, grid, codes, gammas = m.constants, m.grid, m.codes, m.gammas
    solved = grid.ok

    p_values = np.full(solved.shape, np.nan)
    if not 3 <= panel.gross.shape[0] <= 5000:
        codes["sw_sample_size"] = solved
    else:
        realized = constants.returns_at(panel.gross, m.subsets, grid.t)[solved]
        clock.lap("realized_returns")
        positive = solved.copy()
        positive[solved] = realized.min(axis=-1) > 0.0
        realized = realized[positive[solved]]
        p_values[positive] = shapiro_wilk_rows(np.log(realized, out=realized))[1]
        clock.lap("shapiro_wilk")
        codes["nonpositive_realized_gross_return"] = solved & ~positive
        codes["sw_degenerate"] = positive & np.isnan(p_values)

    n_good, n_assets = m.mu.shape
    naive_w = np.full((n_good, n_assets), 1.0 / n_assets)
    naive, naive_inside = objective_rows(naive_w, m.mu, m.sigma, gammas, cfg.w0)
    sharpe_w = constants.weights_at(constants.t_sharpe)
    sharpe_defined = feasible_rows(sharpe_w)
    sharpe, sharpe_inside = objective_rows(sharpe_w, m.mu, m.sigma, gammas, cfg.w0)
    clock.lap("utilities")
    codes["naive_outside_domain"] = solved & ~naive_inside[:, None]
    codes["sharpe_undefined"] = solved & ~sharpe_defined[:, None]
    codes["sharpe_outside_domain"] = solved & (sharpe_defined & ~sharpe_inside)[:, None]

    subset_index = first + np.arange(m.code.size)
    _append_cells(tables["cell_errors"], k, m, subset_index)
    row, gi = np.nonzero(solved & (naive_inside & sharpe_defined & sharpe_inside)[:, None])
    _append(
        tables["strategy_utilities"],
        row.size,
        k=k,
        gamma=gammas[gi],
        subset_index=subset_index[m.good][row],
        utility_naive=naive[row, gi],
        utility_sharpe=sharpe[row, gi],
        utility_optimal=grid.utility[row, gi],
    )
    return ~codes["below_gamma_min"], constants.r_gmv > 0.0, p_values


def _frontier_pass(tables: dict, k: int, panel: SimpleNamespace, cfg: StudyConfig, clock: _Stopwatch) -> None:
    """Place the GMV, Sharpe and optimal portfolios of the first-k-assets
    market of ``panel`` (subset_index -1) on its frontier."""
    m = _solve_markets(panel, np.arange(k)[None], cfg, clock)
    cells, frontier = tables["cell_errors"], tables["frontier_locations"]
    if not m.good[0]:
        _append(cells, 1, k=k, subset_index=-1, gamma=None, code=_CODES[m.code[0]])
        return
    constants, grid = m.constants, m.grid
    _append(frontier, 1, k=k, portfolio="gmv", gamma=None, x=constants.r_gmv, v=constants.v_gmv)
    sharpe_w = constants.weights_at(constants.t_sharpe)
    if feasible_rows(sharpe_w)[0]:
        x, v = portfolio_moments_rows(sharpe_w, m.mu, m.sigma)
        _append(frontier, 1, k=k, portfolio="sharpe", gamma=None, x=x, v=v)
    else:
        _append(cells, 1, k=k, subset_index=-1, gamma=None, code="sharpe_undefined")
    _append_cells(cells, k, m, np.array([-1]))
    on = np.flatnonzero(grid.ok[0])
    x, y = grid.x[0, on], grid.y[0, on]
    _append(frontier, on.size, k=k, portfolio="optimal", gamma=m.gammas[on], x=x, v=y - x * x)


def run_study(cfg: StudyConfig) -> StudyReport:
    """Run the full pipeline and write its outputs to cfg.output_dir."""
    returns, source = _load_source(cfg)
    if any(k > returns.n_assets for k in cfg.k_range):
        raise ValueError("k_range exceeds the number of assets in the data")

    clock = _Stopwatch()
    panel = _panel(returns)
    clock.lap("estimate")
    tables = {name: {col: [] for col in header} for name, header in _CSV_FILES.items()}
    for k in cfg.k_range:
        subsets = np.array(_draw_subsets(returns.n_assets, k, cfg.n_subsets_cap, cfg.seed))
        clock.lap()
        _subsets_pass(tables, k, panel, subsets, cfg, clock)
        clock.lap()
        _frontier_pass(tables, k, panel, cfg, clock)
        clock.lap()

    report = StudyReport(
        metadata={
            "source": source,
            "seed": cfg.seed,
            "n_assets": returns.n_assets,
            "n_periods": returns.n_periods,
            "k_range": list(cfg.k_range),
            "gamma_grid": list(cfg.gamma_grid),
            "n_subsets_cap": cfg.n_subsets_cap,
            "w0": cfg.w0,
            "quantiles": list(cfg.quantiles),
            "timestamp": datetime.now(timezone.utc).isoformat(),
        },
        timings_s=clock.seconds,
        **tables,
    )
    report.write(cfg.output_dir)
    return report
