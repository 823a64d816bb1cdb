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
sampled subsets (sized by their per-market arrays, so a default k is one
block). A block of B subsets gathers its means (B, k) and covariances
(B, k, k) and goes through the library's batch calls on arrays: Cholesky
factors and frontier constants (B,), the closed-form grid (B, G), whose
outcome codes degenerate and below-gamma_min markets, each market's
GMV and tilt returns over the whole panel (B, 2, n), from which the
realized gross returns of the solved cells only are written a chunk of
cells at a time into one workspace where Shapiro-Wilk tests their logs
in place, and the naive and Sharpe utilities (B, G). Each k's
first-k-assets market is stacked after its subsets and solved in their
last block; its row is placed on its frontier rather than tested. The
optimum at each gamma is
``w_gmv + t tilt`` and the Sharpe portfolio that line's gamma ->
infinity end ``w_gmv + (v_gmv / r_gmv) tilt``, so both come from the
market's one set of frontier constants. A market's
results are bitwise the same whatever block or chunk it runs in, and
agree with its own ``estimate_params`` solve to rounding.

Each k's p-value quantiles, one column per gamma, come from one
``quantile_columns`` call. The report keeps each table as columns, one
list per CSV column, and writes one CSV per table plus a JSON summary.
``csvout.write_csv`` formats a chunk of rows of each column at once, a
float by its repr and None as an empty cell, and joins the chunk's rows;
its bytes are those of the csv module's writer. The summary's
``error_counts`` counts each code of cell_errors per (k, gamma), its
``batches`` the run's ``blocks``, ``markets`` (subsets and first-k
markets) and Shapiro-Wilk chunks (``sw_chunks``), and its ``timings_s``
the seconds spent per stage; everything but ``timings_s`` and the
timestamp is deterministic given the seed (per-k subset draws use
independent child streams, so evaluation order never matters).
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

from .crra import OUTCOMES, _positive_finite, objective_rows, power_grid
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
from .stats import quantile_columns, shapiro_wilk_sorted

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

# Two budgets of this many values bound memory whatever the subset cap:
# that of a block's per-market arrays, (B, k, k), (B, 2, K), (B, 2, n)
# and (B, G), and that of the per-cell stage's workspace (C, n) of C
# solved cells. Each holds at least one market or cell. At 2**17 the
# workspace and its two (C, n) operands outgrew a 2 MiB L2 cache.
_BLOCK_VALUES = 2**16

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
        if not _positive_finite(self.gamma_grid):
            raise ValueError("gamma_grid entries must be positive and finite")
        if self.n_subsets_cap < 1:
            raise ValueError("n_subsets_cap must be at least 1")
        if not _positive_finite(self.w0):
            raise ValueError("w0 must be positive and finite")
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
    batches: dict = field(default_factory=dict)

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
            "batches": self.batches,
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
    subset market of a run; and the ``workspace`` (C, n) that every chunk
    of C cells' realized returns reuses."""
    mu, sigma = sample_moments(returns)
    n = returns.n_periods
    workspace = np.empty((max(1, _BLOCK_VALUES // n), n))
    return SimpleNamespace(gross=returns.values + 1.0, mu=mu, sigma=sigma, workspace=workspace)


def _solve_markets(
    panel: SimpleNamespace, subsets: np.ndarray, cfg: StudyConfig, clock: _Stopwatch
) -> SimpleNamespace:
    """Gather the moments of a stack of column subsets (B, k) of
    ``panel``, build their frontier constants and solve the gamma grid
    for every market.

    Returns each market's market-level ``code`` (an index into
    ``_CODES``, or -1 for the ``good`` markets), its ``mu``, ``sigma``,
    ``constants`` and ``grid``, and the good markets' ``solved`` cells and
    per-gamma ``codes``, (B, G) masks by name.
    """
    mu, sigma, lower, chol_ok = subset_rows(panel.mu, panel.sigma, subsets)
    clock.lap("estimate")
    constants = efficient_constants_rows(mu, lower)
    clock.lap("constants")
    gammas = np.array(cfg.gamma_grid)
    grid = power_grid(constants, gammas, cfg.w0)
    code = _FRONTIER_CODES[constants.outcome]
    degenerate = grid.outcome[:, 0] == OUTCOMES.index("degenerate_frontier")
    code[(code < 0) & degenerate] = _CODES.index("degenerate_frontier")
    code[~chol_ok] = _CODES.index("singular_covariance")
    good = code < 0
    solved = grid.ok & good[:, None]
    below = (grid.outcome == OUTCOMES.index("below_gamma_min")) & good[:, None]
    clock.lap("grid")
    return SimpleNamespace(
        gammas=gammas,
        code=code,
        good=good,
        mu=mu,
        sigma=sigma,
        constants=constants,
        grid=grid,
        solved=solved,
        codes={"below_gamma_min": below, "solve_failed": good[:, None] & ~below & ~solved},
    )


def _append_cells(table: dict, k: int, m: SimpleNamespace, rows: slice, subset_index: np.ndarray) -> None:
    """A cell_errors row per code of every cell of the markets ``rows``
    of ``_solve_markets``' markets ``m``, labelled ``subset_index``:
    market by market, gamma by gamma, and within a cell in the order of
    ``_CODES``."""
    none = np.zeros(m.solved.shape, dtype=bool)
    flags = np.stack([m.codes.get(c, none) for c in _CODES], axis=-1)[rows]
    code = m.code[rows]
    coded = np.flatnonzero(code >= 0)
    flags[coded, :, code[coded]] = True
    row, gi, ci = np.nonzero(flags)
    codes = [_CODES[c] for c in ci.tolist()]
    _append(table, row.size, k=k, subset_index=subset_index[row], gamma=m.gammas[gi], code=codes)


def _subsets_pass(
    tables: dict, batches: dict, k: int, panel: SimpleNamespace, markets: np.ndarray, cfg: StudyConfig,
    clock: _Stopwatch,
) -> None:
    """Solve one k's markets (S + 1, k) of ``panel``, its S sampled
    subsets and then its first-k-assets market, block by block; append
    their rows and count them into ``batches``."""
    (n_periods, n_assets), n_gammas = panel.gross.shape, len(cfg.gamma_grid)
    block = max(1, _BLOCK_VALUES // max(k * k, 2 * max(n_periods, n_assets), n_gammas))
    # The coded markets' rows, and the first-k market's, stay NaN, which
    # quantile_columns skips.
    p_values = np.full((len(markets), n_gammas), np.nan)
    n_eval, violated = 0, np.zeros((2, n_gammas), dtype=np.int64)
    batches["markets"] += len(markets)
    for first in range(0, len(markets), block):
        rows, first_k = slice(first, first + block), first + block >= len(markets)
        exists, mv_ok = _solve_block(
            tables, batches, k, panel, markets[rows], first, first_k, cfg, clock, p_values[rows]
        )
        n_eval += len(exists)
        violated += np.stack((~exists, ~(exists & mv_ok[:, None]))).sum(axis=1)
        batches["blocks"] += 1

    rate_gamma_min, rate_mv = ([f / n_eval if n_eval else None for f in row] for row in violated.tolist())
    _append(
        tables["condition_failure_rates"],
        n_gammas,
        k=k,
        gamma=list(cfg.gamma_grid),
        n_subsets=len(markets) - 1,
        n_evaluated=n_eval,
        rate_gamma_min_violated=rate_gamma_min,
        rate_mv_violated=rate_mv,
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
    tables: dict, batches: dict, k: int, panel: SimpleNamespace, subsets: np.ndarray, first: int,
    first_k: bool, cfg: StudyConfig, clock: _Stopwatch, p_values: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Solve a block of subsets (B, k) of ``panel``, the first of them
    subset ``first``, and append their cell and strategy rows; if
    ``first_k``, the last is the first-k-assets market, placed on its
    frontier instead. Writes the p-values of the tested cells into
    ``p_values`` (B, G), and returns, for the subsets without a
    market-level code, where gamma reaches gamma_min (B_good, G) and
    where r_gmv > 0 (B_good,). Counts its Shapiro-Wilk chunks into
    ``batches``."""
    m = _solve_markets(panel, subsets, cfg, clock)
    constants, grid, codes, gammas = m.constants, m.grid, m.codes, m.gammas
    n = len(subsets) - first_k  # the sampled subsets
    solved = m.solved & (np.arange(len(subsets)) < n)[:, None]

    n_periods = panel.gross.shape[0]
    if not 3 <= n_periods <= 5000:
        codes["sw_sample_size"] = solved
    else:
        # The solved cells' realized returns t * slope + base, a chunk at
        # a time in the one workspace; rows with a nonpositive return are
        # dropped, the others logged, sorted and tested in place.
        series = constants.period_returns(panel.gross, subsets)
        market, gi = np.nonzero(solved)
        positive = np.zeros_like(solved)
        chunk = len(panel.workspace)
        for lo in range(0, market.size, chunk):
            b, g = market[lo : lo + chunk], gi[lo : lo + chunk]
            rows = panel.workspace[: b.size]
            np.multiply(grid.t[b, g][:, None], series[b, 1], out=rows)
            rows += series[b, 0]
            clock.lap("realized_returns")
            above = rows.min(axis=1) > 0.0
            if not above.all():
                rows, b, g = rows[above], b[above], g[above]
            positive[b, g] = True
            np.log(rows, out=rows)
            rows.sort(axis=1)
            p_values[b, g] = shapiro_wilk_sorted(rows)[1]
            batches["sw_chunks"] += 1
            clock.lap("shapiro_wilk")
        codes["nonpositive_realized_gross_return"] = solved & ~positive
        codes["sw_degenerate"] = positive & np.isnan(p_values)

    naive_w = np.full(m.mu.shape, 1.0 / k)
    naive, naive_inside = objective_rows(naive_w, m.mu, m.sigma, gammas, cfg.w0)
    sharpe_w = constants.weights_at(constants.t_sharpe)
    sharpe_defined = feasible_rows(sharpe_w)
    sharpe, sharpe_inside = objective_rows(sharpe_w, m.mu, m.sigma, gammas, cfg.w0)
    clock.lap("utilities")
    codes["naive_outside_domain"] = solved & ~naive_inside[:, None]
    codes["sharpe_undefined"] = solved & ~sharpe_defined[:, None]
    codes["sharpe_outside_domain"] = solved & (sharpe_defined & ~sharpe_inside)[:, None]

    subset_index = first + np.arange(n)
    _append_cells(tables["cell_errors"], k, m, slice(n), subset_index)
    row, gi = np.nonzero(solved & (naive_inside & sharpe_defined & sharpe_inside)[:, None])
    _append(
        tables["strategy_utilities"],
        row.size,
        k=k,
        gamma=gammas[gi],
        subset_index=subset_index[row],
        utility_naive=naive[row, gi],
        utility_sharpe=sharpe[row, gi],
        utility_optimal=grid.utility[row, gi],
    )
    if first_k:
        _frontier_rows(tables, k, m, n, sharpe_w, sharpe_defined)
    good = m.good[:n]
    return ~codes["below_gamma_min"][:n][good], constants.r_gmv[:n][good] > 0.0


def _frontier_rows(
    tables: dict, k: int, m: SimpleNamespace, i: int, sharpe_w: np.ndarray, sharpe_defined: np.ndarray
) -> None:
    """Place the GMV, Sharpe (``sharpe_w``, where ``sharpe_defined``) and
    optimal portfolios of market ``i`` of ``_solve_markets``' markets
    ``m``, the first-k-assets market (subset_index -1), on its frontier."""
    cells, frontier = tables["cell_errors"], tables["frontier_locations"]
    if not m.good[i]:
        _append(cells, 1, k=k, subset_index=-1, gamma=None, code=_CODES[m.code[i]])
        return
    constants, grid, one = m.constants, m.grid, slice(i, i + 1)
    _append(frontier, 1, k=k, portfolio="gmv", gamma=None, x=constants.r_gmv[one], v=constants.v_gmv[one])
    if sharpe_defined[i]:
        x, v = portfolio_moments_rows(sharpe_w[one], m.mu[one], m.sigma[one])
        _append(frontier, 1, k=k, portfolio="sharpe", gamma=None, x=x, v=v)
    else:
        _append(cells, 1, k=k, subset_index=-1, gamma=None, code="sharpe_undefined")
    _append_cells(cells, k, m, one, np.array([-1]))
    on = np.flatnonzero(grid.ok[i])
    x, y = grid.x[i, on], grid.y[i, on]
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
    batches = dict.fromkeys(("blocks", "markets", "sw_chunks"), 0)
    for k in cfg.k_range:
        # The sampled subsets, then the first-k-assets market.
        subsets = _draw_subsets(returns.n_assets, k, cfg.n_subsets_cap, cfg.seed)
        markets = np.array(subsets + [tuple(range(k))])
        clock.lap()
        _subsets_pass(tables, batches, k, panel, markets, cfg, clock)
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
        batches=batches,
        **tables,
    )
    report.write(cfg.output_dir)
    return report
