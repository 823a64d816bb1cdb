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
sampled subsets, its first-k-assets market stacked after them (blocks
are sized by their per-market arrays, so a default k is one block). A
block of B markets gathers its means (B, k) and covariances (B, k, k)
and goes through the library's batch calls on arrays: Cholesky factors
and frontier constants (B,), the closed-form grid (B, G), whose outcome
codes degenerate and below-gamma_min markets, each market's GMV and
tilt returns over the whole panel (B, 2, n), from which the realized
gross returns of the solved cells only are written a chunk of cells at
a time into one workspace where Shapiro-Wilk tests their logs in place,
and the utilities (B, G). Blocks only compute and return per-market
arrays; each k's tables are appended once from their concatenation,
the first-k market placed on its frontier rather than tested. The
optimum at each gamma is ``w_gmv + t tilt`` and the Sharpe portfolio
that line's gamma -> infinity end, t = v_gmv / r_gmv, whose mean
``r_gmv + s t`` and variance ``v_gmv + s t^2`` come from the constants:
every strategy is scored from its moments. A market's results are
bitwise the same whatever block or chunk it runs in, and agree with its
own ``estimate_params`` solve to rounding.

Each k's p-value quantiles, one column per gamma, come from one
``quantile_columns`` call. The report keeps each table as columns: a
numeric column as one float64 or int64 array, a column of text or one
that can hold None (``code``, ``portfolio``, the gamma of the frontier
and cell-error rows, the quantile values and the failure rates) as one
list. Each k appends its rows as parts of each column, and each
column's parts are joined once when the report is built. The report
writes one CSV per table plus a JSON summary. ``csvout.write_csv`` is
the only place numbers become text: it formats a chunk of rows of each
column at once (an array chunk through its ``.tolist()``), a float by
its repr and None as an empty cell, and joins the chunk's rows; its
bytes are those of the csv module's writer. The summary's
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
from itertools import chain
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .crra import OUTCOMES, _positive_finite, objective_rows, power_grid
from .csvout import column_values, write_csv
from .frontier import efficient_constants_rows, portfolio_moments_rows
from .market import (
    ReturnMatrix,
    SynthSpec,
    check_int,
    check_seed,
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

# Cell codes, in the order a cell lists them. The first two are
# market-level: they fill every gamma of a market, alone, and every
# failed check of the frontier constants is a degenerate frontier. The
# last only ever labels a first-k market's one row without a gamma.
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
        k_range = tuple(check_int(k, 2, "k_range entries must be integers of at least 2") for k in self.k_range)
        object.__setattr__(self, "k_range", k_range)
        object.__setattr__(self, "gamma_grid", tuple(float(g) for g in self.gamma_grid))
        object.__setattr__(self, "quantiles", tuple(float(q) for q in self.quantiles))
        object.__setattr__(self, "output_dir", Path(self.output_dir))
        if (self.data_csv is None) == (self.synth is None):
            raise ValueError("exactly one of data_csv / synth must be given")
        object.__setattr__(self, "seed", check_seed(self.seed))
        for name in ("k_range", "gamma_grid"):
            if not getattr(self, name):
                raise ValueError(f"{name} must not be empty")
        for name in ("k_range", "gamma_grid", "quantiles"):
            if len(set(getattr(self, name))) < len(getattr(self, name)):
                raise ValueError(f"{name} entries must be distinct")
        if not _positive_finite(self.gamma_grid):
            raise ValueError("gamma_grid entries must be positive and finite")
        cap = check_int(self.n_subsets_cap, 1, "n_subsets_cap must be an integer of at least 1")
        object.__setattr__(self, "n_subsets_cap", cap)
        if not _positive_finite(self.w0):
            raise ValueError("w0 must be positive and finite")
        if any(not 0.0 <= q <= 1.0 for q in self.quantiles):
            raise ValueError("quantiles must lie in [0, 1]")


@dataclass(frozen=True, eq=False)
class StudyReport:
    """Aggregated study results plus per-cell error codes.

    Each table maps its CSV columns, in order, to equal-length columns:
    a numeric column is a 1-d float64 or int64 array, any other a list
    of Python values (``None`` is an empty cell). ``timings_s`` holds
    the seconds spent per stage of the run that made the report.
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
    tally = Counter(zip(*(column_values(cell_errors.get(col, [])) for col in ("k", "gamma", "code"))))
    records: dict[tuple, dict] = {}
    for (k, gamma, code), count in tally.items():
        records.setdefault((k, gamma), {})[code] = count
    return [{"k": k, "gamma": gamma, "counts": codes} for (k, gamma), codes in records.items()]


def _append(table: dict, n_rows: int, /, **columns) -> None:
    """Append n_rows rows to a table of column parts. A number fills an
    array part, text or None a list part; an array or a list is a part."""
    for name, values in columns.items():
        if isinstance(values, (int, float)):
            values = np.full(n_rows, values)
        elif not isinstance(values, (np.ndarray, list)):
            values = [values] * n_rows
        table[name].append(values)


def _joined(parts: list):
    """A column from its parts: one typed array when every part is an
    array, else one list of Python values."""
    if parts and all(isinstance(part, np.ndarray) for part in parts):
        return np.concatenate(parts)
    return list(chain.from_iterable(map(column_values, parts)))


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


def _draw_subsets(n_assets: int, k: int, cap: int, seed: int) -> np.ndarray:
    """Seeded sampling of distinct k-subsets, without replacement, as
    the rows of an int64 array (take, k), each in ascending order. Up
    to 100,000 subsets in all, it draws distinct ranks in their
    lexicographic order and unranks them; beyond that, it rejects
    repeated draws."""
    total = math.comb(n_assets, k)
    take = min(cap, total)
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(k,)))
    if total <= 100_000:
        chosen = np.sort(rng.choice(total, size=take, replace=False))
        return _unrank(chosen, n_assets, k, total)
    seen: set[tuple[int, ...]] = set()
    out: list[tuple[int, ...]] = []
    while len(out) < take:
        pick = tuple(sorted(rng.choice(n_assets, size=k, replace=False).tolist()))
        if pick not in seen:
            seen.add(pick)
            out.append(pick)
    return np.array(out, dtype=np.int64)


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


def _subsets_pass(
    tables: dict, batches: dict, k: int, panel: SimpleNamespace, markets: np.ndarray, cfg: StudyConfig,
    clock: _Stopwatch,
) -> None:
    """Solve one k's markets (S + 1, k) of ``panel``, its S sampled
    subsets and then its first-k-assets market, block by block, count
    them into ``batches`` and append k's rows to every table once, from
    the blocks' per-market arrays."""
    (n_periods, n_assets), gammas = panel.gross.shape, np.array(cfg.gamma_grid)
    block = max(1, _BLOCK_VALUES // max(k * k, 2 * max(n_periods, n_assets), gammas.size))
    n = len(markets) - 1
    tested = np.arange(len(markets)) < n
    parts = [
        _solve_block(panel, markets[lo : lo + block], tested[lo : lo + block], cfg, clock, batches)
        for lo in range(0, len(markets), block)
    ]
    batches["markets"] += len(markets)
    batches["blocks"] += len(parts)
    m = SimpleNamespace(**{name: np.concatenate([part[name] for part in parts]) for name in parts[0]})

    _append_cells(tables["cell_errors"], k, gammas, m.flags[:n], np.arange(n))
    row, gi = np.nonzero(m.scored)
    _append(
        tables["strategy_utilities"],
        row.size,
        k=k,
        gamma=gammas[gi],
        subset_index=row,
        utility_naive=m.naive[row, gi],
        utility_sharpe=m.sharpe[row, gi],
        utility_optimal=m.optimal[row, gi],
    )
    # The rates count the tested subsets without a market-level code.
    good = tested & (m.code < 0)
    below = m.flags[good, :, _CODES.index("below_gamma_min")]
    violated = np.stack((below, below | ~(m.r_gmv[good] > 0.0)[:, None])).sum(axis=1)
    n_eval = int(np.count_nonzero(good))
    rate_gamma_min, rate_mv = ([f / n_eval if n_eval else None for f in row] for row in violated.tolist())
    _append(
        tables["condition_failure_rates"],
        gammas.size,
        k=k,
        gamma=gammas,
        n_subsets=n,
        n_evaluated=n_eval,
        rate_gamma_min_violated=rate_gamma_min,
        rate_mv_violated=rate_mv,
    )
    # The untested cells' p-values are NaN, which quantile_columns skips.
    n_levels = len(cfg.quantiles)
    count, values = quantile_columns(m.p, cfg.quantiles)
    count = np.repeat(count, n_levels)
    values = [v if c else None for c, v in zip(count.tolist(), values.T.ravel().tolist())]
    _append(
        tables["pvalue_quantiles"],
        gammas.size * n_levels,
        k=k,
        gamma=np.repeat(gammas, n_levels),
        quantile=np.tile(cfg.quantiles, gammas.size),
        n=count,
        value=values,
    )
    _frontier_rows(tables, k, gammas, m, n)


def _solve_block(
    panel: SimpleNamespace, subsets: np.ndarray, tested: np.ndarray, cfg: StudyConfig, clock: _Stopwatch,
    batches: dict,
) -> dict:
    """Solve a block of markets, column subsets (B, k) of ``panel``, over
    the gamma grid (G,); test and score the solved cells of the markets
    ``tested`` (B,) marks, and count Shapiro-Wilk chunks into ``batches``.

    Returns per-market arrays by name: the market-level ``code`` (B,)
    (an index into ``_CODES``, or -1), the cell ``flags`` (B, G, C) in
    ``_CODES`` order, the p-values ``p`` (NaN where untested), the
    ``naive``, ``sharpe`` and ``optimal`` utilities and the ``scored``
    cells (B, G), and the frontier inputs ``r_gmv``, ``v_gmv``,
    ``sharpe_x``, ``sharpe_v`` (B,) and the grid's ``ok``, ``x``, ``v``.
    """
    mu, sigma, lower, chol_ok = subset_rows(panel.mu, panel.sigma, subsets)
    clock.lap("estimate")
    constants = efficient_constants_rows(mu, lower)
    clock.lap("constants")
    grid = power_grid(constants, cfg.gamma_grid, cfg.w0)
    # The grid codes a degenerate frontier on every cell of a market that
    # the frontier rejected (its constants are NaN).
    degenerate = grid.outcome[:, 0] == OUTCOMES.index("degenerate_frontier")
    code = np.where(degenerate, _CODES.index("degenerate_frontier"), -1)
    code[~chol_ok] = _CODES.index("singular_covariance")
    good = (code < 0)[:, None]
    below = (grid.outcome == OUTCOMES.index("below_gamma_min")) & good
    codes = {"below_gamma_min": below, "solve_failed": good & ~below & ~grid.ok}
    solved = grid.ok & good & tested[:, None]
    clock.lap("grid")

    p = np.full(solved.shape, np.nan)
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
            p[b, g] = shapiro_wilk_sorted(rows)[1]
            batches["sw_chunks"] += 1
            clock.lap("shapiro_wilk")
        codes["nonpositive_realized_gross_return"] = solved & ~positive
        codes["sw_degenerate"] = positive & np.isnan(p)

    # The naive portfolio's moments from its weights; the Sharpe
    # portfolio's from the constants, at t_sharpe = v_gmv / r_gmv on the
    # frontier. A solved cell has r_gmv > 0, so its Sharpe mean exceeds
    # r_gmv: only the naive portfolio can leave the domain.
    naive_x, naive_v = portfolio_moments_rows(np.full(mu.shape, 1.0 / mu.shape[-1]), mu, sigma)
    naive, naive_inside = objective_rows(naive_x, naive_v, cfg.gamma_grid, cfg.w0)
    t, s = constants.t_sharpe, constants.s
    with np.errstate(all="ignore"):  # r_gmv = 0 gives an infinite t
        sharpe_x, sharpe_v = constants.r_gmv + s * t, constants.v_gmv + s * t * t
    sharpe = objective_rows(sharpe_x, sharpe_v, cfg.gamma_grid, cfg.w0)[0]
    clock.lap("utilities")
    codes["naive_outside_domain"] = solved & ~naive_inside[:, None]

    none = np.zeros(solved.shape, dtype=bool)
    flags = np.stack([codes.get(c, none) for c in _CODES], axis=-1)
    coded = np.flatnonzero(code >= 0)
    flags[coded, :, code[coded]] = True
    return dict(
        code=code, flags=flags, p=p, naive=naive, sharpe=sharpe, optimal=grid.utility,
        scored=solved & naive_inside[:, None], r_gmv=constants.r_gmv, v_gmv=constants.v_gmv,
        sharpe_x=sharpe_x, sharpe_v=sharpe_v, ok=grid.ok, x=grid.x, v=grid.y - grid.x * grid.x,
    )


def _append_cells(
    table: dict, k: int, gammas: np.ndarray, flags: np.ndarray, subset_index: np.ndarray
) -> None:
    """A cell_errors row per flag of ``flags`` (M, G, C), the markets
    labelled ``subset_index`` (M,): market by market, gamma by gamma, and
    within a cell in the order of ``_CODES``."""
    row, gi, ci = np.nonzero(flags)
    codes = [_CODES[c] for c in ci.tolist()]
    _append(table, row.size, k=k, subset_index=subset_index[row], gamma=gammas[gi], code=codes)


def _frontier_rows(tables: dict, k: int, gammas: np.ndarray, m: SimpleNamespace, i: int) -> None:
    """Place the GMV, Sharpe and optimal portfolios of market ``i`` of
    the markets ``m``, the first-k-assets market (subset_index -1), on
    its frontier; the Sharpe portfolio is undefined where its moments are
    not finite (r_gmv = 0). A market with a market-level code gets that
    one row instead."""
    cells, frontier = tables["cell_errors"], tables["frontier_locations"]
    if m.code[i] >= 0:
        _append(cells, 1, k=k, subset_index=-1, gamma=None, code=_CODES[m.code[i]])
        return
    one = slice(i, i + 1)
    _append(frontier, 1, k=k, portfolio="gmv", gamma=None, x=m.r_gmv[one], v=m.v_gmv[one])
    if np.isfinite(m.sharpe_x[i]) and np.isfinite(m.sharpe_v[i]):
        _append(frontier, 1, k=k, portfolio="sharpe", gamma=None, x=m.sharpe_x[one], v=m.sharpe_v[one])
    else:
        _append(cells, 1, k=k, subset_index=-1, gamma=None, code="sharpe_undefined")
    _append_cells(cells, k, gammas, m.flags[one], np.array([-1]))
    on = np.flatnonzero(m.ok[i])
    _append(frontier, on.size, k=k, portfolio="optimal", gamma=gammas[on], x=m.x[i, on], v=m.v[i, on])


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
        markets = np.vstack((subsets, np.arange(k)))
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
        # Each column's parts are dropped as it is joined.
        **{name: {col: _joined(tables[name].pop(col)) for col in header} for name, header in _CSV_FILES.items()},
    )
    report.write(cfg.output_dir)
    return report
