"""Desk-scale study harness.

Draws capped random asset subsets from a returns panel (CSV or
synthetic), solves the closed-form optimal portfolio across a gamma
grid for each subset, screens the realized optimal-portfolio log gross
returns for normality, tracks how often the existence and efficiency
conditions fail, and compares the naive / Sharpe / optimal strategies
by their expected-utility samples. Emits one CSV per table plus a JSON
summary; everything is deterministic given the seed (per-k subset
draws use independent child streams, so evaluation order never matters).
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .crra import OUTCOMES, gamma_min, objective_value, power_grid
from .frontier import Weights, efficient_constants, portfolio_moments, sharpe_weights
from .market import ReturnMatrix, SynthSpec, estimate_params, load_returns_csv, synth_market
from .stats import quantile, shapiro_wilk_rows

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
        if not self.k_range or any(k < 2 for k in self.k_range):
            raise ValueError("k_range entries must be >= 2")
        if not self.gamma_grid or any(g <= 0.0 for g in self.gamma_grid):
            raise ValueError("gamma_grid entries must be positive")
        if self.n_subsets_cap < 1:
            raise ValueError("n_subsets_cap must be at least 1")
        if self.w0 <= 0.0:
            raise ValueError("w0 must be positive")
        if any(not 0.0 <= q <= 1.0 for q in self.quantiles):
            raise ValueError("quantiles must lie in [0, 1]")


@dataclass(frozen=True, eq=False)
class StudyReport:
    """Aggregated study results plus per-cell error codes."""

    metadata: dict
    pvalue_quantiles: list = field(default_factory=list)
    condition_failure_rates: list = field(default_factory=list)
    frontier_locations: list = field(default_factory=list)
    strategy_utilities: list = field(default_factory=list)
    cell_errors: list = field(default_factory=list)

    def write(self, output_dir: Path) -> dict[str, Path]:
        """Write one CSV per table plus summary.json; returns the paths."""
        output_dir = Path(output_dir)
        output_dir.mkdir(parents=True, exist_ok=True)
        paths: dict[str, Path] = {}
        for name, header in _CSV_FILES.items():
            path = output_dir / f"{name}.csv"
            with path.open("w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(header)
                for row in getattr(self, name):
                    writer.writerow([_cell_str(row[col]) for col in header])
            paths[name] = path
        summary = {
            "schema_version": SCHEMA_VERSION,
            "metadata": self.metadata,
            "tables": {name: f"{name}.csv" for name in _CSV_FILES},
            "counts": {name: len(getattr(self, name)) for name in _CSV_FILES},
        }
        path = output_dir / "summary.json"
        path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
        paths["summary"] = path
        return paths


def _cell_str(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))  # plain-float repr even for numpy scalars
    return str(value)


def _draw_subsets(n_assets: int, k: int, cap: int, seed: int) -> list[tuple[int, ...]]:
    """Seeded sampling of distinct k-subsets, without replacement."""
    total = math.comb(n_assets, k)
    take = min(cap, total)
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(k,)))
    if total <= 100_000:
        combos = list(itertools.combinations(range(n_assets), k))
        chosen = np.sort(rng.choice(total, size=take, replace=False))
        return [combos[i] for i in chosen]
    seen: set[tuple[int, ...]] = set()
    out: list[tuple[int, ...]] = []
    while len(out) < take:
        pick = tuple(sorted(rng.choice(n_assets, size=k, replace=False).tolist()))
        if pick not in seen:
            seen.add(pick)
            out.append(pick)
    return out


def _load_source(cfg: StudyConfig) -> tuple[ReturnMatrix, str]:
    if cfg.data_csv is not None:
        return load_returns_csv(cfg.data_csv), f"csv:{cfg.data_csv}"
    return synth_market(cfg.synth, cfg.seed), f"synth:k={cfg.synth.k},n={cfg.synth.n}"


def _code_cells(
    errors: list, k: int, si: int, gammas: tuple[float, ...], masks: dict[str, np.ndarray]
) -> None:
    """Append a cell_errors row for every (gamma, code) whose mask is set:
    gamma by gamma, and within a gamma in the order of ``masks``."""
    codes = list(masks)
    gi_idx, code_idx = np.nonzero(np.column_stack(list(masks.values())))
    for gi, ci in zip(gi_idx.tolist(), code_idx.tolist()):
        errors.append({"k": k, "subset_index": si, "gamma": gammas[gi], "code": codes[ci]})


def _strategy_utilities(
    weights: Weights | None, params, gammas: np.ndarray, w0: float
) -> np.ndarray | None:
    """A fixed portfolio's expected utility at every gamma, or None when
    the portfolio is undefined or outside the objective's domain."""
    if weights is None:
        return None
    try:
        return objective_value(weights, params, gammas, w0)
    except ValueError:
        return None


def run_study(cfg: StudyConfig) -> StudyReport:
    """Run the full pipeline and write its outputs to cfg.output_dir."""
    returns, source = _load_source(cfg)
    if any(k > returns.n_assets for k in cfg.k_range):
        raise ValueError("k_range exceeds the number of assets in the data")
    sw_ok = 3 <= returns.n_periods <= 5000

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
        }
    )
    gammas = np.array(cfg.gamma_grid)
    everywhere = np.ones(gammas.size, dtype=bool)

    for k in cfg.k_range:
        subsets = _draw_subsets(returns.n_assets, k, cfg.n_subsets_cap, cfg.seed)
        pvals: list[list[float]] = [[] for _ in cfg.gamma_grid]
        gamma_fail = np.zeros(gammas.size, dtype=int)
        mv_fail = np.zeros(gammas.size, dtype=int)
        n_eval = 0

        for si, sub in enumerate(subsets):
            sub_values = returns.values[:, list(sub)]
            try:
                params = estimate_params(ReturnMatrix(sub_values))
            except ValueError:
                _code_cells(report.cell_errors, k, si, cfg.gamma_grid, {"singular_covariance": everywhere})
                continue
            try:
                constants = efficient_constants(params)
                gm = gamma_min(constants)
            except ValueError:
                _code_cells(report.cell_errors, k, si, cfg.gamma_grid, {"degenerate_frontier": everywhere})
                continue
            except ArithmeticError:
                _code_cells(report.cell_errors, k, si, cfg.gamma_grid, {"solve_failed": everywhere})
                continue

            n_eval += 1
            exists = gammas >= gm
            gamma_fail += ~exists
            mv_fail += ~(exists & (constants.r_gmv > 0.0))
            grid = power_grid(constants, gammas, cfg.w0)
            solved = exists & grid.ok
            masks = {"below_gamma_min": ~exists, "solve_failed": exists & ~grid.ok}

            if not sw_ok:
                masks["sw_sample_size"] = solved
            elif solved.any():
                # Every optimum is the frontier portfolio w_gmv + t tilt, so
                # two mat-vecs give the realized gross returns at every gamma.
                gross = sub_values + 1.0
                realized = np.outer(grid.t[solved], gross @ constants.tilt) + gross @ constants.w_gmv.w
                positive = solved.copy()
                positive[solved] = realized.min(axis=1) > 0.0
                p_values = np.full(gammas.size, np.nan)
                p_values[positive] = shapiro_wilk_rows(np.log(realized[positive[solved]]))[1]
                tested = positive & ~np.isnan(p_values)
                masks["nonpositive_realized_gross_return"] = solved & ~positive
                masks["sw_degenerate"] = positive & ~tested
                for gi in np.flatnonzero(tested).tolist():
                    pvals[gi].append(float(p_values[gi]))

            try:
                sharpe_w = sharpe_weights(params)
            except ValueError:
                sharpe_w = None
            naive = _strategy_utilities(Weights(np.full(k, 1.0 / k)), params, gammas, cfg.w0)
            sharpe = _strategy_utilities(sharpe_w, params, gammas, cfg.w0)
            masks["naive_outside_domain"] = solved & (naive is None)
            masks["sharpe_undefined"] = solved & (sharpe_w is None)
            masks["sharpe_outside_domain"] = solved & (sharpe_w is not None and sharpe is None)
            _code_cells(report.cell_errors, k, si, cfg.gamma_grid, masks)

            if naive is not None and sharpe is not None:
                optimal = grid.utility.tolist()
                naive, sharpe = naive.tolist(), sharpe.tolist()
                for gi in np.flatnonzero(solved).tolist():
                    report.strategy_utilities.append(
                        {
                            "k": k,
                            "gamma": cfg.gamma_grid[gi],
                            "subset_index": si,
                            "utility_naive": naive[gi],
                            "utility_sharpe": sharpe[gi],
                            "utility_optimal": optimal[gi],
                        }
                    )

        for gi, g in enumerate(cfg.gamma_grid):
            report.condition_failure_rates.append(
                {
                    "k": k,
                    "gamma": g,
                    "n_subsets": len(subsets),
                    "n_evaluated": n_eval,
                    "rate_gamma_min_violated": int(gamma_fail[gi]) / n_eval if n_eval else None,
                    "rate_mv_violated": int(mv_fail[gi]) / n_eval if n_eval else None,
                }
            )
            for q in cfg.quantiles:
                sample = pvals[gi]
                report.pvalue_quantiles.append(
                    {
                        "k": k,
                        "gamma": g,
                        "quantile": q,
                        "n": len(sample),
                        "value": quantile(sample, q) if sample else None,
                    }
                )

        _frontier_rows(report, returns, k, cfg)

    report.write(cfg.output_dir)
    return report


def _frontier_rows(report: StudyReport, returns: ReturnMatrix, k: int, cfg: StudyConfig) -> None:
    """Frontier locations of the GMV / Sharpe / optimal portfolios for
    the deterministic first-k-assets market (subset_index -1)."""

    def market_error(code: str) -> None:
        report.cell_errors.append({"k": k, "subset_index": -1, "gamma": None, "code": code})

    try:
        params = estimate_params(ReturnMatrix(returns.values[:, :k]))
    except ValueError:
        market_error("singular_covariance")
        return
    try:
        constants = efficient_constants(params)
    except ValueError:
        market_error("degenerate_frontier")
        return
    except ArithmeticError:
        market_error("solve_failed")
        return
    report.frontier_locations.append(
        {"k": k, "portfolio": "gmv", "gamma": None, "x": constants.r_gmv, "v": constants.v_gmv}
    )
    try:
        x, v = portfolio_moments(sharpe_weights(params), params)
        report.frontier_locations.append(
            {"k": k, "portfolio": "sharpe", "gamma": None, "x": x, "v": v}
        )
    except ValueError:
        market_error("sharpe_undefined")
    try:
        grid = power_grid(constants, cfg.gamma_grid, cfg.w0)
    except ValueError:  # degenerate frontier
        everywhere = np.ones(len(cfg.gamma_grid), dtype=bool)
        _code_cells(report.cell_errors, k, -1, cfg.gamma_grid, {"degenerate_frontier": everywhere})
        return
    below = grid.outcome == OUTCOMES.index("below_gamma_min")
    _code_cells(
        report.cell_errors,
        k,
        -1,
        cfg.gamma_grid,
        {"below_gamma_min": below, "solve_failed": ~grid.ok & ~below},
    )
    xs, ys = grid.x.tolist(), grid.y.tolist()
    for gi in np.flatnonzero(grid.ok).tolist():
        report.frontier_locations.append(
            {
                "k": k,
                "portfolio": "optimal",
                "gamma": cfg.gamma_grid[gi],
                "x": xs[gi],
                "v": ys[gi] - xs[gi] * xs[gi],
            }
        )
