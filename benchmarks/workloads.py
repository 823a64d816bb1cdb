"""The benchmark's three workloads.

Each workload has four steps. ``build`` makes the inputs from the seed
through crraport's own functions (this is timed as set-up). ``run_pass``
is one timed pass. ``collect`` reads a pass's outputs and counts its
operations, untimed. ``check`` runs the independent checks of
``checks.py`` on seeded samples, untimed.

Study workloads: an operation is one (subset, gamma) cell. A cell with a
documented outcome code has completed; it fails when coded
``solve_failed``, when its strategy row fails the optimum check, when it
is missing from every table, or when the study raises.

verify-pool: an operation is one (market, gamma) comparison of the closed
form against the numerical oracle; it fails if either raises or the two
disagree beyond acceptance criterion 1's tolerances.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import checks

TABLES = (
    "pvalue_quantiles",
    "condition_failure_rates",
    "frontier_locations",
    "strategy_utilities",
    "cell_errors",
)
# The aggregate tables the checks read whole; the per-cell ones are streamed.
SMALL_TABLES = ("pvalue_quantiles", "condition_failure_rates", "frontier_locations")
# Codes that are the method's answer for a cell, not a failure.
DOCUMENTED_CODES = {
    "singular_covariance",
    "degenerate_frontier",
    "below_gamma_min",
    "sw_sample_size",
    "nonpositive_realized_gross_return",
    "sw_degenerate",
    "sharpe_undefined",
    "naive_outside_domain",
    "sharpe_outside_domain",
}
# Cells of the deterministic first-k market re-checked against the oracle,
# numpy and scipy per run; criterion 1 covers k <= 8 and gamma <= 20.
SAMPLED_CELLS = 3
ORACLE_MAX_K = 8
ORACLE_MAX_GAMMA = 20.0
ORACLE_STARTS = 6


@dataclass
class Outcome:
    attempted: int
    failed: int
    digest: str
    tables: dict | None = None


def _rows(path: Path):
    with path.open(newline="", encoding="utf-8") as fh:
        yield from csv.DictReader(fh)


def _cell(row: dict) -> tuple:
    return row["k"], row["subset_index"], float(row["gamma"])


def _sha256(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).read_bytes())
    return h.hexdigest()


class StudyWorkload:
    """A full ``run_study`` per pass; subclasses say where the panel comes from."""

    cap: int
    k_range: tuple[int, ...]
    gammas: tuple[float, ...]

    def config(self, cp, seed: int, workdir: Path):
        raise NotImplementedError

    def panels(self, cp, cfg) -> tuple[np.ndarray, np.ndarray]:
        """(program's panel, independently read panel) for the checks."""
        raise NotImplementedError

    def build(self, cp, seed: int, workdir: Path) -> dict:
        cfg = self.config(cp, seed, workdir)
        n_assets = cfg.synth.k if cfg.synth is not None else self.n_assets
        subsets = sum(min(cfg.n_subsets_cap, math.comb(n_assets, k)) for k in cfg.k_range)
        return {
            "cfg": cfg,
            "cells": subsets * len(cfg.gamma_grid),
            "markets": subsets + len(cfg.k_range),  # plus the per-k frontier market
        }

    def run_pass(self, cp, inputs: dict, out_dir: Path) -> None:
        cp.study.run_study(replace(inputs["cfg"], output_dir=out_dir))

    def collect(self, inputs: dict, out_dir: Path, _result) -> Outcome:
        """Count failed cells, streaming the two per-cell tables so the
        benchmark's own memory stays below the study's."""
        paths = [out_dir / f"{name}.csv" for name in TABLES]
        covered, bad = set(), set()
        for row in _rows(out_dir / "strategy_utilities.csv"):
            cell = _cell(row)
            covered.add(cell)
            if checks.strategy_rows_failing([row]):
                bad.add(cell)
        for row in _rows(out_dir / "cell_errors.csv"):
            if int(row["subset_index"]) < 0:
                continue  # the per-k frontier market, not a cell
            covered.add(_cell(row))
            if row["code"] not in DOCUMENTED_CODES:
                bad.add(_cell(row))
        attempted = inputs["cells"]
        failed = min(attempted, len(bad) + max(0, attempted - len(covered)))
        tables = {name: list(_rows(out_dir / f"{name}.csv")) for name in SMALL_TABLES}
        return Outcome(attempted, failed, _sha256(paths), tables)

    def failed_outcome(self, inputs: dict) -> Outcome:
        return Outcome(inputs["cells"], inputs["cells"], "")

    def check(self, cp, inputs: dict, outcome: Outcome, seed: int) -> list[str]:
        tables = outcome.tables
        problems = (
            checks.check_failure_rates(tables["condition_failure_rates"])
            + checks.check_frontier(tables["frontier_locations"])
            + checks.check_pvalue_quantiles(tables["pvalue_quantiles"])
        )
        cfg = inputs["cfg"]
        panel, ref_panel = self.panels(cp, cfg)
        candidates = [
            r
            for r in tables["frontier_locations"]
            if r["portfolio"] == "optimal"
            and int(r["k"]) <= ORACLE_MAX_K
            and float(r["gamma"]) <= ORACLE_MAX_GAMMA
        ]
        rng = np.random.default_rng([seed, 1])
        picks = rng.choice(len(candidates), size=min(SAMPLED_CELLS, len(candidates)), replace=False)
        if len(picks) == 0:
            problems.append("no frontier cell to sample")
        for i in sorted(picks):
            row = candidates[i]
            k, gamma = int(row["k"]), float(row["gamma"])
            try:
                problems += self._check_cell(cp, cfg, panel[:, :k], ref_panel[:, :k], row, int(i))
            except (ValueError, ArithmeticError) as exc:
                problems.append(f"k={k} gamma={gamma}: {type(exc).__name__}: {exc}")
        return problems

    @staticmethod
    def _check_cell(cp, cfg, panel, ref_panel, row, seed) -> list[str]:
        """One frontier cell against numpy, the oracle and scipy."""
        k, gamma = int(row["k"]), float(row["gamma"])
        params = cp.estimate_params(cp.ReturnMatrix(panel))
        problems = checks.check_estimate(ref_panel, params.mu, params.sigma)
        sol = cp.power_solution(gamma, params, cfg.w0)
        if not (
            math.isclose(float(row["x"]), sol.x, rel_tol=1e-12)
            and math.isclose(float(row["v"]), sol.v, rel_tol=1e-12)
        ):
            problems.append(f"k={k} gamma={gamma}: frontier row is not the closed form")
        w, u = cp.maximize_numeric(
            params, gamma, cp.OracleConfig(n_starts=ORACLE_STARTS, seed=1000 + seed)
        )
        problems += checks.check_oracle(sol.weights.w, sol.expected_utility, w.w, u)
        realized = (ref_panel + 1.0) @ sol.weights.w
        if np.min(realized) > 0.0:
            sample = np.log(realized)
            res = cp.shapiro_wilk(sample)
            problems += checks.check_shapiro(sample, res.statistic, res.p_value)
        return problems


class StudyDefault(StudyWorkload):
    """The ROADMAP headline study: shipped 17-asset calibration, k 4:14,
    gamma 2..10, cap 200 (2,200 subsets x 9 gammas). ``--seed 7`` is the
    headline run."""

    cap = 200
    k_range = tuple(range(4, 15))
    gammas = tuple(float(g) for g in range(2, 11))

    def config(self, cp, seed, workdir):
        return cp.StudyConfig(
            seed=seed,
            k_range=self.k_range,
            gamma_grid=self.gammas,
            output_dir=workdir,
            synth=cp.default_synth_spec(),
            n_subsets_cap=self.cap,
        )

    def panels(self, cp, cfg):
        values = cp.synth_market(cfg.synth, cfg.seed).values
        return values, values


class StudyWideCsv(StudyWorkload):
    """A seeded 48-asset, 520-week calibration written to a returns CSV and
    fed through ``data_csv``: k 2..48 with a cap of 8 subsets, and a gamma
    grid from below gamma_min through log utility (1) up to 1e8."""

    n_assets = 48
    n_periods = 520
    cap = 8
    k_range = tuple(range(2, 49))
    gammas = (0.25, 0.5, 1.0, 2.0, 3.0, 5.0, 10.0, 100.0, 1e3, 1e4, 1e6, 1e8)

    def calibration(self, cp, seed):
        """Weekly scale like the shipped one: gross means 1.0005..1.0035,
        volatilities 2%..4.5%, one-factor correlations of about 0.2..0.56."""
        rng = np.random.default_rng([seed, 2])
        k = self.n_assets
        mu0 = 1.0 + rng.uniform(0.0005, 0.0035, k)
        vol = rng.uniform(0.02, 0.045, k)
        beta = rng.uniform(0.45, 0.75, k)
        corr = np.outer(beta, beta)
        np.fill_diagonal(corr, 1.0)
        return cp.SynthSpec(n=self.n_periods, mu0=mu0, sigma0=corr * np.outer(vol, vol))

    def config(self, cp, seed, workdir):
        workdir.mkdir(parents=True, exist_ok=True)
        path = workdir / "wide_returns.csv"
        values = cp.synth_market(self.calibration(cp, seed), seed).values
        with path.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow([f"a{j + 1}" for j in range(self.n_assets)])
            writer.writerows([repr(float(v)) for v in row] for row in values)
        return cp.StudyConfig(
            seed=seed,
            k_range=self.k_range,
            gamma_grid=self.gammas,
            output_dir=workdir,
            data_csv=path,
            n_subsets_cap=self.cap,
        )

    def panels(self, cp, cfg):
        ref = np.loadtxt(cfg.data_csv, delimiter=",", skiprows=1, ndmin=2)
        return cp.load_returns_csv(cfg.data_csv).values, ref


class VerifyPool:
    """Seeded random markets like acceptance criterion 1's pool, one per
    k = 2..8 at monthly-scale volatility, each compared at gamma 5, 10 and 20.

    Markets are kept when the log-utility optimum exists (gamma_min < 1), so
    every market has the same three comparisons and a pass is always 21
    operations. Criterion 1's gamma_min + 0.1 and gamma = 2 are left out:
    at the first ``power_solution`` raised on about one market in a thousand
    (its absolute weight-sum tolerance), and at the second its weight-sum
    error came within 10% of that tolerance; failures that depend on the
    seed would make the failed share differ between runs.
    """

    ks = tuple(range(2, 9))
    gammas = (5.0, 10.0, 20.0)

    def build(self, cp, seed, workdir):
        rng = np.random.default_rng([seed, 3])
        pool = []
        for k in self.ks:
            while True:
                vols = rng.uniform(0.02, 0.08, k)
                a = rng.normal(size=(k + 4, k))
                corr = a.T @ a
                d = np.sqrt(np.diag(corr))
                sigma = corr / np.outer(d, d) * np.outer(vols, vols)
                mu = 1.0 + rng.normal(0.0, 0.01, k)
                try:
                    params = cp.MarketParams(mu, sigma)
                except ValueError:
                    continue
                con = cp.efficient_constants(params)
                if con.s > 1e-6 and con.r_gmv > 0.0 and cp.gamma_min(con) < 1.0:
                    pool.append(params)
                    break
        return {"pool": pool, "markets": len(pool)}

    def run_pass(self, cp, inputs, _out_dir):
        gaps = []
        for i, params in enumerate(inputs["pool"]):
            for gamma in self.gammas:
                try:
                    sol = cp.power_solution(gamma, params)
                    w, u = cp.maximize_numeric(
                        params, gamma, cp.OracleConfig(n_starts=ORACLE_STARTS, seed=1000 + i)
                    )
                except (ValueError, ArithmeticError):
                    gaps.append(None)
                    continue
                gaps.append(checks.oracle_gaps(sol.weights.w, sol.expected_utility, w.w, u))
        return gaps

    def collect(self, inputs, _out_dir, gaps) -> Outcome:
        failed = sum(
            g is None or g[0] > checks.ORACLE_MAX_DW or g[1] > checks.ORACLE_MAX_REL_GAP
            for g in gaps
        )
        digest = hashlib.sha256(repr(gaps).encode()).hexdigest()
        return Outcome(len(gaps), failed, digest)

    def failed_outcome(self, inputs) -> Outcome:
        n = len(inputs["pool"]) * len(self.gammas)
        return Outcome(n, n, "")

    def check(self, cp, inputs, outcome, seed) -> list[str]:
        # Each operation is itself the oracle comparison; collect counted it.
        return []


WORKLOADS = {
    "study-default": StudyDefault(),
    "study-wide-csv": StudyWideCsv(),
    "verify-pool": VerifyPool(),
}
