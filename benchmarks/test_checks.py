"""Each benchmark check passes on real output and fails on corrupted output.

    python3 -m pytest benchmarks/test_checks.py -q

The real output is a small study run through crraport from ``src/``; each
test corrupts one thing a check guards and asserts that the check fails.
"""

from __future__ import annotations

import copy
import csv
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import crraport as cp  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

GAMMAS = (0.5, 2.0, 5.0, 10.0)


@pytest.fixture(scope="module")
def study(tmp_path_factory):
    out = tmp_path_factory.mktemp("study")
    cfg = cp.StudyConfig(
        seed=3,
        k_range=(3, 5),
        gamma_grid=GAMMAS,
        output_dir=out,
        synth=cp.default_synth_spec(),
        n_subsets_cap=12,
    )
    cp.run_study(cfg)
    inputs = {"cfg": cfg, "cells": 2 * 12 * len(GAMMAS)}
    outcome = workloads.StudyDefault().collect(inputs, out, None)
    return inputs, out, outcome


@pytest.fixture
def tables(study):
    _, out, outcome = study
    tables = copy.deepcopy(outcome.tables)
    for name in ("strategy_utilities", "cell_errors"):
        tables[name] = list(workloads._rows(out / f"{name}.csv"))
    return tables


def test_real_study_output_passes(study):
    _, _, outcome = study
    assert outcome.failed == 0
    assert checks.check_failure_rates(outcome.tables["condition_failure_rates"]) == []
    assert checks.check_frontier(outcome.tables["frontier_locations"]) == []
    assert checks.check_pvalue_quantiles(outcome.tables["pvalue_quantiles"]) == []


@pytest.mark.parametrize(
    "field, value",
    [
        ("utility_optimal", "lower"),
        ("utility_optimal", "-inf"),
        ("utility_optimal", "nan"),
        ("utility_naive", "inf"),
    ],
)
def test_strategy_row_below_another_strategy_fails(tables, field, value):
    rows = tables["strategy_utilities"]
    assert checks.strategy_rows_failing(rows) == []
    row = rows[5]
    if value == "lower":
        u = float(row["utility_naive"])
        value = repr(u - 1e-6 * abs(u))
    row[field] = value
    assert checks.strategy_rows_failing(rows) == [row]


def test_equal_infinities_are_ties():
    row = {"utility_optimal": "-inf", "utility_naive": "-inf", "utility_sharpe": "-inf"}
    assert checks.strategy_rows_failing([row]) == []


def _rewrite(path: Path, rows: list[dict]) -> None:
    header = path.read_text(encoding="utf-8").splitlines()[0].split(",")
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=header, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


@pytest.mark.parametrize("corruption", ["lower_optimal", "solve_failed", "missing_cell"])
def test_collect_counts_corrupted_cells_as_failed(study, tables, tmp_path, corruption):
    inputs, out, _ = study
    for name in workloads.TABLES:
        (tmp_path / f"{name}.csv").write_bytes((out / f"{name}.csv").read_bytes())
    rows, errors = tables["strategy_utilities"], tables["cell_errors"]
    if corruption == "lower_optimal":
        rows[0]["utility_optimal"] = "-inf"
    elif corruption == "solve_failed":
        errors.append({"k": "3", "subset_index": "0", "gamma": "2.0", "code": "solve_failed"})
    else:
        rows.pop(0)
    _rewrite(tmp_path / "strategy_utilities.csv", rows)
    _rewrite(tmp_path / "cell_errors.csv", errors)
    assert workloads.StudyDefault().collect(inputs, tmp_path, None).failed == 1


def test_failure_rate_rising_with_gamma_fails(tables):
    rows = tables["condition_failure_rates"]
    last = max((r for r in rows if r["k"] == "5"), key=lambda r: float(r["gamma"]))
    last["rate_gamma_min_violated"] = "1.0"
    last["rate_mv_violated"] = "1.0"
    assert checks.check_failure_rates(rows)


def test_mv_rate_below_gamma_min_rate_fails(tables):
    rows = tables["condition_failure_rates"]
    rows[0]["rate_gamma_min_violated"] = "0.5"
    rows[0]["rate_mv_violated"] = "0.25"
    assert checks.check_failure_rates(rows)


@pytest.mark.parametrize("corruption", ["x_rises", "v_rises", "below_sharpe", "below_gmv"])
def test_corrupted_frontier_fails(tables, corruption):
    rows = tables["frontier_locations"]
    optimal = [r for r in rows if r["k"] == "5" and r["portfolio"] == "optimal"]
    sharpe = next(r for r in rows if r["k"] == "5" and r["portfolio"] == "sharpe")
    gmv = next(r for r in rows if r["k"] == "5" and r["portfolio"] == "gmv")
    last = max(optimal, key=lambda r: float(r["gamma"]))
    if corruption == "x_rises":
        last["x"] = repr(float(optimal[0]["x"]) + 1e-3)
    elif corruption == "v_rises":
        last["v"] = repr(float(optimal[0]["v"]) * 2.0)
    elif corruption == "below_sharpe":
        last["x"] = repr(float(sharpe["x"]) - 1e-9)
    else:
        last["v"] = repr(float(gmv["v"]) * (1.0 - 1e-9))
    assert checks.check_frontier(rows)


def test_frontier_tie_within_rounding_passes(tables):
    rows = tables["frontier_locations"]
    last = max(
        (r for r in rows if r["k"] == "5" and r["portfolio"] == "optimal"),
        key=lambda r: float(r["gamma"]),
    )
    rows.append({**last, "gamma": "1e8"})  # same x and v one step further
    assert checks.check_frontier(rows) == []


@pytest.mark.parametrize("value", ["1.5", "-0.01", "swap"])
def test_corrupted_pvalue_quantiles_fail(tables, value):
    rows = tables["pvalue_quantiles"]
    cell = [r for r in rows if r["k"] == "5" and float(r["gamma"]) == 2.0]
    cell.sort(key=lambda r: float(r["quantile"]))
    if value == "swap":
        cell[0]["value"], cell[-1]["value"] = cell[-1]["value"], cell[0]["value"]
        assert cell[0]["value"] != cell[-1]["value"]
    else:
        cell[1]["value"] = value
    assert checks.check_pvalue_quantiles(rows)


@pytest.fixture(scope="module")
def market():
    spec = cp.default_synth_spec()
    values = cp.synth_market(spec, 11).values[:, :5]
    return values, cp.estimate_params(cp.ReturnMatrix(values))


def test_estimate_check(market):
    values, params = market
    assert checks.check_estimate(values, params.mu, params.sigma) == []
    mu = params.mu.copy()
    mu[2] += 1e-6
    assert checks.check_estimate(values, mu, params.sigma)
    sigma = params.sigma.copy()
    sigma[1, 1] *= 1.0 + 1e-6
    assert checks.check_estimate(values, params.mu, sigma)


def test_oracle_check(market):
    _, params = market
    sol = cp.power_solution(3.0, params)
    w, u = cp.maximize_numeric(params, 3.0, cp.OracleConfig(n_starts=6, seed=1000))
    assert checks.check_oracle(sol.weights.w, sol.expected_utility, w.w, u) == []
    shifted = sol.weights.w + np.array([1e-4, -1e-4, 0.0, 0.0, 0.0])
    assert checks.check_oracle(shifted, sol.expected_utility, w.w, u)
    worse = sol.expected_utility - 1e-8 * max(1.0, abs(sol.expected_utility))
    assert checks.check_oracle(sol.weights.w, worse, w.w, u)


def test_shapiro_check(market):
    values, params = market
    sample = np.log((values + 1.0) @ cp.power_solution(3.0, params).weights.w)
    res = cp.shapiro_wilk(sample)
    assert checks.check_shapiro(sample, res.statistic, res.p_value) == []
    assert checks.check_shapiro(sample, res.statistic, res.p_value + 1e-3)
    assert checks.check_shapiro(sample, res.statistic - 1e-3, res.p_value)


def test_identical_check():
    assert checks.check_identical(["a", "a", "a"]) == []
    assert checks.check_identical(["a", "b"])
    assert checks.check_identical(["a"])


def test_pool_collect_counts_disagreements():
    pool = workloads.VerifyPool()
    ok = (1e-7, 1e-12)
    assert pool.collect({}, None, [ok, ok]).failed == 0
    assert pool.collect({}, None, [ok, (2e-5, 0.0)]).failed == 1
    assert pool.collect({}, None, [ok, (0.0, 1e-8)]).failed == 1
    assert pool.collect({}, None, [ok, None]).failed == 1
    assert pool.collect({}, None, [ok]).attempted == 1
