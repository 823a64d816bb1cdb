"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one live PASS/FAIL line (bypassing capture) so a plain
``pytest tests/test_acceptance.py`` run shows the per-criterion verdicts.
"""

import filecmp
import json
import math
import time

import numpy as np
import pytest

from crraport import (
    StudyConfig,
    Weights,
    default_synth_spec,
    efficient_constants,
    gamma_min,
    maximize_numeric,
    objective_value,
    power_solution,
    psi_sup_bound,
    psi_sup_empirical,
    run_study,
    shapiro_wilk,
    sharpe_weights,
    OracleConfig,
)
from helpers import (
    discriminant,
    empirical_cdf,
    lognormal_moment,
    market_with_constants,
    match_params,
    random_market,
    sigma_solve,
    table_rows,
)


@pytest.fixture
def announce(capsys):
    def _announce(num: int, desc: str, ok: bool, detail: str = ""):
        with capsys.disabled():
            suffix = f" ({detail})" if detail else ""
            print(f"[criterion {num:>2}] {desc}: {'PASS' if ok else 'FAIL'}{suffix}")
        assert ok, f"criterion {num} failed: {desc} {detail}"

    return _announce


@pytest.fixture(scope="module")
def market_pool():
    rng = np.random.default_rng(20240809)
    pool = []
    while len(pool) < 50:
        params = random_market(rng, int(rng.integers(2, 9)))
        con = efficient_constants(params)
        if con.s > 1e-6 and con.r_gmv > 0.0:
            pool.append((params, con))
    return pool


def _gamma_set(gm: float) -> list[float]:
    return sorted({gm + 0.1} | {g for g in (2.0, 5.0, 20.0) if g >= gm})


def test_criterion_1_closed_form_vs_oracle(announce, market_pool):
    t0 = time.perf_counter()
    worst_w, worst_obj, n_checks = 0.0, 0.0, 0
    for i, (params, con) in enumerate(market_pool):
        gm = gamma_min(con)
        for gamma in _gamma_set(gm):
            sol = power_solution(gamma, params)
            w, obj = maximize_numeric(
                params, gamma, OracleConfig(n_starts=6, seed=1000 + i)
            )
            worst_w = max(worst_w, float(np.max(np.abs(w.w - sol.weights.w))))
            worst_obj = max(
                worst_obj,
                abs(obj - sol.expected_utility) / max(1.0, abs(sol.expected_utility)),
            )
            n_checks += 1
    elapsed = time.perf_counter() - t0
    ok = worst_w <= 1e-5 and worst_obj <= 1e-9 and elapsed <= 120.0
    announce(
        1,
        "closed form vs oracle on 50 random markets",
        ok,
        f"{n_checks} solves, worst |dw|={worst_w:.2e}, "
        f"worst obj gap={worst_obj:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_parabola_membership(announce, market_pool):
    worst_parab, worst_mark = 0.0, 0.0
    for params, con in market_pool:
        gm = gamma_min(con)
        for gamma in _gamma_set(gm):
            sol = power_solution(gamma, params)
            lhs = (sol.x - con.r_gmv) ** 2
            rhs = con.s * (sol.v - con.v_gmv)
            worst_parab = max(worst_parab, abs(lhs - rhs) / max(abs(lhs), abs(rhs)))
            w_mark = con.weights_at((sol.x - con.r_gmv) / con.s)
            worst_mark = max(worst_mark, float(np.max(np.abs(sol.weights.w - w_mark))))
    ok = worst_parab <= 1e-8 and worst_mark <= 1e-10
    announce(
        2,
        "parabola membership and Markowitz-form weights",
        ok,
        f"worst parabola rel={worst_parab:.2e}, worst |dw|={worst_mark:.2e}",
    )


def test_criterion_3_existence_threshold(announce):
    rng = np.random.default_rng(3)
    worst_disc = 0.0
    ok = True
    for _ in range(100):
        params = random_market(rng, int(rng.integers(2, 9)))
        con = efficient_constants(params)
        if con.r_gmv <= 0.0 or con.s <= 1e-6:
            continue
        gm = gamma_min(con)
        worst_disc = max(worst_disc, abs(discriminant(gm, con)) / con.r_gmv**2)
        try:
            power_solution(gm * (1.0 - 1e-3), params)
            ok = False
        except ValueError:
            pass
        power_solution(gm * (1.0 + 1e-3), params)
    ok = ok and worst_disc <= 1e-9
    announce(
        3,
        "existence threshold: D(gamma_min)=0, error below, success above",
        ok,
        f"worst |D(gm)|/r^2={worst_disc:.2e}",
    )


def test_criterion_4_root_selection(announce, market_pool):
    ok = True
    margin = math.inf
    for params, con in market_pool:
        gm = gamma_min(con)
        for gamma in _gamma_set(gm):
            sol = power_solution(gamma, params)
            d = discriminant(gamma, con)
            x_plus = ((gamma + 2) * con.r_gmv + math.sqrt(d)) / (2 * (1 + con.s))
            y_plus = gamma / con.s * (
                x_plus * con.r_gmv - con.r_gmv**2 - con.s * con.v_gmv
            )
            inner = (y_plus / gamma) * (
                (gamma + 1.0) * params.mu / x_plus - 1.0
            ) - x_plus * params.mu
            raw = sigma_solve(params, inner)
            w_plus = Weights(raw / raw.sum())
            gap = objective_value(sol.weights, params, gamma) - objective_value(
                w_plus, params, gamma
            )
            margin = min(margin, gap)
            ok = ok and gap > 0.0
    announce(
        4,
        "root selection: smaller-root portfolio strictly better",
        ok,
        f"minimum objective margin={margin:.3e}",
    )


def test_criterion_5_limits_and_monotonicity(announce, market_pool):
    ok = True
    worst_sharpe_gap = 0.0
    for params, con in market_pool[:25]:
        gm = gamma_min(con)
        grid = sorted({gm + 0.1} | {g for g in (2.0, 5.0, 10.0, 100.0, 1e4) if g > gm})
        xs, vs = [], []
        for gamma in grid:
            sol = power_solution(gamma, params)
            xs.append(sol.x)
            vs.append(sol.v)
        ok = ok and all(b < a for a, b in zip(xs, xs[1:]))
        ok = ok and all(b < a for a, b in zip(vs, vs[1:]))
        ones = np.ones(params.k)
        sinv_mu = sigma_solve(params, params.mu)
        sharpe_return = float(params.mu @ sinv_mu) / float(ones @ sinv_mu)
        ok = ok and all(x >= sharpe_return - 1e-10 for x in xs)
        w_inf = power_solution(1e8, params).weights.w
        gap = float(np.max(np.abs(w_inf - sharpe_weights(params).w)))
        worst_sharpe_gap = max(worst_sharpe_gap, gap)
        ok = ok and gap <= 1e-3
    announce(
        5,
        "x, v decrease in gamma; gamma->inf reaches the Sharpe portfolio",
        ok,
        f"worst |w(1e8)-w_sharpe|={worst_sharpe_gap:.2e}",
    )


def _reference_gamma1_weights(params, con) -> np.ndarray:
    """Power-utility formulas at gamma = 1, evaluated in 40-digit
    arithmetic (literal double evaluation loses more than the 1e-10
    comparison budget on small-slope markets)."""
    import mpmath as mp

    mp.mp.dps = 40
    r, s, v = mp.mpf(con.r_gmv), mp.mpf(con.s), mp.mpf(con.v_gmv)
    d = 9 * r**2 - 8 * (1 + s) * (r**2 + s * v)
    if d < 0:
        d = mp.mpf(0)
    x = (3 * r - mp.sqrt(d)) / (2 * (1 + s))
    y = (x * r - r**2 - s * v) / s
    mu = [mp.mpf(float(m)) for m in params.mu]
    inner = mp.matrix([y * (2 * m / x - 1) - x * m for m in mu])
    sigma = mp.matrix(
        [[mp.mpf(float(params.sigma[i, j])) for j in range(params.k)] for i in range(params.k)]
    )
    sol = mp.lu_solve(sigma, inner)
    return np.array([float(sol[i]) for i in range(params.k)])


def test_criterion_6_log_utility(announce, market_pool):
    ok = True
    n_exists = n_errors = 0
    worst_closed, worst_oracle = 0.0, 0.0
    markets = [params for params, _ in market_pool[:20]]
    markets.append(market_with_constants(1.05, 0.004, 0.05))  # gamma_min < 1
    for i, params in enumerate(markets):
        con = efficient_constants(params)
        gm = gamma_min(con)
        if gm <= 1.0:
            n_exists += 1
            sol = power_solution(1.0, params)
            w_power = _reference_gamma1_weights(params, con)
            worst_closed = max(worst_closed, float(np.max(np.abs(sol.weights.w - w_power))))
            w_oracle, _ = maximize_numeric(
                params, 1.0, OracleConfig(n_starts=6, seed=2000 + i)
            )
            worst_oracle = max(
                worst_oracle, float(np.max(np.abs(sol.weights.w - w_oracle.w)))
            )
        else:
            n_errors += 1
            with pytest.raises(ValueError, match="no solution exists below gamma_min"):
                power_solution(1.0, params)
    ok = n_exists >= 1 and n_errors >= 1 and worst_closed <= 1e-10 and worst_oracle <= 1e-5
    announce(
        6,
        "log utility: matches gamma=1 closed form and oracle; errors when absent",
        ok,
        f"{n_exists} solvable / {n_errors} not; worst closed gap={worst_closed:.2e}, "
        f"oracle gap={worst_oracle:.2e}",
    )


def test_criterion_7_lemma1_ladder(announce):
    ladder = (0.2, 0.1, 0.05, 0.01)
    bounds = [psi_sup_bound(1.0, x) for x in ladder]
    empiricals = [psi_sup_empirical(1.0, x) for x in ladder]
    ok = all(e <= b for e, b in zip(empiricals, bounds))
    ok = ok and all(b < a for a, b in zip(bounds, bounds[1:]))
    ok = ok and all(b < a for a, b in zip(empiricals, empiricals[1:]))
    ok = ok and all(b / x <= 1.0 for b, x in zip(bounds, ladder))
    announce(
        7,
        "log-normal gap: empirical sup within the analytic O(ratio) bound",
        ok,
        "; ".join(f"x={x}: {e:.4f}<={b:.4f}" for x, e, b in zip(ladder, empiricals, bounds)),
    )


def test_criterion_8_moment_matching_round_trip(announce):
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(10_000):
        e = rng.uniform(0.5, 2.0)
        v = rng.uniform(1e-6, 1.0)
        p = match_params(e, v)
        worst = max(
            worst,
            abs(lognormal_moment(p, 1.0) - e) / e,
            abs(lognormal_moment(p, 2.0) - (v + e * e)) / (v + e * e),
        )
    ok = worst <= 1e-12
    announce(8, "moment matching round-trip on 10^4 pairs", ok, f"worst rel={worst:.2e}")


def test_criterion_9_shapiro_wilk_fidelity(announce, shapiro_reference):
    t0 = time.perf_counter()
    worst = 0.0
    for rec in shapiro_reference.values():
        res = shapiro_wilk(rec["values"])
        worst = max(
            worst, abs(res.statistic - rec["statistic"]), abs(res.p_value - rec["p_value"])
        )
    rng = np.random.default_rng(9)
    samples = rng.standard_normal((10_000, 150))
    rejections = sum(shapiro_wilk(row).p_value < 0.05 for row in samples)
    rate = rejections / 10_000.0
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-3 and 0.04 <= rate <= 0.06 and elapsed <= 60.0
    announce(
        9,
        "Shapiro-Wilk fidelity and size",
        ok,
        f"worst fixture gap={worst:.2e}, null rejection rate={rate:.4f}, {elapsed:.1f}s",
    )


def test_criterion_10_study_harness(announce, tmp_path):
    def config(out):
        return StudyConfig(
            seed=42,
            k_range=(4, 7, 10, 14),
            gamma_grid=(0.4, 0.7, 1.0, 2.0, 5.0),
            output_dir=out,
            synth=default_synth_spec(),
            n_subsets_cap=30,
            quantiles=(0.25,),
        )

    report = run_study(config(tmp_path / "a"))

    rates_ok = True
    by_k: dict = {}
    for row in table_rows(report.condition_failure_rates):
        by_k.setdefault(row["k"], []).append((row["gamma"], row["rate_gamma_min_violated"]))
    for k, rows in by_k.items():
        rates = [r for _, r in sorted(rows)]
        rates_ok = rates_ok and all(b <= a for a, b in zip(rates, rates[1:]))

    ecdf_ok = True
    groups: dict = {}
    for row in table_rows(report.strategy_utilities):
        groups.setdefault((row["k"], row["gamma"]), []).append(row)
    for rows in groups.values():
        if len(rows) < 3:
            continue
        opt = [r["utility_optimal"] for r in rows]
        for other in ("utility_naive", "utility_sharpe"):
            vals = [r[other] for r in rows]
            grid = np.sort(np.asarray(opt + vals))
            ecdf_ok = ecdf_ok and bool(
                np.all(empirical_cdf(opt)(grid) <= empirical_cdf(vals)(grid) + 1e-12)
            )

    run_study(config(tmp_path / "b"))
    bytes_ok = all(
        filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name, shallow=False)
        for name in (
            "pvalue_quantiles.csv",
            "condition_failure_rates.csv",
            "frontier_locations.csv",
            "strategy_utilities.csv",
            "cell_errors.csv",
        )
    )
    sa = json.loads((tmp_path / "a" / "summary.json").read_text())
    sb = json.loads((tmp_path / "b" / "summary.json").read_text())
    for summary in (sa, sb):
        summary["metadata"].pop("timestamp")
        summary.pop("timings_s")
    bytes_ok = bytes_ok and sa == sb

    ok = rates_ok and ecdf_ok and bytes_ok
    announce(
        10,
        "study harness: monotone failure rates, ECDF dominance, reproducibility",
        ok,
        f"rates_ok={rates_ok}, ecdf_ok={ecdf_ok}, reruns_identical={bytes_ok}",
    )
