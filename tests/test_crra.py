import math

import numpy as np
import pytest

from crraport import (
    MarketParams,
    ReturnMatrix,
    StudyConfig,
    Weights,
    default_synth_spec,
    efficient_constants,
    efficient_constants_rows,
    estimate_params,
    gamma_min,
    objective_rows,
    objective_value,
    power_grid,
    power_solution,
    random_feasible,
    run_study,
    sharpe_weights,
    synth_market,
)
from crraport.crra import OUTCOMES
from crraport.study import _draw_subsets
from helpers import (
    discriminant,
    gamma_condition,
    ill_conditioned_market,
    is_mv_efficient_power,
    market_with_constants,
    monotonicity_check,
    random_market,
    sigma_solve,
    table_rows,
)

# mu = (-0.1, 0.2), sigma = diag(0.01, 0.04): 1'S^-1 mu = -10 + 5 = -5,
# so r_gmv = -5/125 = -0.04.
NEGATIVE_R_MARKET = ([-0.1, 0.2], np.diag([0.01, 0.04]))


def _bisect_gamma_min(constants, lo, hi, iters=200):
    """Independent threshold: sign change of the discriminant."""
    assert discriminant(lo, constants) < 0.0 < discriminant(hi, constants)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if discriminant(mid, constants) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestGammaMin:
    def test_worked_value(self, worked_market, worked_values):
        con = efficient_constants(worked_market)
        assert gamma_min(con) == pytest.approx(worked_values["gamma_min"], rel=1e-12)

    def test_bisection_cross_check(self, worked_market):
        con = efficient_constants(worked_market)
        gm = gamma_min(con)
        bisected = _bisect_gamma_min(con, 2.0 * con.s, 2.0 * con.s + 10.0)
        assert gm == pytest.approx(bisected, rel=1e-9)

    def test_small_slope_limit(self):
        values = [
            gamma_min(efficient_constants(market_with_constants(1.05, 0.004, s)))
            for s in (1e-2, 1e-4, 1e-6)
        ]
        assert values[0] > values[1] > values[2]
        assert values[2] < 1e-2

    def test_exceeds_twice_slope(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            con = efficient_constants(random_market(rng, int(rng.integers(2, 9))))
            assert gamma_min(con) > 2.0 * con.s

    def test_degenerate_frontier_rejected(self):
        con = efficient_constants(
            MarketParams([1.02, 1.02], np.diag([1e-4, 4e-4]))
        )
        with pytest.raises(ValueError, match="degenerate frontier"):
            gamma_min(con)


class TestDiscriminant:
    def test_worked_value(self, worked_market, worked_values):
        con = efficient_constants(worked_market)
        assert discriminant(3.0, con) == pytest.approx(
            worked_values["discriminant"], rel=1e-12
        )

    def test_alternate_form_agreement(self):
        rng = np.random.default_rng(32)
        for _ in range(25):
            con = efficient_constants(random_market(rng, int(rng.integers(2, 7))))
            for gamma in (0.5, 1.0, 3.0, 25.0, 1e4):
                d = discriminant(gamma, con)
                r2 = con.r_gmv**2
                alt = (gamma - 2 * con.s) ** 2 * r2 - 4 * (1 + con.s) * con.s * (
                    r2 + (gamma + 1) * con.v_gmv
                )
                assert d == pytest.approx(alt, rel=1e-10, abs=1e-10 * (gamma + 2) ** 2 * r2)

    def test_zero_at_gamma_min(self, worked_market):
        con = efficient_constants(worked_market)
        gm = gamma_min(con)
        assert abs(discriminant(gm, con)) <= 1e-9 * con.r_gmv**2

    def test_increasing_beyond_vertex(self, worked_market):
        con = efficient_constants(worked_market)
        vertex = 2 * con.s * (1 + (1 + con.s) * con.v_gmv / con.r_gmv**2)
        grid = vertex + np.linspace(0.1, 20.0, 40)
        values = [discriminant(g, con) for g in grid]
        assert all(b > a for a, b in zip(values, values[1:]))


class TestGammaCondition:
    def test_fields_and_predicates(self, worked_market):
        con = efficient_constants(worked_market)
        cond = gamma_condition(con)
        assert cond.r_gmv_positive
        assert cond.gamma_min == pytest.approx(gamma_min(con), rel=1e-15)
        assert cond.exists(cond.gamma_min)
        assert cond.exists(5.0)
        assert not cond.exists(cond.gamma_min - 1e-6)
        assert cond.discriminant_at(3.0) == discriminant(3.0, con)

    def test_exists_iff_discriminant_nonnegative(self):
        rng = np.random.default_rng(33)
        for _ in range(10):
            con = efficient_constants(random_market(rng, 3))
            cond = gamma_condition(con)
            for gamma in (0.2, 0.9, 1.7, 4.0, 30.0):
                if abs(gamma - cond.gamma_min) < 1e-9:
                    continue
                assert cond.exists(gamma) == (cond.discriminant_at(gamma) >= 0.0)


class TestPowerSolution:
    def test_worked_market(self, worked_market, worked_values):
        sol = power_solution(3.0, worked_market)
        assert sol.x == pytest.approx(worked_values["x"], rel=1e-12)
        assert sol.y == pytest.approx(worked_values["y"], rel=1e-12)
        assert sol.v == pytest.approx(worked_values["v"], rel=1e-11)
        np.testing.assert_allclose(sol.weights.w, worked_values["weights"], atol=1e-12)
        assert sol.expected_utility == pytest.approx(
            worked_values["expected_utility"], rel=1e-12
        )
        assert sol.mv_efficient
        assert sol.gamma == 3.0 and sol.w0 == 1.0

    def test_paper_literal_y_form(self, worked_market):
        con = efficient_constants(worked_market)
        sol = power_solution(3.0, worked_market)
        y_literal = 3.0 / con.s * (
            sol.x * con.r_gmv - con.r_gmv**2 - con.s * con.v_gmv
        )
        assert sol.y == pytest.approx(y_literal, rel=1e-12)

    def test_boundary_gamma_simplifies(self, worked_market):
        con = efficient_constants(worked_market)
        gm = gamma_min(con)
        sol = power_solution(gm, worked_market)
        assert sol.x == pytest.approx(
            (gm + 2.0) * con.r_gmv / (2.0 * (1.0 + con.s)), rel=1e-10
        )

    def test_existence_threshold(self, worked_market):
        gm = gamma_min(efficient_constants(worked_market))
        with pytest.raises(ValueError, match="below gamma_min"):
            power_solution(gm * (1.0 - 1e-3), worked_market)
        power_solution(gm * (1.0 + 1e-3), worked_market)

    def test_sharpe_limit(self, worked_market):
        sharpe = sharpe_weights(worked_market).w
        sol = power_solution(1e8, worked_market)
        assert np.max(np.abs(sol.weights.w - sharpe)) <= 1e-3

    def test_matches_markowitz_form(self, worked_market):
        rng = np.random.default_rng(34)
        markets = [worked_market] + [
            random_market(rng, int(rng.integers(2, 9))) for _ in range(15)
        ]
        for params in markets:
            con = efficient_constants(params)
            gm = gamma_min(con)
            for gamma in (gm + 0.05, gm + 1.0, 2.0 * gm + 3.0):
                sol = power_solution(gamma, params)
                w_mark = con.weights_at((sol.x - con.r_gmv) / con.s)
                assert np.max(np.abs(sol.weights.w - w_mark)) <= 1e-10

    def test_parabola_membership(self, worked_market):
        con = efficient_constants(worked_market)
        for gamma in (1.5, 3.0, 10.0, 100.0):
            sol = power_solution(gamma, worked_market)
            lhs = (sol.x - con.r_gmv) ** 2
            rhs = con.s * (sol.v - con.v_gmv)
            assert lhs == pytest.approx(rhs, rel=1e-8)
            assert sol.x != con.r_gmv

    def test_never_gmv_contradiction_value(self, worked_market):
        # plugging x = r_gmv into the second-moment formula gives
        # exactly -gamma * v_gmv < 0
        con = efficient_constants(worked_market)
        gamma = 3.0
        y_at_gmv = gamma / con.s * (
            con.r_gmv**2 - con.r_gmv**2 - con.s * con.v_gmv
        )
        assert y_at_gmv == pytest.approx(-gamma * con.v_gmv, rel=1e-14)
        assert y_at_gmv < 0.0

    def test_gamma_one_dispatches_to_log(self):
        params = market_with_constants(1.05, 0.004, 0.05)
        sol = power_solution(1.0, params, w0=2.0)
        assert sol.expected_utility == pytest.approx(
            math.log(2.0) + 2.0 * math.log(sol.x) - 0.5 * math.log(sol.y), rel=1e-14
        )

    def test_nonpositive_mean_error_when_r_gmv_negative(self):
        params = MarketParams(*NEGATIVE_R_MARKET)
        con = efficient_constants(params)
        assert con.r_gmv == pytest.approx(-0.04, rel=1e-10)
        gm = gamma_min(con)
        with pytest.raises(ValueError, match="optimal mean non-positive"):
            power_solution(gm + 1.0, params)

    def test_invalid_inputs(self, worked_market):
        for gamma in (-1.0, math.nan):
            with pytest.raises(ValueError, match="risk aversion"):
                power_solution(gamma, worked_market)
        for w0 in (0.0, math.nan):
            with pytest.raises(ValueError, match="wealth"):
                power_solution(3.0, worked_market, w0=w0)

    def test_utility_scales_with_wealth(self, worked_market):
        base = power_solution(3.0, worked_market, w0=1.0)
        scaled = power_solution(3.0, worked_market, w0=2.0)
        assert scaled.expected_utility == pytest.approx(
            base.expected_utility * 2.0 ** (1.0 - 3.0), rel=1e-12
        )
        np.testing.assert_allclose(scaled.weights.w, base.weights.w, atol=1e-14)

    def test_root_choice_inequality(self):
        rng = np.random.default_rng(35)
        for _ in range(20):
            params = random_market(rng, int(rng.integers(2, 7)))
            con = efficient_constants(params)
            gm = gamma_min(con)
            for gamma in (gm + 0.2, gm + 2.0, gm + 20.0):
                if gamma == 1.0:
                    continue
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
                # the large root is brutally levered; project the tiny
                # float drift back onto the budget constraint
                w_plus = Weights(raw / raw.sum())
                assert objective_value(
                    sol.weights, params, gamma
                ) > objective_value(w_plus, params, gamma)

    def test_optimality_against_random_portfolios(self, worked_market):
        rng = np.random.default_rng(36)
        markets = [worked_market, random_market(rng, 5)]
        for mi, params in enumerate(markets):
            gm = gamma_min(efficient_constants(params))
            for gamma in (max(gm + 0.1, 1.4), 6.0):
                sol = power_solution(gamma, params)
                best = -math.inf
                for w in random_feasible(params, 1000, seed=100 + mi):
                    best = max(best, objective_value(w, params, gamma))
                assert best <= sol.expected_utility + 1e-12 * abs(sol.expected_utility)

    def test_gamma_continuity_at_one(self):
        params = market_with_constants(1.05, 0.004, 0.05)
        w_log = power_solution(1.0, params).weights.w
        for gamma in (1.0 - 1e-6, 1.0 + 1e-6):
            w_pow = power_solution(gamma, params).weights.w
            assert np.max(np.abs(w_pow - w_log)) <= 1e-4


# Four-asset market whose optimum at 1.001 gamma_min has sum |w| = 73.
LEVERED_MARKET = (
    [1.0071053392647458, 1.0021240785139478, 1.0270304624713094, 1.004163145891539],
    [
        [0.0045930667750968684, 0.0006811094631090805, -0.0017974368875407355, -0.00018988422610872723],
        [0.0006811094631090805, 0.0012555244319315245, 0.0004214944241558415, -0.00041448050154852174],
        [-0.0017974368875407355, 0.0004214944241558415, 0.0013000700021164485, -0.0005699238463789378],
        [-0.00018988422610872723, -0.00041448050154852174, -0.0005699238463789378, 0.0011527226306405492],
    ],
)


class TestPowerGrid:
    def test_matches_one_gamma_solutions_on_every_study_cell(self, tmp_path):
        cfg = StudyConfig(
            seed=11,
            k_range=(3, 6),
            gamma_grid=(0.4, 0.8, 1.0, 2.0, 5.0, 1e4),
            output_dir=tmp_path,
            synth=default_synth_spec(),
            n_subsets_cap=12,
        )
        report = run_study(cfg)
        study_utility = {
            (r["k"], r["subset_index"], r["gamma"]): r["utility_optimal"]
            for r in table_rows(report.strategy_utilities)
        }
        values = synth_market(cfg.synth, cfg.seed).values
        n_ok = 0
        for k in cfg.k_range:
            for si, sub in enumerate(_draw_subsets(values.shape[1], k, cfg.n_subsets_cap, cfg.seed)):
                params = estimate_params(ReturnMatrix(values[:, list(sub)]))
                con = efficient_constants(params)
                grid = power_grid(con, cfg.gamma_grid, cfg.w0)
                for gi, gamma in enumerate(cfg.gamma_grid):
                    if not grid.ok[gi]:
                        assert np.isnan(grid.x[gi]) and np.isnan(grid.utility[gi])
                        with pytest.raises((ValueError, ArithmeticError)):
                            power_solution(gamma, params, cfg.w0)
                        continue
                    n_ok += 1
                    sol = power_solution(gamma, params, cfg.w0)
                    assert grid.x[gi] == pytest.approx(sol.x, rel=1e-12)
                    assert grid.y[gi] == pytest.approx(sol.y, rel=1e-12)
                    assert grid.utility[gi] == pytest.approx(sol.expected_utility, rel=1e-12)
                    assert grid.t[gi] == pytest.approx((sol.x - con.r_gmv) / con.s, rel=1e-9)
                    w = con.w_gmv + grid.t[gi] * con.tilt
                    assert np.max(np.abs(w - sol.weights.w)) <= 1e-10 * np.abs(w).sum()
                    key = (k, si, gamma)
                    if key in study_utility:
                        assert study_utility[key] == pytest.approx(sol.expected_utility, rel=1e-12)
        assert n_ok > 0 and len(study_utility) > 0

    def test_batch_rows_equal_one_market_grids(self):
        rng = np.random.default_rng(34)
        markets = [random_market(rng, 4) for _ in range(6)]
        con = efficient_constants_rows(
            np.stack([m.mu for m in markets]), np.stack([m.lower for m in markets])
        )
        gammas = [0.5, 2.0, 7.0, 1e4]
        grid = power_grid(con, gammas)
        gm = gamma_min(con)
        assert grid.x.shape == grid.outcome.shape == (6, 4)
        for b, params in enumerate(markets):
            one = efficient_constants(params)
            ref = power_grid(one, gammas)
            for name in ("x", "y", "t", "utility", "outcome"):
                assert np.array_equal(getattr(grid, name)[b], getattr(ref, name), equal_nan=True)
            assert gm[b] == gamma_min(one)

    def test_gamma_min_batch_gives_nan_where_undefined(self):
        flat = MarketParams([1.02, 1.02], np.diag([1e-4, 4e-4]))
        ok = MarketParams([1.05, 1.15], np.diag([0.01, 0.04]))
        con = efficient_constants_rows(np.stack([flat.mu, ok.mu]), np.stack([flat.lower, ok.lower]))
        gm = gamma_min(con)
        assert np.isnan(gm[0]) and gm[1] == gamma_min(efficient_constants(ok))
        with pytest.raises(ValueError, match="degenerate frontier"):
            power_grid(con, [2.0])
        assert power_grid(con[1:], [2.0]).ok.all()

    def test_outcomes_name_the_failed_check(self, worked_market):
        con = efficient_constants(worked_market)
        gm = gamma_min(con)
        grid = power_grid(con, [0.5, gm * (1.0 - 1e-3), gm, 3.0, 1e8])
        assert [OUTCOMES[c] for c in grid.outcome] == [
            "below_gamma_min", "below_gamma_min", "ok", "ok", "ok"
        ]
        assert np.all(np.isnan(grid.x[:2])) and np.all(np.isnan(grid.t[:2]))
        assert np.all(np.diff(grid.x[2:]) < 0.0)
        negative = efficient_constants(MarketParams(*NEGATIVE_R_MARKET))
        grid = power_grid(negative, [gamma_min(negative) + 1.0])
        assert OUTCOMES[grid.outcome[0]] == "nonpositive_mean"

    def test_below_gamma_min_is_the_gamma_min_test(self):
        # Ill-conditioned markets, at gammas within rounding of the
        # threshold: below_gamma_min is gamma < gamma_min, bitwise, in
        # every cell.
        rng = np.random.default_rng(80)
        below = OUTCOMES.index("below_gamma_min")
        n_below = n_above = 0
        for _ in range(60):
            con = efficient_constants(ill_conditioned_market(rng))
            gm = gamma_min(con)
            gammas = gm * np.array([1 - 1e-9, 1 - 1e-12, 1 - 1e-15, 1.0, 1 + 1e-12, 1 + 1e-6, 2.0])
            grid = power_grid(con, gammas)
            np.testing.assert_array_equal(grid.outcome == below, gammas < gm)
            n_below += np.count_nonzero(gammas < gm)
            n_above += np.count_nonzero(gammas >= gm)
        assert n_below > 100 and n_above > 200

    def test_just_below_gamma_min_raises(self):
        rng = np.random.default_rng(81)
        for _ in range(40):
            params = ill_conditioned_market(rng)
            gm = gamma_min(efficient_constants(params))
            with pytest.raises(ValueError, match="below gamma_min"):
                power_solution(gm * (1.0 - 1e-12), params)

    def test_far_below_gamma_min_raises_no_solution(self):
        # Below gamma_min the discriminant's two forms can disagree in
        # ill-conditioned markets; the error is still that no optimum
        # exists, not that the forms disagree.
        rng = np.random.default_rng(2026)
        n_checked = 0
        for _ in range(150):
            params = ill_conditioned_market(rng)
            gm = gamma_min(efficient_constants(params))
            for gamma in (0.5, 1.0):
                if gamma < gm:
                    n_checked += 1
                    with pytest.raises(ValueError, match="^no solution exists below gamma_min"):
                        power_solution(gamma, params)
        assert n_checked > 200

    def test_zero_r_gmv_market_is_below_everywhere(self):
        # 1' Sigma^-1 mu = 100*0.04 + 25*(-0.16) = 0: no threshold.
        con = efficient_constants(MarketParams([0.04, -0.16], np.diag([0.01, 0.04])))
        assert con.r_gmv == 0.0
        grid = power_grid(con, [0.5, 2.0, 1e8])
        assert [OUTCOMES[c] for c in grid.outcome] == ["below_gamma_min"] * 3

    def test_invalid_inputs(self, worked_market):
        con = efficient_constants(worked_market)
        for gamma in (0.0, math.nan):
            with pytest.raises(ValueError, match="risk aversion"):
                power_grid(con, [2.0, gamma])
        for w0 in (0.0, math.nan):
            with pytest.raises(ValueError, match="wealth"):
                power_grid(con, [2.0], w0=w0)
        flat = efficient_constants(MarketParams([1.02, 1.02], np.diag([1e-4, 4e-4])))
        with pytest.raises(ValueError, match="degenerate frontier"):
            power_grid(flat, [2.0])

    def test_levered_market_near_threshold(self):
        params = MarketParams(*LEVERED_MARKET)
        gm = gamma_min(efficient_constants(params))
        sol = power_solution(gm * 1.001, params)
        assert np.abs(sol.weights.w).sum() > 70.0
        assert abs(sol.weights.w.sum() - 1.0) <= 1e-12 * np.abs(sol.weights.w).sum()


class TestLogSolution:
    def test_worked_market_has_no_log_solution(self, worked_market):
        with pytest.raises(ValueError, match="no solution exists below gamma_min"):
            power_solution(1.0, worked_market)

    def test_constructed_market(self):
        params = market_with_constants(1.05, 0.004, 0.05)
        con = efficient_constants(params)
        assert gamma_min(con) < 1.0
        sol = power_solution(1.0, params)

        # Independent evaluation of the closed forms at gamma = 1.
        r, s, v = con.r_gmv, con.s, con.v_gmv
        d = 9 * r**2 - 8 * (1 + s) * (r**2 + s * v)
        x = (3 * r - math.sqrt(d)) / (2 * (1 + s))
        y = (x * r - r**2) / s - v
        inner = y * (2.0 * params.mu / x - 1.0) - x * params.mu
        w = sigma_solve(params, inner)

        assert sol.gamma == 1.0
        assert sol.x == pytest.approx(x, rel=1e-10)
        assert sol.y == pytest.approx(y, rel=1e-10)
        np.testing.assert_allclose(sol.weights.w, w, atol=1e-10)
        assert sol.expected_utility == pytest.approx(
            2.0 * math.log(x) - 0.5 * math.log(y), rel=1e-12
        )
        assert sol.mv_efficient

    def test_wealth_shift(self):
        params = market_with_constants(1.05, 0.004, 0.05)
        base = power_solution(1.0, params, w0=1.0)
        shifted = power_solution(1.0, params, w0=3.0)
        assert shifted.expected_utility == pytest.approx(
            base.expected_utility + math.log(3.0), rel=1e-12
        )
        np.testing.assert_allclose(shifted.weights.w, base.weights.w, atol=1e-14)

    def test_matches_power_formula_at_one(self):
        params = market_with_constants(1.04, 0.003, 0.08)
        sol_log = power_solution(1.0, params)
        con = efficient_constants(params)
        gamma = 1.0
        d = discriminant(gamma, con)
        x = ((gamma + 2) * con.r_gmv - math.sqrt(d)) / (2 * (1 + con.s))
        y = gamma / con.s * (x * con.r_gmv - con.r_gmv**2 - con.s * con.v_gmv)
        assert sol_log.x == pytest.approx(x, rel=1e-10)
        assert sol_log.y == pytest.approx(y, rel=1e-10)


class TestObjectiveValue:
    def test_log_form_instantiation(self, worked_market):
        w = Weights([0.3, 0.7])
        x = 0.3 * 1.05 + 0.7 * 1.15
        y = 0.3**2 * 0.01 + 0.7**2 * 0.04 + x * x
        assert objective_value(w, worked_market, 1.0) == pytest.approx(
            2 * math.log(x) - 0.5 * math.log(y), rel=1e-14
        )

    def test_power_form_instantiation(self, worked_market):
        w = Weights([0.3, 0.7])
        x = 0.3 * 1.05 + 0.7 * 1.15
        y = 0.3**2 * 0.01 + 0.7**2 * 0.04 + x * x
        expected = (
            2.0 ** (1 - 3)
            / (1 - 3)
            * math.exp((1 - 9) * math.log(x) + 0.5 * (9 - 3) * math.log(y))
        )
        assert objective_value(w, worked_market, 3.0, w0=2.0) == pytest.approx(
            expected, rel=1e-14
        )

    def test_solution_value_matches(self, worked_market):
        sol = power_solution(3.0, worked_market)
        assert objective_value(sol.weights, worked_market, 3.0) == pytest.approx(
            sol.expected_utility, rel=1e-12
        )

    def test_gmv_not_better(self, worked_market):
        sol = power_solution(3.0, worked_market)
        gmv = Weights(efficient_constants(worked_market).w_gmv)
        gmv_value = objective_value(gmv, worked_market, 3.0)
        assert gmv_value <= sol.expected_utility

    def test_negative_for_gamma_above_one(self, worked_market):
        assert objective_value(Weights([0.5, 0.5]), worked_market, 2.5) < 0.0

    def test_outside_domain(self):
        params = MarketParams(*NEGATIVE_R_MARKET)
        with pytest.raises(ValueError, match="outside objective domain"):
            objective_value(Weights([3.0, -2.0]), params, 2.0)

    def test_invalid_inputs(self, worked_market):
        w = Weights([0.5, 0.5])
        for gamma in (0.0, math.nan, [2.0, math.nan]):
            with pytest.raises(ValueError, match="risk aversion"):
                objective_value(w, worked_market, gamma)
        for w0 in (0.0, math.nan):
            with pytest.raises(ValueError, match="wealth"):
                objective_value(w, worked_market, 2.0, w0=w0)

    def test_one_row_of_objective_rows(self, worked_market):
        rng = np.random.default_rng(38)
        gammas = np.array([0.5, 1.0, 3.0, 1e4])
        for params in [worked_market] + [random_market(rng, k) for k in (3, 6)]:
            for w in random_feasible(params, 20, seed=7):
                rows, inside = objective_rows(w.w[None], params.mu[None], params.sigma[None], gammas)
                assert inside[0]
                assert np.array_equal(objective_value(w, params, gammas), rows[0])
                for gi, gamma in enumerate(gammas):
                    assert objective_value(w, params, gamma) == rows[0, gi]


class TestMvEfficiency:
    def test_worked_market(self, worked_market):
        con = efficient_constants(worked_market)
        gm = gamma_min(con)
        assert is_mv_efficient_power(3.0, con)
        assert power_solution(3.0, worked_market).x > con.r_gmv
        assert not is_mv_efficient_power(gm - 0.01, con)

    def test_negative_r_gmv_never_efficient(self):
        con = efficient_constants(MarketParams(*NEGATIVE_R_MARKET))
        assert con.r_gmv < 0.0
        for gamma in (0.5, 2.0, 50.0, 1e6):
            assert not is_mv_efficient_power(gamma, con)

    def test_upper_branch_iff_efficient(self):
        rng = np.random.default_rng(37)
        for _ in range(15):
            params = random_market(rng, int(rng.integers(2, 6)))
            con = efficient_constants(params)
            gm = gamma_min(con)
            sol = power_solution(gm + 0.5, params)
            assert sol.mv_efficient == (sol.x > con.r_gmv and con.r_gmv > 0.0)


class TestMonotonicityCheck:
    def test_worked_market_grid(self, worked_market, worked_values):
        report = monotonicity_check(worked_market, [1.5, 2.0, 3.0, 5.0, 10.0, 100.0])
        assert report.passed
        assert report.x_strictly_decreasing and report.v_strictly_decreasing
        assert report.sharpe_return == pytest.approx(
            worked_values["sharpe_return"], rel=1e-12
        )
        assert all(x >= report.sharpe_return - 1e-10 for x in report.x_values)

    def test_single_gamma_trivially_passes(self, worked_market):
        assert monotonicity_check(worked_market, [2.0]).passed

    def test_huge_gamma_approaches_sharpe_return(self, worked_market, worked_values):
        report = monotonicity_check(worked_market, [2.0, 1e8])
        assert abs(report.x_values[-1] - worked_values["sharpe_return"]) <= 1e-3

    def test_preconditions(self, worked_market):
        with pytest.raises(ValueError, match="ascending"):
            monotonicity_check(worked_market, [3.0, 2.0])
        with pytest.raises(ValueError, match="gamma_min"):
            monotonicity_check(worked_market, [0.5, 2.0])
        with pytest.raises(ValueError, match="r_gmv"):
            monotonicity_check(MarketParams(*NEGATIVE_R_MARKET), [2.0, 3.0])
