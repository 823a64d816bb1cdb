import math
import re

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crraport import (
    FrontierConstants,
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
    portfolio_moments_rows,
    power_grid,
    power_solution,
    random_feasible,
    run_study,
    sharpe_weights,
    synth_market,
)
from crraport.crra import _CHECKS, OUTCOMES, _off_parabola, _utility
from crraport.frontier import _CHECKS as _FRONTIER_CHECKS
from crraport.frontier import FRONTIER_OUTCOMES
from crraport.study import _draw_subsets
from helpers import (
    discriminant,
    expanded_discriminant,
    gamma_condition,
    ill_conditioned_market,
    is_mv_efficient_power,
    market_with_constants,
    monotonicity_check,
    mp_optimum,
    power_grid_reference,
    random_market,
    sigma_solve,
    table_rows,
)

EPS = np.finfo(float).eps

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
        # Equal means: the frontier's slope rule rejects the market (s
        # and its bound are 0), and its NaN constants fail gamma_min's own
        # s > 0 check.
        flat = MarketParams([1.02, 1.02], np.diag([1e-4, 4e-4]))
        con = efficient_constants_rows(flat.mu, flat.lower)
        assert FRONTIER_OUTCOMES[con.outcome] == "degenerate_frontier"
        with pytest.raises(ValueError, match="^degenerate frontier$"):
            gamma_min(con)
        with pytest.raises(ValueError, match="^degenerate frontier$"):
            efficient_constants(flat)


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

    def test_expanded_form_agrees_with_the_literal_one(self):
        # The expanded form is the same polynomial: it agrees with the
        # literal one to the literal's rounding, which scales with its
        # terms, (g + 2)^2 r^2 and 4 (g + 1)(1 + s)(r^2 + s v). Against
        # 60 digits of the same double constants it is accurate to its
        # own, smaller terms, also on tiny-slope markets at tiny gamma,
        # where the literal form's 4 g r^2 and 4 r^2 cancel.
        rng = np.random.default_rng(32)
        n_tiny = 0
        for i in range(60):
            con = efficient_constants(random_market(rng, int(rng.integers(2, 7))))
            r, s, v = (float(c) for c in (con.r_gmv, con.s, con.v_gmv))
            if i % 2:
                s = 10.0 ** rng.uniform(-30.0, -12.0)
                n_tiny += 1
            gm = gamma_min(_literal(r, s, v))
            for gamma in (gm, 2.0 * gm, 0.5, 3.0, 25.0, 1e4):
                got = expanded_discriminant(gamma, r, s, v)
                literal = (gamma + 2.0) ** 2 * r * r - 4.0 * (gamma + 1.0) * (1.0 + s) * (r * r + s * v)
                literal_terms = (gamma + 2.0) ** 2 * r * r + 4.0 * (gamma + 1.0) * (1.0 + s) * (r * r + s * v)
                assert abs(got - literal) <= 8 * EPS * literal_terms, (i, gamma)
                with mp.workdps(60):
                    g, rr, ss, vv = (mp.mpf(c) for c in (gamma, r, s, v))
                    exact = g * g * rr * rr - 4 * (g + 1) * ss * (rr * rr + (1 + ss) * vv)
                    terms = g * g * rr * rr + 4 * (g + 1) * ss * (rr * rr + (1 + ss) * vv)
                    assert abs(got - exact) <= 8 * EPS * terms, (i, gamma)
        assert n_tiny == 30

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

    def test_raises_exactly_where_the_grid_codes_a_failure(self):
        # Condition numbers 1 to 1e14, gammas from gamma_min (1 + 1e-12)
        # to 1e8: power_solution is one cell of power_grid. It returns
        # the weights of every ok cell and raises the failed check's
        # error on every other, the frontier's included.
        rng = np.random.default_rng(2040)
        n_ok = n_failed = 0
        for i in range(300):
            try:
                params = ill_conditioned_market(rng, (0.0, 10.0) if i % 2 else (10.0, 14.0))
            except ValueError:
                continue
            con = efficient_constants_rows(params.mu, params.lower)
            gammas = [2.0, 10.0, 1e4, 1e8]
            if con.outcome == 0 and con.r_gmv != 0.0:
                gm = gamma_min(con)
                gammas += [gm * (1.0 + 1e-12), gm * (1.0 + 1e-6), 1.01 * gm, 2.0 * gm]
            grid = power_grid(con, gammas)
            for gamma, code, t in zip(gammas, grid.outcome, grid.t):
                if con.outcome:
                    message = _FRONTIER_CHECKS[con.outcome - 1][1]
                    with pytest.raises(ValueError, match=f"^{message}$"):
                        power_solution(gamma, params)
                elif code:
                    error, message = _CHECKS[code - 1][1:]
                    with pytest.raises(error, match=f"^{re.escape(message)}"):
                        power_solution(gamma, params)
                else:
                    sol = power_solution(gamma, params)
                    assert np.array_equal(sol.weights.w, con.weights_at(t)), (i, gamma)
                n_ok += code == 0
                n_failed += code != 0
        assert n_ok > 1000 and n_failed > 100

    def test_nonpositive_mean_error_when_r_gmv_negative(self):
        params = MarketParams(*NEGATIVE_R_MARKET)
        con = efficient_constants(params)
        assert con.r_gmv == pytest.approx(-0.04, rel=1e-10)
        gm = gamma_min(con)
        with pytest.raises(ValueError, match="optimal mean non-positive"):
            power_solution(gm + 1.0, params)

    def test_invalid_inputs(self, worked_market):
        for gamma in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="^relative risk aversion must be positive and finite$"):
                power_solution(gamma, worked_market)
        for w0 in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="^initial wealth must be positive and finite$"):
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


@pytest.fixture(scope="module")
def parabola_probe():
    """1,500 ill-conditioned markets (rng 2026), each with its constants,
    its gammas gm (1 + 1e-12), gm (1 + 1e-6), 2 gm, 1e4 and 1e8 for gm
    its gamma_min, and their grid."""
    rng = np.random.default_rng(2026)
    probe = []
    for _ in range(1500):
        con = efficient_constants(ill_conditioned_market(rng))
        gm = gamma_min(con)
        gammas = np.array([gm * (1.0 + 1e-12), gm * (1.0 + 1e-6), 2.0 * gm, 1e4, 1e8])
        probe.append((con, gammas, power_grid(con, gammas)))
    return probe


def _literal(r, s, v):
    """One market's constants r_gmv, s and v_gmv as given, whatever
    market they come from."""
    return FrontierConstants(
        r_gmv=np.float64(r), v_gmv=np.float64(v), s=np.float64(s),
        w_gmv=np.array([0.5, 0.5]), tilt=np.array([1.0, -1.0]), outcome=np.int8(0),
    )


def _tiny_slope_market(rng):
    """A ``random_market`` covariance of 2 to 8 assets, with gross means
    1 + U(-0.01, 0.01) + 10^U(-16, -4) N(0, 1), the first term shared by
    every asset: slopes from about 1e-30 up, most below 1e-12."""
    k = int(rng.integers(2, 9))
    sigma = random_market(rng, k).sigma
    return MarketParams(1.0 + rng.uniform(-0.01, 0.01) + 10.0 ** rng.uniform(-16.0, -4.0) * rng.normal(size=k), sigma)


def _root_error_bounds(r, s, v, gamma):
    """Relative error bounds of ``power_grid``'s x and t at the double
    constants r_gmv ``r``, slope ``s`` and v_gmv ``v``: 8 eps (1 + c). The
    discriminant d carries a few eps of the sum D of its terms' sizes, so
    sqrt(d) carries D eps / (2 sqrt(d)), and x and t carry that over their
    conjugate denominators, (g + 2) r + sqrt(d) and (g - 2s) r + sqrt(d):
    c = D / (sqrt(d) denominator). c is O(1) well past gamma_min, and about
    1/sqrt(gamma / gamma_min - 1) near it, where the root is a double root."""
    r2 = r * r
    tail = 4.0 * s * (gamma + 1.0) * (r2 + (1.0 + s) * v)
    terms, sq = gamma * gamma * r2 + tail, np.sqrt(gamma * gamma * r2 - tail)
    return (
        8.0 * EPS * (1.0 + terms / (sq * ((gamma + 2.0) * r + sq))),
        8.0 * EPS * (1.0 + terms / (sq * ((gamma - 2.0 * s) * r + sq))),
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
        assert grid.x.shape == grid.outcome.shape == (6, 4)
        for b, params in enumerate(markets):
            ref = power_grid(efficient_constants(params), gammas)
            for name in ("x", "y", "t", "utility", "outcome"):
                assert np.array_equal(getattr(grid, name)[b], getattr(ref, name), equal_nan=True)

    def test_degenerate_and_zero_r_gmv_markets_are_coded_in_a_batch(self):
        # A flat market (equal means, which the frontier rejects, so its
        # constants are NaN) and one with r_gmv = 0 sit in one batch with
        # ordinary markets: each is coded at every gamma, and the others
        # keep their one-market grids bit for bit.
        rng = np.random.default_rng(35)
        flat = MarketParams([1.02, 1.02], np.diag([1e-4, 4e-4]))
        zero = MarketParams([0.04, -0.16], np.diag([0.01, 0.04]))
        markets = [random_market(rng, 2), flat, random_market(rng, 2), zero, random_market(rng, 2)]
        con = efficient_constants_rows(
            np.stack([m.mu for m in markets]), np.stack([m.lower for m in markets])
        )
        assert FRONTIER_OUTCOMES[con.outcome[1]] == "degenerate_frontier" and np.isnan(con.s[1])
        assert con.r_gmv[3] == 0.0
        gammas = [0.5, 1.0, 2.0, 7.0, 1e4, 1e8]
        grid = power_grid(con, gammas)
        assert [OUTCOMES[c] for c in grid.outcome[1]] == ["degenerate_frontier"] * len(gammas)
        assert [OUTCOMES[c] for c in grid.outcome[3]] == ["below_gamma_min"] * len(gammas)
        assert np.isnan(grid.x[[1, 3]]).all() and np.isnan(grid.t[[1, 3]]).all()
        for b in (0, 2, 4):
            ref = power_grid(efficient_constants(markets[b]), gammas)
            assert ref.ok.any()
            for name in ("x", "y", "t", "utility", "outcome"):
                assert np.array_equal(getattr(grid, name)[b], getattr(ref, name), equal_nan=True)
        with pytest.raises(ValueError, match="^degenerate frontier$"):
            power_solution(2.0, flat)

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

    def test_ill_conditioned_probe_has_no_off_parabola_cell(self, parabola_probe):
        # Every cell at or above gamma_min is solved. s runs to about 1e10
        # here, and s (y - x^2 - v) carries about s ulp(y) of cancellation:
        # over a thousand cells miss the parabola by more than 1e-8 of its
        # sides plus 1e-12 max(1, y, x^2). A sample of those matches a
        # 60-digit solve of the same constants.
        below = OUTCOMES.index("below_gamma_min")
        beyond_rounding = []
        for con, gammas, grid in parabola_probe:
            np.testing.assert_array_equal(grid.outcome, np.where(gammas < gamma_min(con), below, 0))
            ok = grid.ok
            r, s, v, x, y = con.r_gmv, con.s, con.v_gmv, grid.x[ok], grid.y[ok]
            lhs, rhs = (x - r) ** 2, s * (y - x * x - v)
            floor = 1e-8 * np.maximum(np.abs(lhs), np.abs(rhs))
            floor += 1e-12 * np.maximum(np.maximum(1.0, y), x * x)
            for i in np.flatnonzero(np.abs(lhs - rhs) > floor):
                beyond_rounding.append((con, gammas[ok][i], x[i], y[i], grid.t[ok][i]))
        assert len(beyond_rounding) > 1000
        for i in np.random.default_rng(7).choice(len(beyond_rounding), 12, replace=False):
            con, gamma, *got = beyond_rounding[i]
            assert con.s > 1e3
            for value, ref in zip(got, mp_optimum(con.r_gmv, con.s, con.v_gmv, gamma)):
                assert abs(value - ref) <= 1e-9 * abs(ref), (gamma, value, ref)

    def test_point_moved_off_the_parabola_is_rejected(self, parabola_probe):
        # A 1e-9 relative move of y, either way, on every solved cell of
        # the probe whose slope is not tiny (the 1e-12 y floor covers
        # s y 1e-9 below 1e-12 y) and whose variance above v_gmv is under
        # 5% of y (where the relative part covers it): the s ulp floor
        # still rejects it, up to s ~ 1e10.
        n_moved = n_large_s = 0
        for con, _, grid in parabola_probe:
            ok = grid.ok
            r, s, v, x, y = con.r_gmv, con.s, con.v_gmv, grid.x[ok], grid.y[ok]
            assert not _off_parabola(x, y, r, s, v).any()
            if s < 0.1:
                continue
            near = (y - x * x - v) < 0.05 * y
            # The same points at a 2^-200 scale of returns, where an
            # absolute floor would accept every move.
            small = np.ldexp(x[near], -200), np.ldexp(r, -200), s, np.ldexp(v, -400)
            assert not _off_parabola(small[0], np.ldexp(y[near], -400), *small[1:]).any()
            for moved in (y * (1.0 + 1e-9), y * (1.0 - 1e-9)):
                assert _off_parabola(x[near], moved[near], r, s, v).all(), s
                assert _off_parabola(small[0], np.ldexp(moved[near], -400), *small[1:]).all(), s
            n_moved += np.count_nonzero(near)
            n_large_s += np.count_nonzero(near) if s > 1e3 else 0
        assert n_moved > 5000 and n_large_s > 3000

    def test_x_rounding_is_inside_the_parabola_tolerance(self):
        # Constants of an ill-conditioned market at gamma 1.19e9: x
        # carries 3.6 ulps of error, which enters the parabola's two sides
        # as 2 s x dx and used to exceed the tolerance. The cell is ok,
        # and x, y and t match a 60-digit solve to 4 eps.
        r, s, v = 0.9992507269910281, 232409.3294684823, 1.4189289299650598e-12
        gamma = 1187863000.4490178
        grid = power_grid(_literal(r, s, v), [gamma])
        assert OUTCOMES[grid.outcome[0]] == "ok"
        for value, ref in zip((grid.x[0], grid.y[0], grid.t[0]), mp_optimum(r, s, v, gamma)):
            assert abs(value - ref) <= 4 * EPS * abs(ref), (value, ref)

    def test_every_outcome_has_an_input(self, worked_market):
        # One cell per outcome, so that no outcome stays in OUTCOMES
        # without an input that reaches it.
        worked = efficient_constants(worked_market)
        table = {
            "ok": (worked, 3.0),
            "degenerate_frontier": (efficient_constants_rows(np.array([1.02, 1.02]), np.diag([1e-2, 2e-2])), 2.0),
            "below_gamma_min": (worked, 0.5),
            "nonpositive_mean": (efficient_constants(MarketParams(*NEGATIVE_R_MARKET)), 1e4),
            # v_gmv < 0, which no covariance gives, makes t negative, and
            # y = (1 + s) t (x + r) + r^2 - v is 1/6560 of its terms.
            "off_parabola": (_literal(0.9, 1e9, -8e-10), 1e16),
        }
        assert tuple(table) == OUTCOMES
        for name, (con, gamma) in table.items():
            assert OUTCOMES[power_grid(con, [gamma]).outcome[0]] == name

    def test_tiny_slopes_against_60_digits(self):
        # 400 tiny-slope markets: the frontier accepts 396, 267 of them
        # with s <= 1e-12, where gamma_min is 1e-6 or less and the literal
        # discriminant's cancelling 4 g r^2 and 4 r^2 cost x up to 1.5e-8
        # and t every digit. At 2 gamma_min x and t are within 4 eps of a
        # 60-digit solve of the same double constants, and at gamma_min
        # (1 + 1e-6) within the root's own error bound.
        rng = np.random.default_rng(11)
        n_accepted = n_tiny = 0
        for i in range(400):
            params = _tiny_slope_market(rng)
            con = efficient_constants_rows(params.mu, params.lower)
            if con.outcome:
                continue
            r, s, v = (float(c) for c in (con.r_gmv, con.s, con.v_gmv))
            gm = gamma_min(con)
            gammas = np.array([2.0 * gm, gm * (1.0 + 1e-6)])
            grid = power_grid(con, gammas)
            assert grid.ok.all(), i
            bx, bt = _root_error_bounds(r, s, v, gammas)
            bx[0] = bt[0] = 4 * EPS
            for gamma, x, t, ex, et in zip(gammas, grid.x, grid.t, bx, bt):
                x_ref, _, t_ref = mp_optimum(r, s, v, gamma)
                assert abs(x - x_ref) <= ex * x_ref, (i, gamma, x, x_ref)
                assert abs(t - t_ref) <= et * t_ref, (i, gamma, t, t_ref)
            n_accepted += 1
            n_tiny += s <= 1e-12
        assert (n_accepted, n_tiny) == (396, 267)

    @settings(deadline=None)
    @given(
        r=st.floats(0.5, 2.0),
        log_s=st.floats(-30.0, 2.0),
        log_v=st.floats(-8.0, 0.0),
        fractions=st.lists(st.floats(0.0, 1.0), max_size=4),
    )
    def test_every_cell_is_solved_to_its_conditioning(self, r, log_s, log_v, fractions):
        # Constants from a slope of 1e-30 to 100, at gammas from
        # gamma_min (1 + 1e-6) to 1e8: every cell is ok with t > 0, x and
        # t are within their error bounds of 60 digits, and x and v do not
        # rise with gamma by more than those bounds allow.
        s, v = 10.0**log_s, 10.0**log_v
        con = _literal(r, s, v)
        low = gamma_min(con) * (1.0 + 1e-6)
        gammas = low * (1e8 / low) ** np.sort([0.0, 1.0, *fractions])
        grid = power_grid(con, gammas)
        assert grid.ok.all() and (grid.t > 0.0).all()
        bx, bt = _root_error_bounds(r, s, v, gammas)
        for gamma, x, t, ex, et in zip(gammas, grid.x, grid.t, bx, bt):
            x_ref, _, t_ref = mp_optimum(r, s, v, gamma)
            assert abs(x - x_ref) <= ex * x_ref, (gamma, x, x_ref)
            assert abs(t - t_ref) <= et * t_ref, (gamma, t, t_ref)
        # y = (1 + s) t (x + r) + ... carries about x's and t's errors,
        # and y - x^2 cancels 16 ulps of y, as the Sharpe limit allows.
        x, y = grid.x, grid.y
        x_tol = bx * x
        v_tol = (2.0 * (bx + bt) + 24 * EPS) * y + 2.0 * bx * x * x
        assert np.all(np.diff(x) <= x_tol[:-1] + x_tol[1:])
        assert np.all(np.diff(y - x * x) <= v_tol[:-1] + v_tol[1:])

    def test_scaled_form_equals_the_unscaled_one_bit_for_bit(self):
        # Wherever the unscaled form is finite (gamma up to ~1e154), the
        # power-of-two scaling of gamma changes no bit of x, y or t:
        # random and ill-conditioned markets from gamma 0.3 to 1e150,
        # and at gamma_min (1 + 1e-15).
        rng = np.random.default_rng(2031)
        n_ok = 0
        for i in range(200):
            params = random_market(rng, int(rng.integers(2, 10))) if i % 2 else ill_conditioned_market(rng)
            con = efficient_constants(params)
            gammas = np.append(np.geomspace(0.3, 1e150, 120), gamma_min(con) * (1.0 + 1e-15))
            grid = power_grid(con, gammas)
            ok = grid.ok
            for got, ref in zip((grid.x, grid.y, grid.t), power_grid_reference(con, gammas)):
                assert np.array_equal(got[ok], ref[ok]), i
            assert ok[-1], i
            n_ok += np.count_nonzero(ok)
        assert n_ok > 20000

    def test_sharpe_limit_up_to_the_largest_double(self):
        # The paper's limit: from gamma 1e8 to the largest double, x and v
        # do not rise (to 16 ulps, as the benchmark's frontier check
        # allows), and at 1e300 x, v and t are within 4 ulps of the Sharpe
        # portfolio's. Cells past 1e154 match a high-precision solve.
        rng = np.random.default_rng(41)
        gammas = np.append(np.geomspace(1e8, 1e300, 60), [1e305, np.finfo(float).max])
        n_limit = n_mp = 0
        for i in range(120):
            params = random_market(rng, int(rng.integers(2, 10))) if i % 2 else ill_conditioned_market(rng)
            con = efficient_constants(params)
            if not con.r_gmv > 0.0:
                continue
            grid = power_grid(con, gammas)
            above = gammas >= gamma_min(con)
            assert np.all(grid.ok[above]), i
            ok = grid.ok
            x, y = grid.x[ok], grid.y[ok]
            v = y - x * x
            assert np.all(np.diff(x) <= 16 * EPS * x[1:]), i
            assert np.all(np.diff(v) <= 16 * EPS * y[1:]), i
            ts = con.t_sharpe
            xs, vs = con.r_gmv + con.s * ts, con.v_gmv + con.s * ts * ts
            if ok[59]:
                n_limit += 1
                assert abs(grid.x[59] - xs) <= 4 * np.spacing(xs), i
                assert abs(grid.y[59] - grid.x[59] ** 2 - vs) <= 4 * np.spacing(vs + xs * xs), i
                assert abs(grid.t[59] - ts) <= 4 * np.spacing(ts), i
            for j in np.flatnonzero(ok & (gammas > 1e154))[i % 5 :: 5]:
                n_mp += 1
                got = grid.x[j], grid.y[j], grid.t[j]
                for value, ref in zip(got, mp_optimum(con.r_gmv, con.s, con.v_gmv, gammas[j])):
                    assert abs(value - ref) <= 4 * EPS * abs(ref), (i, gammas[j], value, ref)
        assert n_limit > 100 and n_mp > 500

    def test_scale_of_returns_changes_no_bit(self):
        # Gross means times 2^j and covariances times 2^2j, j = +/-200:
        # s is unchanged, and x and t scale by 2^j, y by 2^2j, bit for
        # bit, with the same outcomes, up to gamma 1e300.
        rng = np.random.default_rng(42)
        for i in range(100):
            params = random_market(rng, int(rng.integers(2, 9))) if i % 2 else ill_conditioned_market(rng)
            con = efficient_constants(params)
            gammas = np.geomspace(5.0 * con.s, 1e300, 40)
            ref = power_grid(con, gammas)
            assert ref.ok.any(), i
            for j in (200, -200):
                scaled = MarketParams(np.ldexp(params.mu, j), np.ldexp(params.sigma, 2 * j))
                grid = power_grid(efficient_constants(scaled), gammas)
                assert np.array_equal(grid.outcome, ref.outcome), (i, j)
                for name, p in (("x", j), ("t", j), ("y", 2 * j)):
                    got, want = getattr(grid, name), np.ldexp(getattr(ref, name), p)
                    assert np.array_equal(got, want, equal_nan=True), (i, j, name)

    def test_just_below_gamma_min_raises(self):
        rng = np.random.default_rng(81)
        for _ in range(40):
            params = ill_conditioned_market(rng)
            gm = gamma_min(efficient_constants(params))
            with pytest.raises(ValueError, match="below gamma_min"):
                power_solution(gm * (1.0 - 1e-12), params)

    def test_far_below_gamma_min_raises_no_solution(self):
        # Far below gamma_min in ill-conditioned markets, where the
        # discriminant is negative by a wide margin, the error is that no
        # optimum exists.
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

    def test_negative_r_gmv_is_nonpositive_mean_at_every_gamma(self):
        # Past gamma ~ 1e17 the discriminant rounds to (gamma+2)^2 r^2,
        # and the conjugate root's denominator to zero or above.
        con = efficient_constants(MarketParams(*NEGATIVE_R_MARKET))
        gm = gamma_min(con)
        gammas = [gm * (1.0 + 1e-9), 2.0 * gm, 1e4, 1e8, 1e16, 1e18, 1e19, 1e20, 1e22, 1e30]
        grid = power_grid(con, gammas)
        assert [OUTCOMES[c] for c in grid.outcome] == ["nonpositive_mean"] * len(gammas)

    def test_invalid_inputs(self, worked_market):
        con = efficient_constants(worked_market)
        for gamma in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="^relative risk aversion must be positive and finite$"):
                power_grid(con, [2.0, gamma])
        for w0 in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="^initial wealth must be positive and finite$"):
                power_grid(con, [2.0], w0=w0)

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
        for gamma in (0.0, math.nan, math.inf, [2.0, math.nan], [2.0, math.inf]):
            with pytest.raises(ValueError, match="^relative risk aversion must be positive and finite$"):
                objective_value(w, worked_market, gamma)
        for w0 in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="^initial wealth must be positive and finite$"):
                objective_value(w, worked_market, 2.0, w0=w0)

    def test_one_row_of_objective_rows(self, worked_market):
        # objective_value is objective_rows at the portfolio's moments, and
        # each row of a batch is bitwise its portfolio's one-row call.
        rng = np.random.default_rng(38)
        gammas = np.array([0.5, 1.0, 3.0, 1e4])
        for params in [worked_market] + [random_market(rng, k) for k in (3, 6)]:
            portfolios = random_feasible(params, 20, seed=7)
            w = np.stack([p.w for p in portfolios])
            rows, inside = objective_rows(*portfolio_moments_rows(w, params.mu, params.sigma), gammas)
            assert inside.all()
            for i, p in enumerate(portfolios):
                assert np.array_equal(objective_value(p, params, gammas), rows[i])
                for gi, gamma in enumerate(gammas):
                    assert objective_value(p, params, gamma) == rows[i, gi]

    def test_moments_beyond_the_double_range_warn_nothing(self):
        # Sharpe moments of markets with r_gmv near or at 0: r_gmv + s t
        # and v_gmv + s t^2 are huge, infinite or NaN. No warning (which
        # pytest makes an error), and NaN outside the domain x > 0.
        x = np.array([1e200, 1e300, np.inf, np.nan, -np.inf, -1e300])
        v = np.array([1e300, np.inf, np.inf, np.nan, np.inf, 1e300])
        utility, inside = objective_rows(x, v, [0.5, 1.0, 3.0, 1e8])
        assert inside.tolist() == [True, True, True, False, False, False]
        assert np.isnan(utility[~inside]).all()
        assert not np.isnan(utility[:2]).any()

class TestUtilityKernel:
    """``crra._utility`` against 50-digit mpmath at the same double moments."""

    # mu = (1.02, 1.025), vols 1% and 1.2%, correlation 0.2.
    TWO_ASSETS = ([1.02, 1.025], [[1e-4, 2.4e-5], [2.4e-5, 1.44e-4]])

    @staticmethod
    def reference(x, y, gamma, w0):
        with mp.workdps(50):
            x, y, gamma = mp.mpf(float(x)), mp.mpf(float(y)), mp.mpf(gamma)
            level = mp.log(w0) + mp.log(x) - gamma / 2 * (mp.log(y) - 2 * mp.log(x))
            return level if gamma == 1 else mp.exp((1 - gamma) * level) / (1 - gamma)

    @pytest.mark.parametrize("w0", [0.028, 0.0275])
    def test_wealth_power_beyond_double_range(self, w0):
        # W0^(1-gamma) = W0^-199 overflows while E[U] itself fits a
        # double; at 0.0275, so does exp((1-gamma) L) without the 1/199.
        grid = power_grid(efficient_constants(MarketParams(*self.TWO_ASSETS)), (200.0,), w0)
        ref = self.reference(grid.x[0], grid.y[0], 200.0, w0)
        assert abs(ref) < np.finfo(float).max
        assert OUTCOMES[grid.outcome[0]] == "ok"
        assert grid.utility[0] == pytest.approx(float(ref), rel=1e-12)
        if w0 == 0.028:
            assert float(ref) == pytest.approx(-2.4915371240904555e305, rel=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(
        x=st.floats(0.9, 1.1),
        q=st.floats(1e-8, 0.1),
    )
    def test_agrees_with_mpmath_to_its_conditioning(self, x, q):
        # Gross means and variance ratios of real markets, where ln x is
        # small and L's cancellations matter most. Each term of L carries
        # a few ulps of rounding: that is the error of L itself (gamma =
        # 1), and exp((1 - gamma) L) turns |1 - gamma| times it into the
        # result's relative error.
        y = x * x * (1.0 + q)
        gammas = np.array([0.5, 1.0, 2.0, 10.0, 100.0, 1e3, 5e3])
        big, tiny = np.finfo(float).max, np.finfo(float).tiny
        for w0 in (0.01, 1.0, 100.0):
            got = _utility(x, y, gammas, w0)
            assert not np.isnan(got).any()
            for g, u in zip(gammas, got):
                ref = self.reference(x, y, g, w0)
                if abs(ref) > big:
                    assert u == math.copysign(math.inf, ref)
                elif abs(ref) < tiny:
                    assert abs(u) < tiny
                else:
                    terms = abs(math.log(w0)) + abs(math.log(x)) + g / 2 * (
                        abs(math.log(y)) + 2.0 * abs(math.log(x))
                    )
                    err_level = 4.0 * EPS * (1.0 + terms)
                    if g == 1.0:
                        assert abs(u - float(ref)) <= err_level
                        continue
                    rel = abs(1.0 - g) * err_level + 4.0 * EPS * (1.0 + abs(math.log(abs(1.0 - g))))
                    assert abs(u - float(ref)) <= rel * abs(float(ref))


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
