import logging
import re

import numpy as np
import pytest
import scipy.optimize

import crraport.oracle
from crraport import (
    MarketParams,
    OracleConfig,
    Weights,
    efficient_constants,
    gamma_min,
    log_solution,
    maximize_numeric,
    objective_value,
    power_solution,
    random_feasible,
)
from crraport.oracle import (
    _ADAPTIVE_ABOVE_K,
    _DOMAIN_FLOOR,
    _MAX_LEVERAGE,
    _TOL_OBJ,
    _leverage,
    _objective,
    _reduced_moments,
)
from helpers import ill_conditioned_market, market_with_constants, random_market

EPS = np.finfo(float).eps

# scipy warns "invalid value encountered in subtract" when a whole simplex
# scores inf: no solve here may search from such a simplex.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


class TestOracleConfig:
    def test_defaults(self):
        cfg = OracleConfig()
        assert cfg.n_starts == 16

    def test_validation(self):
        with pytest.raises(ValueError, match="n_starts"):
            OracleConfig(n_starts=0)


class TestRandomFeasible:
    def test_sum_to_one_exactly(self, worked_market):
        for w in random_feasible(worked_market, 50, seed=1):
            assert abs(w.w.sum() - 1.0) <= 1e-12

    def test_deterministic(self, worked_market):
        a = random_feasible(worked_market, 20, seed=9)
        b = random_feasible(worked_market, 20, seed=9)
        assert all(np.array_equal(x.w, y.w) for x, y in zip(a, b))

    def test_positive_mean_always_accepted_on_worked_market(self, worked_market):
        # every box draw has w'mu in [0.85, 1.35] here, so acceptance
        # is 100% (>= the 95% the sampler needs)
        draws = random_feasible(worked_market, 200, seed=3)
        assert len(draws) == 200
        assert all(w.w @ worked_market.mu > 0.0 for w in draws)

    def test_n_validation(self, worked_market):
        with pytest.raises(ValueError, match="at least 1"):
            random_feasible(worked_market, 0, seed=0)


class TestMaximizeNumeric:
    def test_worked_market_agreement(self, worked_market, worked_values):
        sol = power_solution(3.0, worked_market)
        w, obj = maximize_numeric(worked_market, 3.0, OracleConfig(n_starts=8, seed=4))
        assert np.max(np.abs(w.w - np.asarray(worked_values["weights"]))) <= 1e-5
        assert abs(obj - sol.expected_utility) <= 1e-9 * abs(sol.expected_utility)

    def test_argmax_on_parabola(self):
        params = MarketParams([1.05, 1.15], 0.01 * np.eye(2))
        con = efficient_constants(params)
        gamma = gamma_min(con) + 0.5
        w, _ = maximize_numeric(params, gamma, OracleConfig(n_starts=8, seed=5))
        x = float(w.w @ params.mu)
        v = float(w.w @ params.sigma @ w.w)
        assert (x - con.r_gmv) ** 2 == pytest.approx(
            con.s * (v - con.v_gmv), abs=1e-6
        )

    def test_gamma_one_matches_log_solution(self):
        params = market_with_constants(1.05, 0.004, 0.05)
        sol = log_solution(params)
        w, obj = maximize_numeric(params, 1.0, OracleConfig(n_starts=8, seed=6))
        assert np.max(np.abs(w.w - sol.weights.w)) <= 1e-5
        assert abs(obj - sol.expected_utility) <= 1e-9 * max(
            1.0, abs(sol.expected_utility)
        )

    def test_agreement_on_random_markets(self):
        rng = np.random.default_rng(50)
        for i in range(8):
            params = random_market(rng, int(rng.integers(2, 6)))
            gm = gamma_min(efficient_constants(params))
            for gamma in (gm + 0.1, gm + 3.0):
                sol = power_solution(gamma, params)
                w, obj = maximize_numeric(
                    params, gamma, OracleConfig(n_starts=6, seed=i)
                )
                assert np.max(np.abs(w.w - sol.weights.w)) <= 1e-5
                assert abs(obj - sol.expected_utility) <= 1e-9 * max(
                    1.0, abs(sol.expected_utility)
                )

    def test_no_random_improvement(self, worked_market):
        _, obj = maximize_numeric(worked_market, 3.0, OracleConfig(n_starts=6, seed=7))
        for w in random_feasible(worked_market, 500, seed=8):
            assert objective_value(w, worked_market, 3.0) <= obj + 1e-9

    def test_constraint_exact(self, worked_market):
        w, _ = maximize_numeric(worked_market, 5.0, OracleConfig(n_starts=6, seed=9))
        assert abs(w.w.sum() - 1.0) <= 1e-12

    def test_deterministic_given_config(self, worked_market):
        cfg = OracleConfig(n_starts=8, seed=10)
        w1, o1 = maximize_numeric(worked_market, 3.0, cfg)
        w2, o2 = maximize_numeric(worked_market, 3.0, cfg)
        assert np.array_equal(w1.w, w2.w) and o1 == o2

    @pytest.mark.parametrize(
        "mu, n_fixed", [([1.05, 1.15], 3), ([0.04, -0.16], 2)], ids=["sharpe_defined", "sharpe_undefined"]
    )
    def test_random_starts_fill_the_fixed_ones(self, monkeypatch, mu, n_fixed):
        # GMV, Sharpe where it is defined (1' Sigma^-1 mu != 0) and equal
        # weights, then random starts up to n_starts.
        asked = []

        def spy(params, n, seed):
            asked.append(n)
            raise LookupError("stop before the search")

        monkeypatch.setattr(crraport.oracle, "random_feasible", spy)
        with pytest.raises(LookupError):
            maximize_numeric(MarketParams(mu, np.diag([0.01, 0.04])), 3.0, OracleConfig(n_starts=6, seed=3))
        assert asked == [6 - n_fixed]

    def test_empty_domain_error(self):
        # all-negative gross means: every candidate in the sampling box
        # has w'mu < 0
        params = MarketParams([-0.5, -0.6], np.diag([0.01, 0.04]))
        with pytest.raises(ValueError, match="objective domain empty"):
            maximize_numeric(params, 3.0, OracleConfig(n_starts=6, seed=11))

    def test_agreement_above_the_adaptive_threshold(self):
        # The Gao-Han coefficients run only above _ADAPTIVE_ABOVE_K assets;
        # criterion 1's tolerances hold there too, just above gamma_min
        # (where the objective is flattest) and at gamma 5. The k = 17
        # market of seed 0 (optimum at max|w| = 24) is missed by 1.1e-4
        # with the classic coefficients and by 6.9e-5 when the polish
        # restarts from scipy's default simplex.
        cases = []
        for seed in (0, 5):
            rng = np.random.default_rng(seed)
            cases += [(seed, random_market(rng, k)) for k in (12, 17)]
        n_solves = 0
        for seed, params in cases:
            assert params.k > _ADAPTIVE_ABOVE_K
            gm = gamma_min(efficient_constants(params))
            for gamma in sorted({gm + 0.1} | ({5.0} if 5.0 > gm else set())):
                sol = power_solution(gamma, params)
                assert np.max(np.abs(sol.weights.w)) < 0.5 * _MAX_LEVERAGE
                w, obj = maximize_numeric(
                    params, gamma, OracleConfig(n_starts=6, seed=seed)
                )
                assert np.max(np.abs(w.w - sol.weights.w)) <= 1e-5
                assert abs(obj - sol.expected_utility) <= 1e-9 * max(
                    1.0, abs(sol.expected_utility)
                )
                n_solves += 1
        assert n_solves >= 5

    def test_overflowing_starts_are_dropped(self, caplog):
        # At gamma 200 some random starts' expected utility overflows to
        # -inf; they are dropped before the search, not searched from.
        params = random_market(np.random.default_rng(1), 3)
        sol = power_solution(200.0, params)
        with caplog.at_level(logging.DEBUG, logger="crraport.oracle"):
            w, obj = maximize_numeric(params, 200.0, OracleConfig())
        assert np.max(np.abs(w.w - sol.weights.w)) <= 1e-5
        assert abs(obj - sol.expected_utility) <= 1e-9 * max(
            1.0, abs(sol.expected_utility)
        )
        (record,) = [r for r in caplog.records if r.name == "crraport.oracle"]
        starts, kept = map(
            int, re.search(r"(\d+) starts, (\d+) kept", record.getMessage()).groups()
        )
        assert 0 < kept < starts == 16

    def test_overflow_at_every_start_error(self, monkeypatch):
        # At gamma 1e4 every start overflows: the oracle says so before
        # running a single search.
        def no_search(*args, **kwargs):
            raise AssertionError("a search ran")

        monkeypatch.setattr(crraport.oracle, "minimize", no_search)
        params = random_market(np.random.default_rng(1), 3)
        with pytest.raises(ValueError, match="overflows at every start"):
            maximize_numeric(params, 1e4, OracleConfig())

    def test_gamma_validation(self, worked_market):
        with pytest.raises(ValueError, match="risk aversion"):
            maximize_numeric(worked_market, 0.0)

    def test_every_run_divergent_error(self):
        # r_gmv = 0, so no bounded maximum exists; the starts themselves
        # are in the domain (w = (1, 0) has w'mu = 0.04 > 0).
        params = MarketParams([0.04, -0.16], np.diag([0.01, 0.04]))
        message = r"converged inside the leverage box: (\d+) of \1 diverged to it"
        with pytest.raises(ValueError, match=message):
            maximize_numeric(params, 3.0, OracleConfig(n_starts=6, seed=3))

    def test_debug_line_reports_the_search(self, monkeypatch, caplog, worked_market):
        nfevs = []

        def counting(*args, **kwargs):
            res = scipy.optimize.minimize(*args, **kwargs)
            nfevs.append(res.nfev)
            return res

        monkeypatch.setattr(crraport.oracle, "minimize", counting)
        with caplog.at_level(logging.DEBUG, logger="crraport.oracle"):
            w, _ = maximize_numeric(
                worked_market, 3.0, OracleConfig(n_starts=8, seed=4)
            )
        (record,) = [r for r in caplog.records if r.name == "crraport.oracle"]
        m = re.search(
            r"(\d+) starts, (\d+) kept, (\d+) divergent; screen nfev (\d+); "
            r"polish (\d+) rounds, nfev (\d+), last gain \S+; max\|w\| (\S+)",
            record.getMessage(),
        )
        starts, kept, divergent, screen, rounds, polish = map(int, m.groups()[:6])
        assert (starts, kept, divergent) == (8, 8, 0)
        assert len(nfevs) == kept + rounds
        assert screen + polish == sum(nfevs)
        assert float(m.group(7)) == pytest.approx(np.max(np.abs(w.w)), rel=1e-5)

    def test_screen_leaves_no_coarse_answer(self, worked_market):
        # One more tight Nelder-Mead run from the returned weights, on
        # the objective evaluated from the full weights, gains nothing.
        rng = np.random.default_rng(61)
        cases = [(worked_market, 3.0)]
        for _ in range(4):
            params = random_market(rng, int(rng.integers(2, 8)))
            cases.append((params, gamma_min(efficient_constants(params)) + 0.5))
        for i, (params, gamma) in enumerate(cases):
            w, obj = maximize_numeric(params, gamma, OracleConfig(n_starts=6, seed=i))

            def neg_objective(u):
                full = np.append(u, 1.0 - u.sum())
                x = float(full @ params.mu)
                if np.max(np.abs(full)) > _MAX_LEVERAGE or x <= _DOMAIN_FLOOR:
                    return np.inf
                y = float(full @ params.sigma @ full) + x * x
                return -_objective(x, y, gamma, 1.0)

            res = scipy.optimize.minimize(
                neg_objective,
                w.w[:-1],
                method="Nelder-Mead",
                options={"xatol": 1e-9, "fatol": _TOL_OBJ, "adaptive": params.k > 4},
            )
            assert -res.fun - obj <= _TOL_OBJ * max(1.0, abs(obj))
            sol = power_solution(gamma, params)
            assert np.max(np.abs(w.w - sol.weights.w)) <= 1e-5
            assert abs(obj - sol.expected_utility) <= 1e-9 * max(
                1.0, abs(sol.expected_utility)
            )

    def test_benchmark_contract(self, worked_market):
        # benchmarks/layertrace.py counts nfev by wrapping this binding.
        assert crraport.oracle.minimize is scipy.optimize.minimize
        out = maximize_numeric(worked_market, 3.0, OracleConfig(n_starts=3, seed=0))
        assert isinstance(out, tuple) and len(out) == 2
        assert isinstance(out[0], Weights) and isinstance(out[1], float)


class TestReducedForms:
    """The moments the search evaluates against those of the full weights."""

    @staticmethod
    def _draws(rng, k):
        inside = rng.uniform(-3.0, 3.0, (20, k - 1))
        edge = 1.2 * _MAX_LEVERAGE
        straddling = rng.uniform(-edge, edge, (20, k - 1))
        # every |u_i| < _MAX_LEVERAGE, but 1 - 1'u beyond it
        last_only = np.full((5, k - 1), -1.0 / (k - 1)) * (
            _MAX_LEVERAGE + rng.uniform(0.1, 5.0, (5, 1))
        )
        return np.vstack([inside, straddling, last_only])

    def test_against_full_weights(self):
        rng = np.random.default_rng(70)
        markets = [random_market(rng, int(rng.integers(2, 9))) for _ in range(10)]
        markets += [ill_conditioned_market(rng) for _ in range(20)]
        n_last_only = 0
        for params in markets:
            moments = _reduced_moments(params)
            for u in self._draws(rng, params.k):
                w = np.append(u, 1.0 - u.sum())
                x, v = moments(u)
                scale_x = np.abs(w) @ np.abs(params.mu)
                assert abs(x - w @ params.mu) <= 4 * EPS * scale_x
                # a few ulps of |w|'|Sigma||w|, the scale of the sum's terms
                scale_v = np.abs(w) @ np.abs(params.sigma) @ np.abs(w)
                assert abs(v - w @ params.sigma @ w) <= 32 * EPS * scale_v
                outside = np.max(np.abs(w)) > _MAX_LEVERAGE
                assert (_leverage(u) > _MAX_LEVERAGE) == outside
                n_last_only += outside and np.max(np.abs(u)) <= _MAX_LEVERAGE
        assert n_last_only >= 5 * len(markets)
