from types import SimpleNamespace

import mpmath as mp
import numpy as np
import pytest
from scipy import stats

from crraport import (
    MarketParams,
    ReturnMatrix,
    Weights,
    default_synth_spec,
    efficient_constants,
    efficient_constants_rows,
    estimate_params,
    objective_value,
    sharpe_weights,
    synth_market,
)
from crraport.frontier import FRONTIER_OUTCOMES, SLOPE_RTOL
from crraport.market import sample_moments, subset_rows
from helpers import (
    ACCURATE_NEAR_SINGULAR_MARKET,
    frontier_sample,
    ill_conditioned_market,
    mp_constants,
    portfolio_moments,
    random_feasible_weights,
    random_market,
    sigma_solve,
    slope_and_bound,
)

EPS = np.finfo(float).eps


class TestEfficientConstants:
    def test_worked_market(self, worked_market, worked_values):
        con = efficient_constants(worked_market)
        assert con.r_gmv == pytest.approx(worked_values["r_gmv"], rel=1e-12)
        assert con.v_gmv == pytest.approx(worked_values["v_gmv"], rel=1e-12)
        assert con.s == pytest.approx(worked_values["s"], rel=1e-12)
        np.testing.assert_allclose(con.tilt, worked_values["q_mu"], atol=1e-10)
        np.testing.assert_allclose(con.w_gmv, [0.8, 0.2], rtol=1e-12)

    def test_equal_means_zero_slope(self):
        # The slope is exactly 0, and so is its rounding bound: 0 is not
        # below SLOPE_RTOL of s.
        params = MarketParams([1.03, 1.03, 1.03], np.diag([1e-4, 2e-4, 3e-4]))
        con = efficient_constants_rows(params.mu, params.lower)
        assert FRONTIER_OUTCOMES[con.outcome] == "degenerate_frontier" and np.isnan(con.s)
        assert slope_and_bound(params) == (0.0, 0.0)
        with pytest.raises(ValueError, match="^degenerate frontier$"):
            efficient_constants(params)

    def test_covariance_scaling(self, worked_market):
        con = efficient_constants(worked_market)
        for t in (0.5, 4.0):
            scaled = MarketParams(worked_market.mu, t * worked_market.sigma)
            con_t = efficient_constants(scaled)
            assert con_t.r_gmv == pytest.approx(con.r_gmv, rel=1e-10)
            assert con_t.v_gmv == pytest.approx(t * con.v_gmv, rel=1e-10)
            assert con_t.s == pytest.approx(con.s / t, rel=1e-10)

    def test_batch_rows_equal_one_market_calls(self):
        # A stack of markets: each row is bitwise its own call, and a row
        # that fails a check is coded without stopping the others.
        rng = np.random.default_rng(33)
        markets = [random_market(rng, 5) for _ in range(7)]
        mu = np.stack([m.mu for m in markets])
        mu[3, 2] = np.nan
        con = efficient_constants_rows(mu, np.stack([m.lower for m in markets]))
        assert con.r_gmv.shape == (7,) and con.tilt.shape == (7, 5)
        assert [FRONTIER_OUTCOMES[c] for c in con.outcome] == ["ok"] * 3 + ["nonfinite_tilt"] + ["ok"] * 3
        assert np.isnan(con.r_gmv[3]) and np.all(np.isnan(con.w_gmv[3]))
        for b, params in enumerate(markets):
            if b == 3:
                continue
            one = efficient_constants(params)
            for name in ("r_gmv", "v_gmv", "s", "w_gmv", "tilt"):
                assert np.array_equal(getattr(con, name)[b], getattr(one, name)), (b, name)
        one = efficient_constants_rows(mu[3], markets[3].lower)
        assert FRONTIER_OUTCOMES[one.outcome] == "nonfinite_tilt" and np.isnan(one.r_gmv)

    def test_every_reachable_outcome_has_an_input(self):
        # One market per outcome, through the rows call and
        # efficient_constants' error.
        nan_mean = SimpleNamespace(mu=np.array([1.0, np.nan]), lower=np.eye(2))
        table = {
            # Condition number 5.7e12: the slope is accurate, and its
            # bound is 2.2e-8 of it.
            "ok": (MarketParams(ACCURATE_NEAR_SINGULAR_MARKET["mu"], ACCURATE_NEAR_SINGULAR_MARKET["sigma"]), None),
            # 1' Sigma^-1 1 overflows: w_gmv is NaN and v_gmv 0.
            "infeasible_gmv": (
                MarketParams([1.0, 1.1], np.diag([1e-310, 1e-310])),
                "GMV weights must be finite and v_gmv positive",
            ),
            "nonfinite_tilt": (nan_mean, "tilt must be finite"),
            # Condition number 4e20; squared pivots 5.75 and 0.081. The
            # slope's rounding bound exceeds s itself.
            "degenerate_frontier": (
                MarketParams(
                    [0.9654625287539494, 1.0000004532407853],
                    [[5.751754153283212, 438290.30860049266], [438290.30860049266, 33398227652.676865]],
                ),
                "degenerate frontier",
            ),
        }
        assert set(FRONTIER_OUTCOMES) == set(table)
        for name, (params, message) in table.items():
            con = efficient_constants_rows(params.mu, params.lower)
            assert FRONTIER_OUTCOMES[con.outcome] == name
            if message is None:
                efficient_constants(params)
                continue
            with pytest.raises(ValueError, match=f"^{message}$"):
                efficient_constants(params)

    def test_tilt_properties_random_markets(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            params = random_market(rng, int(rng.integers(2, 9)))
            con = efficient_constants(params)
            excess = params.mu - con.r_gmv
            # Sigma tilt = mu - r_gmv 1, i.e. tilt = Q mu
            np.testing.assert_allclose(
                params.sigma @ con.tilt, excess, rtol=0, atol=1e-10 * np.max(np.abs(excess))
            )
            # 1' tilt = 0 to the rounding of its terms
            assert abs(con.tilt.sum()) <= 4 * params.k * EPS * np.abs(con.tilt).sum()
            assert float(params.mu @ con.tilt) == pytest.approx(con.s, rel=1e-10)
            assert float(con.tilt @ params.sigma @ con.tilt) == pytest.approx(con.s, rel=1e-10)
            # GMV weights and solve-route slope agree with the separate
            # solves, the slope up to the cancellation floor
            ones_v = sigma_solve(params, np.ones(params.k))
            np.testing.assert_allclose(con.w_gmv, ones_v / ones_v.sum(), rtol=0, atol=1e-12)
            mu_v = sigma_solve(params, params.mu)
            s_solve = float(params.mu @ mu_v) - float(np.ones(params.k) @ mu_v) ** 2 / float(
                np.ones(params.k) @ ones_v
            )
            assert s_solve == pytest.approx(con.s, rel=1e-7, abs=1e-10)

    def test_tilt_meets_the_budget_on_ill_conditioned_markets(self):
        # Condition numbers 1 to 1e14: unprojected, the tilt of 21 of
        # the first 300 of these markets misses 1'x = 0 by more than this
        # bound, by up to 1.5e-6 of its terms. The slope rule rejects 56
        # of those 300, so 100 more are drawn.
        rng = np.random.default_rng(2040)
        n_markets = 0
        for i in range(400):
            try:
                params = ill_conditioned_market(rng, (0.0, 10.0) if i % 2 else (10.0, 14.0))
                con = efficient_constants(params)
            except ValueError:
                continue
            n_markets += 1
            assert abs(con.tilt.sum()) <= 4 * params.k * EPS * np.abs(con.tilt).sum(), i
        assert n_markets > 250

    def test_slope_accuracy_against_50_digits(self):
        # Study subsets: every slope within 1e-10 of a 50-digit solve.
        values = synth_market(default_synth_spec(), 7).values
        rng = np.random.default_rng(26)
        worst = 0.0
        for _ in range(300):
            k = int(rng.integers(2, 9))
            cols = np.sort(rng.choice(values.shape[1], size=k, replace=False))
            params = estimate_params(ReturnMatrix(values[:, cols]))
            s_ref = mp_constants(params.mu, params.sigma, dps=50)[2]
            s = efficient_constants(params).s
            worst = max(worst, float(abs(mp.mpf(s) - s_ref) / s_ref))
        assert worst <= 1e-10
        # Ill-conditioned markets of 2 to 50 assets, condition numbers 1
        # to 1e16: the frontier accepts exactly the slopes whose rounding
        # bound is below SLOPE_RTOL of them, and each accepted slope of up
        # to 30 assets (where the reference takes under 0.1 s) is within
        # its bound of a 50-digit solve. Here the bound exceeds the worst
        # error 195x.
        rng = np.random.default_rng(1)
        n_accepted = n_rejected = n_reference = 0
        worst = 0.0
        for _ in range(150):
            try:
                params = ill_conditioned_market(rng, (0.0, 16.0))
            except ValueError:
                continue
            s, bound = slope_and_bound(params)
            con = efficient_constants_rows(params.mu, params.lower)
            if not bound < SLOPE_RTOL * s:
                assert FRONTIER_OUTCOMES[con.outcome] == "degenerate_frontier"
                n_rejected += 1
                continue
            assert FRONTIER_OUTCOMES[con.outcome] == "ok" and con.s == s
            n_accepted += 1
            if params.k <= 30:
                s_ref = mp_constants(params.mu, params.sigma, dps=50)[2]
                worst = max(worst, float(abs(mp.mpf(s) - s_ref)) / bound)
                n_reference += 1
        assert worst <= 1.0
        assert n_reference >= 60 and n_accepted >= 100 and n_rejected >= 10

    def test_small_volatility_market_accepted(self):
        # Volatilities of 0.2%-0.45% put |Sigma^-1| near 4e7; the
        # budget and slope checks must scale with it.
        spec = default_synth_spec()
        params = MarketParams(spec.mu0, spec.sigma0 * 1e-4)
        con = efficient_constants(params)
        ref = efficient_constants(MarketParams(spec.mu0, spec.sigma0))
        assert con.r_gmv == pytest.approx(ref.r_gmv, rel=1e-12)
        assert con.v_gmv == pytest.approx(1e-4 * ref.v_gmv, rel=1e-10)
        assert con.s == pytest.approx(1e4 * ref.s, rel=1e-10)


class TestGmvWeights:
    def test_worked(self, worked_market):
        np.testing.assert_allclose(efficient_constants(worked_market).w_gmv, [0.8, 0.2], rtol=1e-12)

    def test_identity_covariance_symmetric(self):
        params = MarketParams(1.0 + 0.01 * np.arange(5), np.eye(5) * 4e-4)
        np.testing.assert_allclose(efficient_constants(params).w_gmv, np.full(5, 0.2), rtol=1e-12)

    def test_variance_equals_v_gmv(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            params = random_market(rng, 5)
            con = efficient_constants(params)
            _, v = portfolio_moments(Weights(con.w_gmv), params)
            assert v == pytest.approx(con.v_gmv, rel=1e-10)


class TestSharpeWeights:
    def test_worked(self, worked_market, worked_values):
        np.testing.assert_allclose(
            sharpe_weights(worked_market).w, worked_values["w_sharpe"], rtol=1e-12
        )

    def test_expected_return(self, worked_market, worked_values):
        x, _ = portfolio_moments(sharpe_weights(worked_market), worked_market)
        assert x == pytest.approx(worked_values["sharpe_return"], rel=1e-12)

    def test_equal_means_are_rejected(self):
        # The Sharpe portfolio is read off the frontier, which the slope
        # rule rejects where the means are equal.
        params = MarketParams([1.02, 1.02], np.diag([1e-4, 4e-4]))
        with pytest.raises(ValueError, match="^degenerate frontier$"):
            sharpe_weights(params)

    def test_undefined_when_denominator_vanishes(self):
        # 1' Sigma^-1 mu = 100*0.04 + 25*(-0.16) = 0
        params = MarketParams([0.04, -0.16], np.diag([0.01, 0.04]))
        assert efficient_constants(params).r_gmv == 0.0
        with pytest.raises(ValueError, match="^Sharpe portfolio undefined$"):
            sharpe_weights(params)

    def test_tiny_denominator_is_the_frontier_read(self):
        # 1' Sigma^-1 mu = 25e-13 against terms of 4: tiny but not zero.
        # The result is the Sharpe portfolio the study reads off the
        # constants, accurate to the conditioning |Sigma^-1 mu| / |1' Sigma^-1 mu|
        # (about 3e12) times the rounding unit.
        import mpmath as mp

        params = MarketParams([0.04, -0.16 + 1e-13], np.diag([0.01, 0.04]))
        con = efficient_constants(params)
        w = sharpe_weights(params).w
        assert np.array_equal(w, con.weights_at(con.t_sharpe))
        with mp.workdps(50):
            sinv_mu = [mp.mpf(float(m)) / mp.mpf(float(v)) for m, v in zip(params.mu, np.diag(params.sigma))]
            ref = np.array([float(x / sum(sinv_mu)) for x in sinv_mu])
        np.testing.assert_allclose(w, ref, rtol=1e-3)

    def test_scale_invariance(self, worked_market):
        base = sharpe_weights(worked_market).w
        scaled = MarketParams(worked_market.mu, 3.0 * worked_market.sigma)
        np.testing.assert_allclose(sharpe_weights(scaled).w, base, atol=1e-10)
        np.testing.assert_allclose(
            efficient_constants(scaled).w_gmv, efficient_constants(worked_market).w_gmv, atol=1e-10
        )


def test_gmv_and_sharpe_are_the_frontier_reads(worked_market):
    rng = np.random.default_rng(82)
    markets = [worked_market] + [random_market(rng, k) for k in range(2, 12)]
    markets += [ill_conditioned_market(rng) for _ in range(20)]
    for params in markets:
        con = efficient_constants(params)
        assert np.array_equal(Weights(con.w_gmv).w, con.w_gmv)
        assert np.array_equal(sharpe_weights(params).w, con.weights_at(con.t_sharpe))


class TestPortfolioMoments:
    def test_unit_vector(self, worked_market):
        x, v = portfolio_moments(Weights([1.0, 0.0]), worked_market)
        assert (x, v) == (1.05, 0.01)

    def test_gmv_minimality_random_weights(self):
        rng = np.random.default_rng(23)
        params = random_market(rng, 4)
        con = efficient_constants(params)
        w_gmv = con.w_gmv
        draws = random_feasible_weights(rng, 4, 10_000)
        variances = np.einsum("ij,jk,ik->i", draws, params.sigma, draws)
        assert np.all(variances >= con.v_gmv - 1e-10)
        far = np.max(np.abs(draws - w_gmv), axis=1) > 1e-6
        assert np.all(variances[far] > con.v_gmv)

    def test_dimension_mismatch(self, worked_market):
        with pytest.raises(ValueError, match="dimension"):
            objective_value(Weights([0.5, 0.25, 0.25]), worked_market, 2.0)


class TestMarkowitzWeights:
    """Frontier portfolios ``w_gmv + ((x - r_gmv) / s) tilt`` at target
    means x, as the frontier command samples them."""

    def test_at_gmv_mean(self, tmp_path, worked_market):
        con = efficient_constants(worked_market)
        sample = frontier_sample(tmp_path, worked_market, "--span", "0", "--points", "3")
        assert sample.code == 0
        for _, _, *w in sample.rows:
            np.testing.assert_array_equal(w, con.w_gmv)

    def test_worked_target(self, tmp_path, worked_market):
        # r_gmv = 1.07 and sqrt(s v_gmv) = 0.04, so span 2.19855 ends at 1.157942.
        sample = frontier_sample(tmp_path, worked_market, "--span", "2.19855", "--points", "2")
        x, _, *w = sample.rows[-1]
        assert x == pytest.approx(1.157942, abs=1e-12)
        np.testing.assert_allclose(w, [-0.07942, 1.07942], atol=1e-9)

    def test_hits_target_mean(self, tmp_path):
        rng = np.random.default_rng(24)
        for _ in range(10):
            params = random_market(rng, int(rng.integers(2, 7)))
            sample = frontier_sample(tmp_path, params, "--points", "9")
            assert sample.code == 0
            for x_target, _, *w in sample.rows:
                x, _ = portfolio_moments(Weights(w), params)
                assert abs(x - x_target) <= 1e-10

    def test_on_parabola(self, tmp_path):
        rng = np.random.default_rng(25)
        params = random_market(rng, 5)
        con = efficient_constants(params)
        sample = frontier_sample(tmp_path, params, "--points", "9")
        assert sample.code == 0
        for x_target, v_target, *w in sample.rows:
            x, v = portfolio_moments(Weights(w), params)
            assert (x - con.r_gmv) ** 2 == pytest.approx(
                con.s * (v - con.v_gmv), rel=1e-8, abs=1e-14
            )
            assert v == pytest.approx(v_target, rel=1e-8, abs=1e-14)

    def test_degenerate_frontier_rejected(self, tmp_path):
        params = MarketParams([1.03, 1.03, 1.03], np.diag([1e-4, 2e-4, 3e-4]))
        sample = frontier_sample(tmp_path, params)
        assert sample == (2, {"error": "degenerate frontier"}, None)


class TestParabolaVariance:
    """The variances ``(x - r_gmv)^2 / s + v_gmv`` the frontier command
    samples at target means x."""

    def test_vertex(self, tmp_path, worked_market):
        con = efficient_constants(worked_market)
        sample = frontier_sample(tmp_path, worked_market, "--span", "0", "--points", "3")
        points = [(p["x"], p["v"]) for p in sample.payload["points"]]
        assert points == [(con.r_gmv, con.v_gmv)] * 3
        assert [(x, v) for x, v, *_ in sample.rows] == points

    def test_worked_value_consistent_with_moments(self, tmp_path, worked_market):
        sample = frontier_sample(tmp_path, worked_market, "--span", "2.19855", "--points", "2")
        _, v_parab, *w = sample.rows[-1]
        assert v_parab == pytest.approx(0.087942**2 / 0.2 + 0.008, rel=1e-10)
        _, v_moments = portfolio_moments(Weights(w), worked_market)
        assert v_parab == pytest.approx(v_moments, rel=1e-8)

    def test_degenerate_frontier_rejected(self, tmp_path):
        params = MarketParams([1.03, 1.03], np.diag([1e-4, 2e-4]))
        sample = frontier_sample(tmp_path, params)
        assert sample == (2, {"error": "degenerate frontier"}, None)


def test_weights_validation():
    with pytest.raises(ValueError, match="sum to 1"):
        Weights([0.6, 0.6])
    with pytest.raises(ValueError, match="finite"):
        Weights([np.inf, 1.0])
    w = Weights([0.25, 0.75])
    with pytest.raises(ValueError):
        w.w[0] = 1.0


def test_weights_sum_tolerance_scales_with_leverage():
    # sum|w| = 78: rounding of 1.13e-10 in the sum is 1.5e-12 of it
    Weights([39.5, -38.5 + 1.13e-10])
    with pytest.raises(ValueError, match="sum to 1"):
        Weights([39.5, -38.5 + 1e-8])
    with pytest.raises(ValueError, match="sum to 1"):
        Weights([0.5, 0.5 + 2e-10])


class TestFiniteSampleLaws:
    """The study's batch path, ``sample_moments`` -> ``subset_rows`` ->
    ``efficient_constants_rows``, against the exact laws of the sample
    frontier of i.i.d. normal returns with the unbiased covariance (Kan
    and Smith 2008; Bodnar and Schmid 2009), at n = 156 periods of the
    shipped calibration's first k assets:

        (n - 1) v_gmv_hat / v_gmv ~ chi2(n - k),
        s_hat ~ (n - 1)(k - 1) / (n (n - k + 1)) F'(k - 1, n - k + 1; n s).

    With 10,000 draws per k, the v_gmv test also rejects chi2(n - k + 1)
    and the law a divisor-n covariance gives, (n - 1)/n times the true
    one, at both k. The slope test rejects a central F (the
    noncentrality n s dropped) at k = 14, where n s is 1.7, but not at
    k = 4 (n s = 0.08), and it cannot tell a divisor-n covariance (a
    0.6% change of scale) from the true law at either k.
    """

    N_PERIODS = 156
    N_DRAWS = 10_000

    def draws(self, k: int, m: int, seed: int):
        """v_gmv_hat and s_hat of N_DRAWS panels, and the true constants.
        The panels are drawn m at a time, as the k-column blocks of one
        wide panel: one ``sample_moments`` call serves all m, and
        ``subset_rows`` gathers their blocks."""
        spec = default_synth_spec()
        mu0, sigma0 = spec.mu0[:k], spec.sigma0[:k, :k]
        chol = np.linalg.cholesky(sigma0)
        rng = np.random.default_rng(seed)
        n = self.N_PERIODS
        blocks = np.arange(m * k).reshape(m, k)
        v_gmv, s = [], []
        for _ in range(self.N_DRAWS // m):
            values = (rng.standard_normal((n * m, k)) @ chol.T + (mu0 - 1.0)).reshape(n, m * k)
            mu, sigma = sample_moments(ReturnMatrix(values))
            sub_mu, _, lower, ok = subset_rows(mu, sigma, blocks)
            con = efficient_constants_rows(sub_mu, lower)
            assert ok.all() and (con.outcome == 0).all()
            v_gmv.append(con.v_gmv)
            s.append(con.s)
        return np.concatenate(v_gmv), np.concatenate(s), efficient_constants(MarketParams(mu0, sigma0))

    @pytest.mark.parametrize("k, m", [(4, 50), (14, 16)])
    def test_v_gmv_and_slope_follow_their_laws(self, k, m):
        n = self.N_PERIODS
        v_gmv, s, true = self.draws(k, m, seed=1000 * k)
        assert v_gmv.size == self.N_DRAWS
        ratio = (n - 1) * v_gmv / true.v_gmv
        assert stats.kstest(ratio, stats.chi2(n - k).cdf).pvalue > 1e-3
        assert stats.kstest(ratio, stats.chi2(n - k + 1).cdf).pvalue < 1e-3
        assert stats.kstest(ratio * (n - 1) / n, stats.chi2(n - k).cdf).pvalue < 1e-3
        f_draws = s / ((n - 1) * (k - 1) / (n * (n - k + 1)))
        assert stats.kstest(f_draws, stats.ncf(k - 1, n - k + 1, n * true.s).cdf).pvalue > 1e-3
        if k == 14:
            assert stats.kstest(f_draws, stats.f(k - 1, n - k + 1).cdf).pvalue < 1e-3
