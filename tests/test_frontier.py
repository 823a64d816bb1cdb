import numpy as np
import pytest

from crraport import (
    MarketParams,
    ReturnMatrix,
    Weights,
    default_synth_spec,
    efficient_constants,
    estimate_params,
    gmv_weights,
    markowitz_weights,
    parabola_variance,
    portfolio_moments,
    sharpe_weights,
    synth_market,
)
from helpers import random_feasible_weights, random_market


class TestEfficientConstants:
    def test_worked_market(self, worked_market, worked_values):
        con = efficient_constants(worked_market)
        assert con.r_gmv == pytest.approx(worked_values["r_gmv"], rel=1e-12)
        assert con.v_gmv == pytest.approx(worked_values["v_gmv"], rel=1e-12)
        assert con.s == pytest.approx(worked_values["s"], rel=1e-12)
        np.testing.assert_allclose(con.tilt, worked_values["q_mu"], atol=1e-10)
        np.testing.assert_allclose(con.w_gmv.w, [0.8, 0.2], rtol=1e-12)

    def test_equal_means_zero_slope(self):
        params = MarketParams([1.03, 1.03, 1.03], np.diag([1e-4, 2e-4, 3e-4]))
        con = efficient_constants(params)
        assert abs(con.s) <= 1e-10

    def test_covariance_scaling(self, worked_market):
        con = efficient_constants(worked_market)
        for t in (0.5, 4.0):
            scaled = MarketParams(worked_market.mu, t * worked_market.sigma)
            con_t = efficient_constants(scaled)
            assert con_t.r_gmv == pytest.approx(con.r_gmv, rel=1e-10)
            assert con_t.v_gmv == pytest.approx(t * con.v_gmv, rel=1e-10)
            assert con_t.s == pytest.approx(con.s / t, rel=1e-10)

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
            # 1' tilt = 0 relative to its terms
            assert abs(con.tilt.sum()) <= 1e-12 * np.abs(con.tilt).sum()
            assert float(params.mu @ con.tilt) == pytest.approx(con.s, rel=1e-10)
            assert float(con.tilt @ params.sigma @ con.tilt) == pytest.approx(con.s, rel=1e-10)
            np.testing.assert_allclose(con.w_gmv.w, gmv_weights(params).w, rtol=0, atol=1e-12)
            # solve-route slope agrees up to the cancellation floor
            ones_v = params.solve(np.ones(params.k))
            mu_v = params.solve(params.mu)
            s_solve = float(params.mu @ mu_v) - float(np.ones(params.k) @ mu_v) ** 2 / float(
                np.ones(params.k) @ ones_v
            )
            assert s_solve == pytest.approx(con.s, rel=1e-7, abs=1e-10)

    def test_slope_accuracy_against_50_digits(self):
        import mpmath as mp

        mp.mp.dps = 50
        values = synth_market(default_synth_spec(), 7).values
        rng = np.random.default_rng(26)
        worst = 0.0
        for _ in range(300):
            k = int(rng.integers(2, 9))
            cols = np.sort(rng.choice(values.shape[1], size=k, replace=False))
            params = estimate_params(ReturnMatrix(values[:, cols]))
            sigma = mp.matrix([[mp.mpf(float(v)) for v in row] for row in params.sigma])
            mu = mp.matrix([mp.mpf(float(v)) for v in params.mu])
            sinv_one = mp.lu_solve(sigma, mp.matrix([1] * k))
            sinv_mu = mp.lu_solve(sigma, mu)
            a, b = sum(sinv_one), sum(sinv_mu)
            s_ref = sum(m * v for m, v in zip(mu, sinv_mu)) - b * b / a
            s = efficient_constants(params).s
            worst = max(worst, float(abs(mp.mpf(s) - s_ref) / s_ref))
        assert worst <= 1e-10

    def test_small_volatility_market_accepted(self):
        # Volatilities of 0.2%-0.45% put |Sigma^-1| near 4e7; the
        # null-space and slope checks must scale with it.
        spec = default_synth_spec()
        params = MarketParams(spec.mu0, spec.sigma0 * 1e-4)
        con = efficient_constants(params)
        ref = efficient_constants(MarketParams(spec.mu0, spec.sigma0))
        assert con.r_gmv == pytest.approx(ref.r_gmv, rel=1e-12)
        assert con.v_gmv == pytest.approx(1e-4 * ref.v_gmv, rel=1e-10)
        assert con.s == pytest.approx(1e4 * ref.s, rel=1e-10)


class TestGmvWeights:
    def test_worked(self, worked_market):
        np.testing.assert_allclose(gmv_weights(worked_market).w, [0.8, 0.2], rtol=1e-12)

    def test_identity_covariance_symmetric(self):
        params = MarketParams(1.0 + 0.01 * np.arange(5), np.eye(5) * 4e-4)
        np.testing.assert_allclose(gmv_weights(params).w, np.full(5, 0.2), rtol=1e-12)

    def test_variance_equals_v_gmv(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            params = random_market(rng, 5)
            con = efficient_constants(params)
            _, v = portfolio_moments(gmv_weights(params), params)
            assert v == pytest.approx(con.v_gmv, rel=1e-10)


class TestSharpeWeights:
    def test_worked(self, worked_market, worked_values):
        np.testing.assert_allclose(
            sharpe_weights(worked_market).w, worked_values["w_sharpe"], rtol=1e-12
        )

    def test_expected_return(self, worked_market, worked_values):
        x, _ = portfolio_moments(sharpe_weights(worked_market), worked_market)
        assert x == pytest.approx(worked_values["sharpe_return"], rel=1e-12)

    def test_equal_means_match_gmv(self):
        params = MarketParams([1.02, 1.02], np.diag([1e-4, 4e-4]))
        np.testing.assert_allclose(
            sharpe_weights(params).w, gmv_weights(params).w, atol=1e-12
        )

    def test_undefined_when_denominator_vanishes(self):
        # 1' Sigma^-1 mu = 100*0.04 + 25*(-0.16) = 0
        params = MarketParams([0.04, -0.16], np.diag([0.01, 0.04]))
        with pytest.raises(ValueError, match="Sharpe portfolio undefined"):
            sharpe_weights(params)

    def test_scale_invariance(self, worked_market):
        base = sharpe_weights(worked_market).w
        scaled = MarketParams(worked_market.mu, 3.0 * worked_market.sigma)
        np.testing.assert_allclose(sharpe_weights(scaled).w, base, atol=1e-10)
        np.testing.assert_allclose(
            gmv_weights(scaled).w, gmv_weights(worked_market).w, atol=1e-10
        )


class TestPortfolioMoments:
    def test_unit_vector(self, worked_market):
        x, v = portfolio_moments(Weights([1.0, 0.0]), worked_market)
        assert (x, v) == (1.05, 0.01)

    def test_gmv_minimality_random_weights(self):
        rng = np.random.default_rng(23)
        params = random_market(rng, 4)
        con = efficient_constants(params)
        w_gmv = gmv_weights(params).w
        draws = random_feasible_weights(rng, 4, 10_000)
        variances = np.einsum("ij,jk,ik->i", draws, params.sigma, draws)
        assert np.all(variances >= con.v_gmv - 1e-10)
        far = np.max(np.abs(draws - w_gmv), axis=1) > 1e-6
        assert np.all(variances[far] > con.v_gmv)

    def test_dimension_mismatch(self, worked_market):
        with pytest.raises(ValueError, match="dimension"):
            portfolio_moments(Weights([0.5, 0.25, 0.25]), worked_market)


class TestMarkowitzWeights:
    def test_at_gmv_mean(self, worked_market):
        con = efficient_constants(worked_market)
        w = markowitz_weights(con.r_gmv, worked_market, con)
        np.testing.assert_allclose(w.w, gmv_weights(worked_market).w, atol=1e-10)

    def test_worked_target(self, worked_market):
        con = efficient_constants(worked_market)
        w = markowitz_weights(1.157942, worked_market, con)
        np.testing.assert_allclose(w.w, [-0.07942, 1.07942], atol=1e-9)

    def test_hits_target_mean(self):
        rng = np.random.default_rng(24)
        for _ in range(10):
            params = random_market(rng, int(rng.integers(2, 7)))
            con = efficient_constants(params)
            x_target = con.r_gmv + rng.uniform(-0.2, 0.2)
            w = markowitz_weights(x_target, params, con)
            x, _ = portfolio_moments(w, params)
            assert abs(x - x_target) <= 1e-10

    def test_on_parabola(self):
        rng = np.random.default_rng(25)
        params = random_market(rng, 5)
        con = efficient_constants(params)
        for x_target in con.r_gmv + np.array([-0.1, -0.01, 0.02, 0.15]):
            w = markowitz_weights(float(x_target), params, con)
            x, v = portfolio_moments(w, params)
            assert (x - con.r_gmv) ** 2 == pytest.approx(
                con.s * (v - con.v_gmv), rel=1e-8, abs=1e-14
            )

    def test_degenerate_frontier_rejected(self):
        params = MarketParams([1.03, 1.03, 1.03], np.diag([1e-4, 2e-4, 3e-4]))
        con = efficient_constants(params)
        with pytest.raises(ValueError, match="degenerate frontier"):
            markowitz_weights(1.05, params, con)


class TestParabolaVariance:
    def test_vertex(self, worked_market):
        con = efficient_constants(worked_market)
        assert parabola_variance(con.r_gmv, con) == con.v_gmv

    def test_even_symmetry(self, worked_market):
        con = efficient_constants(worked_market)
        for d in (0.01, 0.08, 0.2):
            assert parabola_variance(con.r_gmv + d, con) == pytest.approx(
                parabola_variance(con.r_gmv - d, con), rel=1e-14
            )

    def test_worked_value_consistent_with_moments(self, worked_market):
        con = efficient_constants(worked_market)
        x_target = 1.157942
        v_parab = parabola_variance(x_target, con)
        assert v_parab == pytest.approx(0.087942**2 / 0.2 + 0.008, rel=1e-10)
        _, v_moments = portfolio_moments(
            markowitz_weights(x_target, worked_market, con), worked_market
        )
        assert v_parab == pytest.approx(v_moments, rel=1e-8)

    def test_degenerate_frontier_rejected(self):
        params = MarketParams([1.03, 1.03], np.diag([1e-4, 2e-4]))
        con = efficient_constants(params)
        with pytest.raises(ValueError, match="degenerate frontier"):
            parabola_variance(1.05, con)


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
