import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crraport import normal_cdf, psi, psi_sup_bound, psi_sup_empirical
from helpers import LogNormalParams, lognormal_moment, match_params


class TestLognormalMoment:
    def test_zeroth_moment(self):
        assert lognormal_moment(LogNormalParams(0.3, 0.5), 0.0) == 1.0

    def test_unit_case(self):
        assert lognormal_moment(LogNormalParams(0.0, 2.0), 1.0) == pytest.approx(
            math.e, rel=1e-15
        )

    def test_matched_moments(self):
        p = match_params(2.0, 1.0)
        assert lognormal_moment(p, 1.0) == pytest.approx(2.0, rel=1e-12)
        assert lognormal_moment(p, 2.0) == pytest.approx(5.0, rel=1e-12)

    def test_overflow_reported(self):
        with pytest.raises(OverflowError, match="700"):
            lognormal_moment(LogNormalParams(0.0, 1.0), 40.0)


class TestMatchParams:
    def test_unit_example(self):
        p = match_params(1.0, 1.0)
        assert p.beta2 == pytest.approx(math.log(2.0), rel=1e-15)
        assert p.alpha == pytest.approx(-0.5 * math.log(2.0), rel=1e-15)

    def test_small_variance_limit(self):
        p = match_params(1.5, 1e-12)
        assert 0.0 < p.beta2 < 1e-11
        assert p.alpha == pytest.approx(math.log(1.5), abs=1e-11)

    @settings(max_examples=200, deadline=None)
    @given(
        e=st.floats(min_value=0.5, max_value=2.0),
        v=st.floats(min_value=1e-6, max_value=1.0),
    )
    def test_round_trip(self, e, v):
        p = match_params(e, v)
        assert lognormal_moment(p, 1.0) == pytest.approx(e, rel=1e-12)
        assert lognormal_moment(p, 2.0) == pytest.approx(v + e * e, rel=1e-12)


class TestPsi:
    def test_zero_at_mu(self):
        assert psi(1.3, 1.3, 0.2) == 0.0

    def test_tail_limits(self):
        assert abs(psi(1e9, 1.0, 0.1)) < 1e-12
        val = psi(1e-300, 1.0, 0.1)
        assert val == pytest.approx(normal_cdf(-1.0 / 0.1), rel=1e-12)

    def test_nonpositive_argument(self):
        assert psi(0.0, 1.0, 0.25) == pytest.approx(normal_cdf(-4.0), rel=1e-12)
        assert psi(-2.0, 1.0, 0.25) == pytest.approx(normal_cdf(-12.0), rel=1e-9)

    def test_positive_away_from_mu(self):
        mu, sigma = 1.2, 0.24
        for a in (0.3, 0.7, 0.9, 1.1, 1.5, 3.0):
            assert psi(a * mu, mu, sigma) > 0.0

    def test_array_shape(self):
        out = psi(np.array([[0.5, 1.0], [1.5, -1.0]]), 1.0, 0.1)
        assert out.shape == (2, 2)

    def test_validation(self):
        with pytest.raises(ValueError, match="positive"):
            psi(1.0, -1.0, 0.1)
        with pytest.raises(ValueError, match="positive"):
            psi(1.0, 1.0, 0.0)
        for mu, sigma in ((math.nan, 0.1), (1.0, math.nan)):
            with pytest.raises(ValueError, match="positive"):
                psi(1.0, mu, sigma)
            with pytest.raises(ValueError, match="positive"):
                psi_sup_bound(mu, sigma)
            with pytest.raises(ValueError, match="positive"):
                psi_sup_empirical(mu, sigma)


class TestPsiSupBound:
    def test_reference_values(self, worked_values):
        for ratio, expected in worked_values["psi_bound"].items():
            assert psi_sup_bound(1.0, float(ratio)) == pytest.approx(
                expected, rel=1e-12
            )

    def test_known_point(self):
        # second branch dominates at x = 0.1: (e^0.2 - 1 - 0.2)/0.1
        expected = (math.expm1(0.2) - 0.2) / 0.1 / math.sqrt(2 * math.pi)
        assert psi_sup_bound(1.0, 0.1) == pytest.approx(expected, rel=1e-14)
        assert psi_sup_bound(1.0, 0.1) == pytest.approx(0.08538, abs=5e-6)

    def test_scale_invariance_in_ratio(self):
        assert psi_sup_bound(2.0, 0.2) == pytest.approx(
            psi_sup_bound(1.0, 0.1), rel=1e-12
        )

    def test_rate_vanishes(self):
        ratios = [0.1, 0.05, 0.01, 0.001]
        rates = [psi_sup_bound(1.0, x) / x for x in ratios]
        assert all(b < a for a, b in zip(rates, rates[1:]))


class TestPsiSupEmpirical:
    def test_below_bound_and_positive(self):
        emp = psi_sup_empirical(1.0, 0.1)
        assert 0.0 < emp <= psi_sup_bound(1.0, 0.1)

    def test_deterministic(self):
        assert psi_sup_empirical(1.0, 0.07) == psi_sup_empirical(1.0, 0.07)

    def test_monotone_in_sigma(self):
        values = [psi_sup_empirical(1.0, s) for s in (0.1, 0.05, 0.025)]
        assert values[0] > values[1] > values[2] > 0.0

    def test_rate_bounded_by_one(self):
        for x in (0.1, 0.05, 0.01):
            assert psi_sup_empirical(1.0, x) / x <= 1.0

    def test_bound_holds_on_random_pairs(self):
        rng = np.random.default_rng(77)
        for _ in range(100):
            mu = rng.uniform(0.2, 5.0)
            ratio = rng.uniform(0.005, 0.3)
            assert psi_sup_empirical(mu, ratio * mu, 2000) <= psi_sup_bound(
                mu, ratio * mu
            )

    def test_grid_size_validated(self):
        with pytest.raises(ValueError, match="1000"):
            psi_sup_empirical(1.0, 0.1, 999)

    def test_is_attained_on_grid(self):
        mu, sigma = 1.0, 0.1
        emp = psi_sup_empirical(mu, sigma)
        probe = np.abs(psi(np.linspace(0.7, 1.3, 500), mu, sigma))
        assert emp >= probe.max() - 1e-12
