import math

import mpmath as mp
import numpy as np
import pytest
from scipy.stats import shapiro as scipy_shapiro

from crraport import normal_cdf, quantile, shapiro_wilk, shapiro_wilk_rows
from crraport.stats import TestResult as SWResult
from helpers import empirical_cdf


class TestNormalCdf:
    def test_center_and_known_quantile(self):
        assert normal_cdf(0.0) == 0.5
        assert abs(normal_cdf(1.959964) - 0.975) < 1e-6

    def test_against_high_precision_oracle(self):
        mp.mp.dps = 40
        xs = np.linspace(-8.0, 8.0, 321)
        for x in xs:
            ref = float(mp.ncdf(mp.mpf(float(x))))
            assert abs(normal_cdf(float(x)) - ref) <= 1e-12

    def test_symmetry_and_monotonicity_on_grid(self):
        grid = np.linspace(-10.0, 10.0, 100_000)
        values = normal_cdf(grid)
        assert np.all(np.diff(values) >= 0.0)
        sym_gap = np.abs(normal_cdf(-grid) - (1.0 - values))
        assert np.max(sym_gap) <= 1e-15

    def test_far_tails_clamp(self):
        lo = normal_cdf(-40.0)
        assert 0.0 <= lo <= 1e-300
        assert normal_cdf(40.0) <= 1.0
        assert not math.isnan(lo)

    def test_array_input(self):
        out = normal_cdf(np.array([[0.0, 1.0], [-1.0, 2.0]]))
        assert out.shape == (2, 2)
        assert out[0, 0] == 0.5


class TestShapiroWilk:
    def test_reference_fixtures(self, shapiro_reference):
        for name, rec in shapiro_reference.items():
            res = shapiro_wilk(rec["values"])
            assert abs(res.statistic - rec["statistic"]) <= 1e-3, name
            assert abs(res.p_value - rec["p_value"]) <= 1e-3, name

    def test_tracks_reference_closely(self, shapiro_reference):
        # Same approximation family, so agreement is far tighter than
        # the contractual 1e-3.
        for rec in shapiro_reference.values():
            res = shapiro_wilk(rec["values"])
            assert abs(res.statistic - rec["statistic"]) <= 1e-8
            assert abs(res.p_value - rec["p_value"]) <= 1e-6

    def test_against_scipy_on_random_sizes(self):
        rng = np.random.default_rng(7)
        for n in (3, 4, 5, 6, 11, 12, 25, 150, 600):
            x = rng.standard_normal(n) * 2.0 + 1.0
            mine = shapiro_wilk(x)
            ref = scipy_shapiro(x)
            assert abs(mine.statistic - ref.statistic) <= 1e-8
            assert abs(mine.p_value - ref.pvalue) <= 1e-6

    def test_null_pvalues_rarely_tiny(self):
        rng = np.random.default_rng(101)
        small = sum(
            shapiro_wilk(rng.standard_normal(100)).p_value <= 0.001
            for _ in range(1000)
        )
        assert small <= 10

    def test_power_against_exponential(self):
        rng = np.random.default_rng(17)
        rejected = sum(
            shapiro_wilk(rng.exponential(size=100)).p_value < 0.01
            for _ in range(300)
        )
        assert rejected >= 297

    def test_location_scale_invariance(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(80)
        base = shapiro_wilk(x)
        moved = shapiro_wilk(5.0 + 0.25 * x)
        assert abs(base.statistic - moved.statistic) <= 1e-12

    def test_exact_n3_cases(self):
        res = shapiro_wilk([1.0, 2.0, 3.0])
        assert res.statistic == pytest.approx(1.0, abs=1e-15)
        assert res.p_value == pytest.approx(1.0, abs=1e-12)
        res = shapiro_wilk([0.0, 0.0, 1.0])
        assert res.statistic == pytest.approx(0.75, abs=1e-15)
        assert res.p_value == 0.0

    def test_input_validation(self):
        with pytest.raises(ValueError, match=r"\[3, 5000\]"):
            shapiro_wilk([1.0, 2.0])
        with pytest.raises(ValueError, match=r"\[3, 5000\]"):
            shapiro_wilk(np.zeros(5001))
        with pytest.raises(ValueError, match="zero sample variance"):
            shapiro_wilk([2.0, 2.0, 2.0, 2.0])


class TestEmpiricalCdf:
    def test_singleton(self):
        f = empirical_cdf([4.0])
        assert f(4.0 - 1e-9) == 0.0
        assert f(4.0) == 1.0

    def test_counts(self):
        f = empirical_cdf([1.0, 2.0, 3.0])
        assert f(2.0) == pytest.approx(2.0 / 3.0)
        assert f(0.5) == 0.0
        assert f(100.0) == 1.0

    def test_nondecreasing_right_continuous(self):
        rng = np.random.default_rng(5)
        values = rng.standard_normal(200)
        f = empirical_cdf(values)
        grid = np.sort(np.concatenate([values, rng.uniform(-4, 4, 500)]))
        out = f(grid)
        assert np.all(np.diff(out) >= 0.0)
        # right-continuity: stepping up exactly at sample points
        assert all(f(v) > f(v - 1e-12) or f(v - 1e-12) == f(v) for v in values[:20])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            empirical_cdf([])


class TestShapiroWilkRows:
    @pytest.mark.parametrize("n", list(range(3, 13)) + [156, 520])
    def test_matches_scalar_and_scipy(self, n):
        rng = np.random.default_rng(n)
        rows = np.vstack(
            [
                0.001 + 0.03 * rng.standard_normal((4, n)),
                rng.exponential(size=(2, n)),
                np.r_[np.zeros(n - 1), 1.0],
            ]
        )
        w, p = shapiro_wilk_rows(rows)
        for i, row in enumerate(rows):
            one = shapiro_wilk(row)
            ref = scipy_shapiro(row)
            assert w[i] == pytest.approx(one.statistic, rel=1e-13, abs=1e-15)
            assert p[i] == pytest.approx(one.p_value, rel=1e-10, abs=1e-15)
            assert abs(w[i] - ref.statistic) <= 1e-8
            assert abs(p[i] - ref.pvalue) <= 1e-6

    def test_zero_range_row(self):
        rng = np.random.default_rng(12)
        rows = np.vstack([rng.standard_normal(20), np.full(20, 0.3), rng.standard_normal(20)])
        w, p = shapiro_wilk_rows(rows)
        assert np.isnan(w[1]) and np.isnan(p[1])
        for i in (0, 2):
            assert w[i] == pytest.approx(shapiro_wilk(rows[i]).statistic, rel=1e-13)
            assert 0.0 <= p[i] <= 1.0

    def test_validation(self):
        with pytest.raises(ValueError, match="2-d"):
            shapiro_wilk_rows(np.arange(5.0))
        with pytest.raises(ValueError, match=r"\[3, 5000\]"):
            shapiro_wilk_rows(np.zeros((2, 2)))
        with pytest.raises(ValueError, match="finite"):
            shapiro_wilk_rows([[1.0, 2.0, np.nan]])


class TestQuantile:
    def test_extremes(self):
        data = [3.0, 1.0, 2.0, 10.0]
        assert quantile(data, 0.0) == 1.0
        assert quantile(data, 1.0) == 10.0

    def test_type7_interpolation(self):
        assert quantile([1.0, 2.0, 3.0, 4.0], 0.25) == pytest.approx(1.75)

    def test_constant_list(self):
        for q in (0.0, 0.3, 0.99):
            assert quantile([5.0, 5.0, 5.0], q) == 5.0

    def test_monotone_in_q_and_affine_equivariant(self):
        rng = np.random.default_rng(11)
        data = rng.standard_normal(57)
        qs = np.linspace(0, 1, 21)
        vals = [quantile(data, q) for q in qs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        for q in (0.1, 0.5, 0.9):
            assert quantile(2.0 + 3.0 * data, q) == pytest.approx(
                2.0 + 3.0 * quantile(data, q), rel=1e-12
            )

    def test_validation(self):
        with pytest.raises(ValueError, match="empty"):
            quantile([], 0.5)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            quantile([1.0], 1.5)


def test_test_result_validation():
    with pytest.raises(ValueError, match="p-value"):
        SWResult(statistic=0.9, p_value=1.2)
    with pytest.raises(ValueError, match="finite"):
        SWResult(statistic=float("nan"), p_value=0.5)
