import math

import mpmath as mp
import numpy as np
import pytest
from scipy.stats import shapiro as scipy_shapiro

from crraport import normal_cdf, quantile, quantile_columns, shapiro_wilk
from crraport.stats import TestResult as SWResult
from crraport.stats import shapiro_wilk_sorted
from helpers import empirical_cdf


class TestNormalCdf:
    def test_center_and_known_quantile(self):
        assert normal_cdf(0.0) == 0.5
        assert abs(normal_cdf(1.959964) - 0.975) < 1e-6

    def test_against_high_precision_oracle(self):
        with mp.workdps(40):
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
        w, p = shapiro_wilk_sorted(np.sort(rows, axis=1))
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
        w, p = shapiro_wilk_sorted(np.sort(rows, axis=1))
        assert np.isnan(w[1]) and np.isnan(p[1])
        for i in (0, 2):
            assert w[i] == pytest.approx(shapiro_wilk(rows[i]).statistic, rel=1e-13)
            assert 0.0 <= p[i] <= 1.0

    def test_validation(self):
        with pytest.raises(ValueError, match="1-d"):
            shapiro_wilk(np.arange(6.0).reshape(2, 3))
        with pytest.raises(ValueError, match=r"\[3, 5000\]"):
            shapiro_wilk(np.zeros(2))
        with pytest.raises(ValueError, match="finite"):
            shapiro_wilk([1.0, 2.0, np.nan])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("position", [0, 7, -1])
    @pytest.mark.parametrize("n_rows", [1, 40])
    def test_nonfinite_value_rejected_anywhere(self, bad, position, n_rows):
        # The check reads only the sorted rows' ends: NaN and +inf sort
        # last, -inf first, wherever they stood.
        x = np.random.default_rng(3).normal(0.0, 1.0, (n_rows, 15))
        x[n_rows // 2, position] = bad
        before = x.copy()
        with pytest.raises(ValueError, match="finite"):
            shapiro_wilk_sorted(np.sort(x, axis=1))
        np.testing.assert_array_equal(x, before)

    def test_input_left_unchanged(self):
        # The kernel centres its sorted rows in place; shapiro_wilk's are
        # a sorted copy of its sample.
        for x in np.random.default_rng(4).normal(0.001, 0.02, (5, 30)):
            before = x.copy()
            shapiro_wilk(x)
            np.testing.assert_array_equal(x, before)

    @pytest.mark.parametrize("n", [156, 520])
    @pytest.mark.parametrize("rows", [1, 9, 2000])
    def test_row_result_independent_of_batch_size(self, n, rows):
        x = np.random.default_rng([n, rows]).normal(0.001, 0.02, (rows, n))
        w, p = shapiro_wilk_sorted(np.sort(x, axis=1))
        for i in range(rows):
            one = shapiro_wilk(x[i])
            assert w[i] == one.statistic and p[i] == one.p_value, i


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

    def test_sequence_of_levels(self):
        data = np.random.default_rng(12).uniform(size=37)
        levels = (0.05, 0.25, 0.5, 0.975)
        out = quantile(data, levels)
        assert isinstance(out, np.ndarray) and out.shape == (4,)
        assert out.tolist() == [quantile(data, q) for q in levels]
        assert isinstance(quantile(data, 0.5), float)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            quantile(data, [0.5, -0.1])

    def test_nan_in_sample_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            quantile([1.0, float("nan"), 3.0], 0.5)
        with pytest.raises(ValueError, match="NaN"):
            quantile([float("nan")], [0.1, 0.9])


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


class TestQuantileColumns:
    LEVELS = (0.0, 0.05, 0.25, 0.5, 0.7, 0.975, 1.0)

    def _check(self, panel, levels=LEVELS):
        n, out = quantile_columns(panel, levels)
        assert n.shape == (panel.shape[1],) and out.shape == (len(levels), panel.shape[1])
        for c in range(panel.shape[1]):
            sample = panel[~np.isnan(panel[:, c]), c]
            assert n[c] == sample.size
            if sample.size == 0:
                assert np.isnan(out[:, c]).all()
            else:
                assert _bits(out[:, c]) == _bits(np.quantile(sample, levels)), c

    def test_random_panels_with_ties_and_nan_holes_match_numpy_bitwise(self):
        rng = np.random.default_rng(31)
        for _ in range(400):
            rows, cols = int(rng.integers(1, 40)), int(rng.integers(1, 7))
            panel = rng.integers(0, 6, (rows, cols)) * rng.choice([1.0, 0.1, 1e-300, 3e7])
            panel += rng.uniform(size=panel.shape) * (rng.uniform() < 0.5)
            panel[rng.uniform(size=panel.shape) < rng.uniform(0.0, 0.6)] = np.nan
            levels = np.concatenate((self.LEVELS, rng.uniform(size=3)))
            self._check(panel, levels)

    def test_one_value_all_nan_and_zero_rows(self):
        self._check(np.array([[0.25, np.nan, 7.0]]))
        self._check(np.array([[np.nan, 1.0], [np.nan, np.nan], [np.nan, 2.0]]))
        n, out = quantile_columns(np.empty((0, 4)), self.LEVELS)
        assert n.tolist() == [0, 0, 0, 0]
        assert out.shape == (len(self.LEVELS), 4) and np.isnan(out).all()

    def test_quantile_is_its_one_column_call(self):
        data = np.random.default_rng(32).standard_normal(23)
        assert _bits(quantile(data, self.LEVELS)) == _bits(quantile_columns(data[:, None], self.LEVELS)[1][:, 0])

    def test_validation(self):
        with pytest.raises(ValueError, match="2-d"):
            quantile_columns(np.ones(3), 0.5)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            quantile_columns(np.ones((3, 2)), [0.5, 1.5])


def test_test_result_validation():
    with pytest.raises(ValueError, match="p-value"):
        SWResult(statistic=0.9, p_value=1.2)
    with pytest.raises(ValueError, match="finite"):
        SWResult(statistic=float("nan"), p_value=0.5)
