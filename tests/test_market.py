import numpy as np
import pytest
import scipy.linalg

from crraport import (
    MarketParams,
    ReturnMatrix,
    SynthSpec,
    estimate_params,
    load_returns_csv,
    synth_market,
)
from crraport.market import sample_moments, subset_rows
from helpers import random_market, sigma_solve


def _write(tmp_path, text, name="returns.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadReturnsCsv:
    def test_plain_3x2(self, tmp_path):
        rm = load_returns_csv(_write(tmp_path, "0.01,0.02\n-0.01,0.00\n0.03,0.01\n"))
        assert rm.n_periods == 3 and rm.n_assets == 2
        np.testing.assert_array_equal(
            rm.values, [[0.01, 0.02], [-0.01, 0.0], [0.03, 0.01]]
        )

    def test_empty_file(self, tmp_path):
        with pytest.raises(ValueError, match="no data rows"):
            load_returns_csv(_write(tmp_path, ""))

    def test_single_row(self, tmp_path):
        with pytest.raises(ValueError, match="n_periods >= 2"):
            load_returns_csv(_write(tmp_path, "0.01,0.02\n"))

    def test_header_autodetect(self, tmp_path):
        rm = load_returns_csv(_write(tmp_path, "a,b\n0.01,0.02\n0.03,0.04\n"))
        assert rm.asset_labels == ("a", "b")
        assert rm.n_periods == 2

    def test_ragged_row(self, tmp_path):
        with pytest.raises(ValueError, match="ragged row 3"):
            load_returns_csv(_write(tmp_path, "0.1,0.2\n0.1,0.2\n0.1\n"))

    def test_bad_cell_position(self, tmp_path):
        with pytest.raises(ValueError, match="row 2, column 2"):
            load_returns_csv(_write(tmp_path, "0.1,0.2\n0.1,oops\n"))

    def test_first_bad_row_is_reported(self, tmp_path):
        # A non-numeric cell in row 3 comes before a ragged row 5, with
        # and without a header row shifting the row numbers.
        body = "0.1,0.2\n0.1,0.2\n0.1,x\n0.1,0.2\n0.1\n"
        with pytest.raises(ValueError, match=r"^non-numeric cell at row 3, column 2: 'x'$"):
            load_returns_csv(_write(tmp_path, body))
        with pytest.raises(ValueError, match=r"^non-numeric cell at row 4, column 2: 'x'$"):
            load_returns_csv(_write(tmp_path, "a,b\n" + body))
        with pytest.raises(ValueError, match=r"^ragged row 2: expected 2 cells, found 3$"):
            load_returns_csv(_write(tmp_path, "0.1,0.2\n0.1,0.2,0.3\n0.1,nan\n"))

    def test_non_finite_cell(self, tmp_path):
        with pytest.raises(ValueError, match="non-finite cell"):
            load_returns_csv(_write(tmp_path, "0.1,0.2\n0.1,inf\n"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_returns_csv(tmp_path / "nope.csv")


class TestEstimateParams:
    def test_hand_computed_example(self):
        rm = ReturnMatrix(np.array([[0.01, 0.02], [-0.01, 0.00], [0.03, 0.01]]))
        params = estimate_params(rm)
        np.testing.assert_allclose(params.mu, [1.01, 1.01], rtol=1e-12)
        np.testing.assert_allclose(
            params.sigma, [[4e-4, 1e-4], [1e-4, 1e-4]], rtol=1e-12
        )

    def test_zero_returns_singular(self):
        rm = ReturnMatrix(np.zeros((5, 2)))
        with pytest.raises(ValueError, match="singular covariance"):
            estimate_params(rm)

    def test_n_not_exceeding_k_singular(self):
        rng = np.random.default_rng(0)
        rm = ReturnMatrix(rng.normal(0, 0.01, size=(3, 3)))
        with pytest.raises(ValueError, match="singular covariance"):
            estimate_params(rm)

    def test_monte_carlo_consistency(self):
        mu0 = np.array([1.004, 0.998, 1.01])
        sigma0 = np.array(
            [[4e-4, 1e-4, 0.0], [1e-4, 9e-4, -1e-4], [0.0, -1e-4, 2.5e-4]]
        )
        n = 100_000
        rm = synth_market(SynthSpec(n=n, mu0=mu0, sigma0=sigma0), seed=2024)
        params = estimate_params(rm)
        se_mu = np.sqrt(np.diag(sigma0) / n)
        assert np.all(np.abs(params.mu - mu0) <= 3.0 * se_mu)
        for i in range(3):
            for j in range(3):
                se = np.sqrt(
                    (sigma0[i, i] * sigma0[j, j] + sigma0[i, j] ** 2) / n
                )
                assert abs(params.sigma[i, j] - sigma0[i, j]) <= 3.0 * se

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(5)
        values = rng.normal(0.001, 0.02, size=(40, 4))
        perm = [2, 0, 3, 1]
        base = estimate_params(ReturnMatrix(values))
        permuted = estimate_params(ReturnMatrix(values[:, perm]))
        np.testing.assert_allclose(permuted.mu, base.mu[perm], rtol=1e-14)
        np.testing.assert_allclose(
            permuted.sigma, base.sigma[np.ix_(perm, perm)], rtol=1e-12
        )

    def test_sigma_exactly_symmetric(self):
        rng = np.random.default_rng(6)
        params = estimate_params(ReturnMatrix(rng.normal(0, 0.03, size=(30, 5))))
        assert np.array_equal(params.sigma, params.sigma.T)


class TestMarketParams:
    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            MarketParams([1.0, 1.0], [[1e-4, 5e-5], [1e-5, 1e-4]])

    def test_not_pd_rejected(self):
        with pytest.raises(ValueError, match="positive definite"):
            MarketParams([1.0, 1.0], [[1e-4, 2e-4], [2e-4, 1e-4]])

    def test_k1_rejected(self):
        with pytest.raises(ValueError, match="n_assets >= 2"):
            MarketParams([1.0], [[1e-4]])

    def test_solve_matches_direct_inverse(self):
        params = random_market(np.random.default_rng(9), 5)
        rhs = np.ones(5)
        np.testing.assert_allclose(
            sigma_solve(params, rhs), np.linalg.solve(params.sigma, rhs), rtol=1e-9
        )

    def test_solve_bitwise_scipy_cho_solve(self):
        rng = np.random.default_rng(12)
        for k in range(2, 13):
            params = random_market(rng, k)
            for rhs in (rng.normal(size=k), rng.normal(size=(k, 3))):
                expected = scipy.linalg.cho_solve((params.lower, True), rhs)
                got = sigma_solve(params, rhs)
                assert got.shape == expected.shape
                assert np.array_equal(got, expected), k

    def test_immutables(self):
        params = MarketParams([1.05, 1.15], np.diag([0.01, 0.04]))
        with pytest.raises(ValueError):
            params.mu[0] = 2.0


class TestSynthMarket:
    def test_same_seed_identical(self):
        spec = SynthSpec(n=50, mu0=[1.01, 1.02], sigma0=np.diag([1e-4, 4e-4]))
        a = synth_market(spec, seed=11)
        b = synth_market(spec, seed=11)
        assert np.array_equal(a.values, b.values)
        c = synth_market(spec, seed=12)
        assert not np.array_equal(a.values, c.values)

    def test_k1_rejected(self):
        with pytest.raises(ValueError, match="n_assets >= 2"):
            SynthSpec(n=50, mu0=[1.01], sigma0=[[1e-4]])

    def test_non_pd_sigma0_rejected(self):
        with pytest.raises(ValueError, match="sigma0 is not positive definite"):
            SynthSpec(n=50, mu0=[1.0, 1.0], sigma0=[[1e-4, 2e-4], [2e-4, 1e-4]])

    def test_clt_mean(self):
        mu0 = np.array([1.003, 0.999])
        sigma0 = np.array([[4e-4, 5e-5], [5e-5, 1e-4]])
        n = 1_000_000
        rm = synth_market(SynthSpec(n=n, mu0=mu0, sigma0=sigma0), seed=31)
        se = np.sqrt(np.diag(sigma0) / n)
        assert np.all(np.abs(rm.values.mean(axis=0) - (mu0 - 1.0)) <= 4.0 * se)

    def test_from_dict_k_mismatch(self):
        with pytest.raises(ValueError, match="k in spec"):
            SynthSpec.from_dict(
                {"k": 3, "n": 50, "mu0": [1.0, 1.0], "sigma0": np.diag([1e-4, 1e-4]).tolist()}
            )


class TestSubset:
    """``subset_rows`` restricts one market's moments to each subset."""

    @staticmethod
    def _one(mu, sigma, indices):
        sub_mu, sub_sigma, _, ok = subset_rows(mu, sigma, np.array([indices]))
        assert ok[0]
        return sub_mu[0], sub_sigma[0]

    def test_identity(self):
        params = random_market(np.random.default_rng(1), 4)
        mu, sigma = self._one(params.mu, params.sigma, [0, 1, 2, 3])
        np.testing.assert_array_equal(mu, params.mu)
        np.testing.assert_array_equal(sigma, params.sigma)

    def test_permutation(self):
        params = random_market(np.random.default_rng(2), 3)
        mu, sigma = self._one(params.mu, params.sigma, [1, 0])
        np.testing.assert_array_equal(mu, params.mu[[1, 0]])
        np.testing.assert_array_equal(sigma, params.sigma[np.ix_([1, 0], [1, 0])])

    def test_composition(self):
        params = random_market(np.random.default_rng(4), 6)
        s_outer = [5, 3, 1, 0]
        s_inner = [2, 0, 3]
        twice = self._one(*self._one(params.mu, params.sigma, s_outer), s_inner)
        once = self._one(params.mu, params.sigma, [s_outer[i] for i in s_inner])
        np.testing.assert_array_equal(twice[0], once[0])
        np.testing.assert_array_equal(twice[1], once[1])


def test_return_matrix_validation():
    with pytest.raises(ValueError, match="n_periods >= 2"):
        ReturnMatrix(np.zeros((1, 2)))
    with pytest.raises(ValueError, match="n_assets >= 2"):
        ReturnMatrix(np.zeros((3, 1)))
    with pytest.raises(ValueError, match="finite"):
        ReturnMatrix(np.array([[0.1, np.nan], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="labels"):
        ReturnMatrix(np.zeros((3, 2)), ("only_one",))


class TestSubsetRows:
    def test_each_subset_matches_its_own_estimate(self):
        rng = np.random.default_rng(8)
        values = rng.normal(0.002, 0.03, (40, 7))
        values[:, 5] = 0.01  # a constant column: zero variance
        values[:, 6] = values[:, 0] - values[:, 1]  # collinear with columns 0 and 1
        subsets = np.array([[0, 1, 2], [2, 5, 3], [4, 3, 1], [0, 6, 1], [6, 2, 3]])
        mu_all, sigma_all = sample_moments(ReturnMatrix(values))
        rows = subset_rows(mu_all, sigma_all, subsets)
        mu, sigma, lower, ok = rows
        assert ok.tolist() == [True, False, True, False, True]
        # Each covariance entry is a sum of n products, rounded differently
        # in the whole panel's product than in the subset's own; by
        # Cauchy-Schwarz the products' magnitudes sum to about
        # sqrt(Sigma_ii Sigma_jj), which max|Sigma| bounds.
        n, eps = values.shape[0], np.finfo(float).eps
        tol = 2.0 * n * eps * np.abs(sigma_all).max()
        for b, sub in enumerate(subsets):
            alone = subset_rows(mu_all, sigma_all, sub[None])
            for stacked, single in zip(rows, alone):
                assert np.array_equal(stacked[b], single[0])
            panel = ReturnMatrix(values[:, sub])
            if ok[b]:
                params = estimate_params(panel)
                np.testing.assert_allclose(mu[b], params.mu, rtol=n * eps, atol=0.0)
                assert np.abs(sigma[b] - params.sigma).max() <= tol
                assert np.array_equal(lower[b], np.linalg.cholesky(sigma[b]))
            else:
                with pytest.raises(ValueError, match="singular covariance"):
                    estimate_params(panel)
                assert np.array_equal(lower[b], np.eye(3))
