import filecmp
import json

import numpy as np
import pytest

from crraport import (
    StudyConfig,
    SynthSpec,
    default_synth_spec,
    efficient_constants,
    estimate_params,
    gamma_min,
    run_study,
    sharpe_weights,
    synth_market,
    ReturnMatrix,
)
from crraport.study import _draw_subsets, _sharpe_weights, _solve_market
from helpers import empirical_cdf


def _small_config(tmp_path, **overrides):
    base = dict(
        seed=11,
        k_range=(4, 6),
        gamma_grid=(0.4, 0.8, 2.0, 5.0),
        output_dir=tmp_path / "out",
        synth=default_synth_spec(),
        n_subsets_cap=20,
        quantiles=(0.05, 0.25),
    )
    base.update(overrides)
    return StudyConfig(**base)


class TestStudyConfig:
    def test_requires_exactly_one_source(self, tmp_path):
        with pytest.raises(ValueError, match="exactly one"):
            StudyConfig(
                seed=0, k_range=(4,), gamma_grid=(2.0,), output_dir=tmp_path
            )
        with pytest.raises(ValueError, match="exactly one"):
            StudyConfig(
                seed=0,
                k_range=(4,),
                gamma_grid=(2.0,),
                output_dir=tmp_path,
                synth=default_synth_spec(),
                data_csv=tmp_path / "x.csv",
            )

    def test_validation(self, tmp_path):
        spec = default_synth_spec()
        with pytest.raises(ValueError, match="k_range"):
            StudyConfig(seed=0, k_range=(1,), gamma_grid=(2.0,), output_dir=tmp_path, synth=spec)
        with pytest.raises(ValueError, match="gamma_grid"):
            StudyConfig(seed=0, k_range=(4,), gamma_grid=(0.0,), output_dir=tmp_path, synth=spec)
        with pytest.raises(ValueError, match="n_subsets_cap"):
            StudyConfig(seed=0, k_range=(4,), gamma_grid=(2.0,), output_dir=tmp_path, synth=spec, n_subsets_cap=0)
        with pytest.raises(ValueError, match="quantiles"):
            StudyConfig(seed=0, k_range=(4,), gamma_grid=(2.0,), output_dir=tmp_path, synth=spec, quantiles=(1.5,))
        with pytest.raises(ValueError, match="w0"):
            StudyConfig(seed=0, k_range=(4,), gamma_grid=(2.0,), output_dir=tmp_path, synth=spec, w0=-1.0)

    def test_k_range_checked_against_data(self, tmp_path):
        cfg = _small_config(tmp_path, k_range=(40,))
        with pytest.raises(ValueError, match="exceeds"):
            run_study(cfg)


class TestDrawSubsets:
    def test_deterministic_and_distinct(self):
        a = _draw_subsets(17, 5, 50, seed=3)
        b = _draw_subsets(17, 5, 50, seed=3)
        assert a == b
        assert len(set(a)) == len(a) == 50
        assert all(len(s) == 5 and list(s) == sorted(s) for s in a)

    def test_cap_beyond_total_enumerates_all(self):
        subs = _draw_subsets(5, 3, 100, seed=1)
        assert len(subs) == 10  # C(5,3)

    def test_seed_changes_draw(self):
        assert _draw_subsets(17, 5, 50, seed=3) != _draw_subsets(17, 5, 50, seed=4)


class TestRunStudy:
    def test_failure_rate_non_increasing_in_gamma(self, tmp_path):
        report = run_study(_small_config(tmp_path))
        by_k: dict = {}
        for row in report.condition_failure_rates:
            by_k.setdefault(row["k"], []).append(
                (row["gamma"], row["rate_gamma_min_violated"])
            )
        saw_positive = False
        for k, rows in by_k.items():
            rates = [r for _, r in sorted(rows)]
            assert all(b <= a for a, b in zip(rates, rates[1:])), k
            saw_positive |= rates[0] > 0.0
        assert saw_positive  # the sub-1 gammas actually exercise the condition

    def test_optimal_dominates_other_strategies(self, tmp_path):
        report = run_study(_small_config(tmp_path))
        assert report.strategy_utilities
        for row in report.strategy_utilities:
            assert row["utility_optimal"] >= row["utility_naive"] - 1e-12
            assert row["utility_optimal"] >= row["utility_sharpe"] - 1e-12

    def test_ecdf_first_order_dominance(self, tmp_path):
        report = run_study(_small_config(tmp_path))
        rows = [r for r in report.strategy_utilities if r["k"] == 4 and r["gamma"] == 2.0]
        opt = [r["utility_optimal"] for r in rows]
        naive = [r["utility_naive"] for r in rows]
        f_opt, f_naive = empirical_cdf(opt), empirical_cdf(naive)
        grid = np.sort(np.asarray(opt + naive))
        assert np.all(f_opt(grid) <= f_naive(grid) + 1e-12)

    def test_below_threshold_cells_recorded(self, tmp_path):
        report = run_study(_small_config(tmp_path))
        codes = {e["code"] for e in report.cell_errors}
        assert "below_gamma_min" in codes
        # errors carry their cell coordinates
        err = next(e for e in report.cell_errors if e["code"] == "below_gamma_min")
        assert err["gamma"] in (0.4, 0.8) and err["k"] in (4, 6)

    def test_pvalue_quantiles_shape(self, tmp_path):
        cfg = _small_config(tmp_path)
        report = run_study(cfg)
        assert len(report.pvalue_quantiles) == len(cfg.k_range) * len(
            cfg.gamma_grid
        ) * len(cfg.quantiles)
        for row in report.pvalue_quantiles:
            if row["value"] is not None:
                assert 0.0 <= row["value"] <= 1.0
                assert row["n"] > 0

    def test_frontier_locations_present(self, tmp_path):
        report = run_study(_small_config(tmp_path))
        kinds = {(r["k"], r["portfolio"]) for r in report.frontier_locations}
        assert (4, "gmv") in kinds and (4, "sharpe") in kinds and (4, "optimal") in kinds

    def test_outputs_written(self, tmp_path):
        cfg = _small_config(tmp_path)
        run_study(cfg)
        names = {
            "pvalue_quantiles.csv",
            "condition_failure_rates.csv",
            "frontier_locations.csv",
            "strategy_utilities.csv",
            "cell_errors.csv",
            "summary.json",
        }
        assert names <= {p.name for p in cfg.output_dir.iterdir()}
        summary = json.loads((cfg.output_dir / "summary.json").read_text())
        assert summary["schema_version"] == "1"
        assert summary["metadata"]["seed"] == 11
        assert "timestamp" in summary["metadata"]

    def test_reruns_byte_identical(self, tmp_path):
        cfg_a = _small_config(tmp_path, output_dir=tmp_path / "a")
        cfg_b = _small_config(tmp_path, output_dir=tmp_path / "b")
        run_study(cfg_a)
        run_study(cfg_b)
        for name in (
            "pvalue_quantiles.csv",
            "condition_failure_rates.csv",
            "frontier_locations.csv",
            "strategy_utilities.csv",
            "cell_errors.csv",
        ):
            assert filecmp.cmp(
                cfg_a.output_dir / name, cfg_b.output_dir / name, shallow=False
            ), name
        sa = json.loads((cfg_a.output_dir / "summary.json").read_text())
        sb = json.loads((cfg_b.output_dir / "summary.json").read_text())
        sa["metadata"].pop("timestamp")
        sb["metadata"].pop("timestamp")
        assert sa == sb

    def test_csv_source(self, tmp_path):
        returns = synth_market(default_synth_spec(), seed=5)
        csv_path = tmp_path / "returns.csv"
        lines = [",".join(returns.asset_labels)]
        lines += [",".join(repr(float(v)) for v in row) for row in returns.values]
        csv_path.write_text("\n".join(lines) + "\n")
        cfg = _small_config(
            tmp_path, synth=None, data_csv=csv_path, k_range=(4,), gamma_grid=(2.0,)
        )
        report = run_study(cfg)
        assert report.metadata["source"].startswith("csv:")
        assert report.metadata["n_assets"] == 17
        assert report.strategy_utilities

    def test_frontier_market_failures_coded_by_cause(self, tmp_path):
        # Gross means of -0.1 and 0.2 give r_gmv < 0: below gamma_min
        # there is no optimum, and above it the optimal mean is negative.
        spec = SynthSpec(n=120, mu0=[-0.1, 0.2, 0.15], sigma0=np.diag([0.01, 0.04, 0.03]))
        cfg = _small_config(
            tmp_path, synth=spec, k_range=(2,), gamma_grid=(2.0, 20.0, 200.0, 2000.0), n_subsets_cap=3
        )
        report = run_study(cfg)
        values = synth_market(spec, cfg.seed).values
        constants = efficient_constants(estimate_params(ReturnMatrix(values[:, :2])))
        assert constants.r_gmv < 0.0
        gm = gamma_min(constants)
        coded = {
            e["gamma"]: e["code"] for e in report.cell_errors if e["subset_index"] == -1
        }
        assert coded == {
            g: "below_gamma_min" if g < gm else "solve_failed" for g in cfg.gamma_grid
        }
        assert set(coded.values()) == {"below_gamma_min", "solve_failed"}

    def test_sharpe_weights_read_off_constants_match_direct_solve(self, tmp_path):
        # The study's Sharpe portfolio w_gmv + (v_gmv / r_gmv) tilt against
        # the Sigma^-1 mu solve, on every evaluated market of a small study.
        cfg = _small_config(tmp_path)
        values = synth_market(cfg.synth, cfg.seed).values
        gammas = np.array(cfg.gamma_grid)
        checked = 0
        for k in cfg.k_range:
            subsets = _draw_subsets(values.shape[1], k, cfg.n_subsets_cap, cfg.seed)
            for sub in subsets + [tuple(range(k))]:
                market = _solve_market(values[:, list(sub)], gammas, cfg.w0)
                if isinstance(market, str):
                    continue
                params, constants, _, _ = market
                ref = sharpe_weights(params).w
                gap = np.max(np.abs(_sharpe_weights(constants).w - ref))
                assert gap <= 1e-12 * np.abs(ref).sum(), (k, sub)
                checked += 1
        assert checked == 2 * (cfg.n_subsets_cap + 1)

    def test_degenerate_frontier_market_gets_one_market_level_row(self, tmp_path):
        # Every column a permutation of one draw: equal sample means (up
        # to rounding), a positive definite covariance, and a zero slope.
        rng = np.random.default_rng(3)
        base = rng.normal(0.002, 0.03, 60)
        columns = [base] + [rng.permutation(base) for _ in range(3)]
        csv_path = tmp_path / "equal_means.csv"
        lines = ["a,b,c,d"] + [",".join(repr(float(v)) for v in row) for row in np.column_stack(columns)]
        csv_path.write_text("\n".join(lines) + "\n")
        cfg = _small_config(
            tmp_path, synth=None, data_csv=csv_path, k_range=(3,), gamma_grid=(2.0, 5.0)
        )
        report = run_study(cfg)
        market_rows = [e for e in report.cell_errors if e["subset_index"] == -1]
        assert market_rows == [
            {"k": 3, "subset_index": -1, "gamma": None, "code": "degenerate_frontier"}
        ]
        assert report.frontier_locations == []
        assert {e["code"] for e in report.cell_errors} == {"degenerate_frontier"}
        assert not report.strategy_utilities
