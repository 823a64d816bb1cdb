import csv
import filecmp
import hashlib
import itertools
import json
import math
from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

import mpmath as mp
import numpy as np
import pytest

from crraport import (
    StudyConfig,
    SynthSpec,
    default_synth_spec,
    efficient_constants,
    estimate_params,
    gamma_min,
    load_returns_csv,
    power_solution,
    run_study,
    synth_market,
    ReturnMatrix,
)
from crraport import study
from crraport.study import _draw_subsets, _panel, _solve_block, _Stopwatch
from helpers import ACCURATE_NEAR_SINGULAR_MARKET, empirical_cdf, table_rows


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
        for gamma in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="^gamma_grid entries must be positive and finite$"):
                StudyConfig(seed=0, k_range=(4,), gamma_grid=(gamma,), output_dir=tmp_path, synth=spec)
        with pytest.raises(ValueError, match="n_subsets_cap"):
            StudyConfig(seed=0, k_range=(4,), gamma_grid=(2.0,), output_dir=tmp_path, synth=spec, n_subsets_cap=0)
        with pytest.raises(ValueError, match="quantiles"):
            StudyConfig(seed=0, k_range=(4,), gamma_grid=(2.0,), output_dir=tmp_path, synth=spec, quantiles=(1.5,))
        for w0 in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="^w0 must be positive and finite$"):
                StudyConfig(seed=0, k_range=(4,), gamma_grid=(2.0,), output_dir=tmp_path, synth=spec, w0=w0)
        with pytest.raises(ValueError, match="^seed must be a non-negative integer$"):
            StudyConfig(seed=-1, k_range=(4,), gamma_grid=(2.0,), output_dir=tmp_path, synth=spec)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("k_range", (2.9,), "k_range entries must be integers of at least 2"),
            ("k_range", ("4",), "k_range entries must be integers of at least 2"),
            ("n_subsets_cap", 1.5, "n_subsets_cap must be an integer of at least 1"),
        ],
    )
    def test_counts_must_be_integers(self, tmp_path, field, value, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            _small_config(tmp_path, **{field: value})

    def test_numpy_integers_are_kept_as_ints(self, tmp_path):
        # summary.json writes them, and json cannot write a numpy int.
        cfg = _small_config(tmp_path, seed=np.int64(3), k_range=(np.int64(4),), n_subsets_cap=np.int32(5))
        assert [type(v) for v in (cfg.seed, *cfg.k_range, cfg.n_subsets_cap)] == [int, int, int]

    @pytest.mark.parametrize("field", ["k_range", "gamma_grid"])
    def test_empty_grid_rejected(self, tmp_path, field):
        with pytest.raises(ValueError, match=f"^{field} must not be empty$"):
            _small_config(tmp_path, **{field: ()})

    @pytest.mark.parametrize(
        "field, values",
        [("k_range", (4, 6, 4)), ("gamma_grid", (2.0, 5.0, 2.0)), ("quantiles", (0.25, 0.25))],
    )
    def test_duplicate_entries_rejected(self, tmp_path, field, values):
        with pytest.raises(ValueError, match=f"^{field} entries must be distinct$"):
            _small_config(tmp_path, **{field: values})

    def test_k_range_checked_against_data(self, tmp_path):
        cfg = _small_config(tmp_path, k_range=(40,))
        with pytest.raises(ValueError, match="exceeds"):
            run_study(cfg)


class TestDrawSubsets:
    def test_deterministic_and_distinct(self):
        a = _draw_subsets(17, 5, 50, seed=3)
        b = _draw_subsets(17, 5, 50, seed=3)
        assert a.dtype == np.int64 and a.shape == (50, 5)
        assert np.array_equal(a, b)
        assert len(set(map(tuple, a.tolist()))) == 50
        assert np.all(np.diff(a, axis=1) > 0)

    def test_rejection_path_returns_the_same_kind_of_array(self):
        # C(40, 20) is beyond the unranking path's 100,000 subsets.
        a = _draw_subsets(40, 20, 30, seed=3)
        assert a.dtype == np.int64 and a.shape == (30, 20)
        assert np.array_equal(a, _draw_subsets(40, 20, 30, seed=3))
        assert len(set(map(tuple, a.tolist()))) == 30
        assert np.all(np.diff(a, axis=1) > 0) and a.min() >= 0 and a.max() < 40

    def test_cap_beyond_total_enumerates_all(self):
        subs = _draw_subsets(5, 3, 100, seed=1)
        assert len(subs) == 10  # C(5,3)

    def test_seed_changes_draw(self):
        assert not np.array_equal(_draw_subsets(17, 5, 50, seed=3), _draw_subsets(17, 5, 50, seed=4))

    def test_draws_equal_indexing_the_listed_combinations(self):
        # The reference lists every combination in itertools' order and
        # indexes it with the same seeded ranks.
        for n in range(1, 21):
            for k in range(1, n + 1):
                total = math.comb(n, k)
                if total > 100_000:
                    continue
                combos = list(itertools.combinations(range(n), k))
                for cap in (1, 3, 200, total + 1):
                    for seed in (0, 7, 45):
                        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(k,)))
                        ranks = np.sort(rng.choice(total, size=min(cap, total), replace=False))
                        expected = [combos[i] for i in ranks]
                        got = _draw_subsets(n, k, cap, seed)
                        assert got.dtype == np.int64, (n, k, cap, seed)
                        assert list(zip(*got.T.tolist())) == expected, (n, k, cap, seed)


class TestRunStudy:
    def test_failure_rate_non_increasing_in_gamma(self, tmp_path):
        report = run_study(_small_config(tmp_path))
        by_k: dict = {}
        for row in table_rows(report.condition_failure_rates):
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
        assert table_rows(report.strategy_utilities)
        for row in table_rows(report.strategy_utilities):
            assert row["utility_optimal"] >= row["utility_naive"] - 1e-12
            assert row["utility_optimal"] >= row["utility_sharpe"] - 1e-12

    def test_ecdf_first_order_dominance(self, tmp_path):
        report = run_study(_small_config(tmp_path))
        rows = [r for r in table_rows(report.strategy_utilities) if r["k"] == 4 and r["gamma"] == 2.0]
        opt = [r["utility_optimal"] for r in rows]
        naive = [r["utility_naive"] for r in rows]
        f_opt, f_naive = empirical_cdf(opt), empirical_cdf(naive)
        grid = np.sort(np.asarray(opt + naive))
        assert np.all(f_opt(grid) <= f_naive(grid) + 1e-12)

    def test_below_threshold_cells_recorded(self, tmp_path):
        report = run_study(_small_config(tmp_path))
        codes = {e["code"] for e in table_rows(report.cell_errors)}
        assert "below_gamma_min" in codes
        # errors carry their cell coordinates
        err = next(e for e in table_rows(report.cell_errors) if e["code"] == "below_gamma_min")
        assert err["gamma"] in (0.4, 0.8) and err["k"] in (4, 6)

    def test_pvalue_quantiles_shape(self, tmp_path):
        cfg = _small_config(tmp_path)
        report = run_study(cfg)
        assert len(table_rows(report.pvalue_quantiles)) == len(cfg.k_range) * len(
            cfg.gamma_grid
        ) * len(cfg.quantiles)
        for row in table_rows(report.pvalue_quantiles):
            if row["value"] is not None:
                assert 0.0 <= row["value"] <= 1.0
                assert row["n"] > 0

    def test_frontier_locations_present(self, tmp_path):
        report = run_study(_small_config(tmp_path))
        kinds = {(r["k"], r["portfolio"]) for r in table_rows(report.frontier_locations)}
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

    def test_csv_cells_are_the_table_values(self, tmp_path):
        # Every written cell is str() of its column value, empty for None
        # (the GMV and Sharpe rows have no gamma). A numeric column is a
        # 1-d float64 or int64 array, its values those of its .tolist();
        # every other column is a list of Python scalars.
        cfg = _small_config(tmp_path)
        report = run_study(cfg)
        assert None in report.frontier_locations["gamma"]
        for name in ("pvalue_quantiles", "condition_failure_rates", "frontier_locations",
                     "strategy_utilities", "cell_errors"):
            table = getattr(report, name)
            with (cfg.output_dir / f"{name}.csv").open(newline="") as fh:
                header, *rows = list(csv.reader(fh))
            assert header == list(table)
            columns = []
            for col in header:
                column = table[col]
                if isinstance(column, np.ndarray):
                    assert column.ndim == 1 and column.dtype in (np.float64, np.int64), (name, col)
                    column = column.tolist()
                else:
                    assert isinstance(column, list), (name, col)
                    assert {type(v) for v in column} <= {int, float, str, type(None)}, (name, col)
                columns.append(column)
            assert len(rows) == len(columns[0]) > 0, name
            for i, row in enumerate(rows):
                expected = ["" if v is None else str(v) for v in (column[i] for column in columns)]
                assert row == expected, (name, i)

    def test_strategy_utilities_are_typed_arrays(self, tmp_path):
        # Every strategy_utilities column is numeric, so each is held as
        # one typed array of the table's row count until it is written.
        table = run_study(_small_config(tmp_path)).strategy_utilities
        n_rows = len(table["k"])
        assert n_rows > 0
        dtypes = {"k": np.int64, "subset_index": np.int64, "gamma": np.float64,
                  "utility_naive": np.float64, "utility_sharpe": np.float64, "utility_optimal": np.float64}
        for col, dtype in dtypes.items():
            assert isinstance(table[col], np.ndarray), col
            assert table[col].dtype == dtype and table[col].shape == (n_rows,), col

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
        for summary in (sa, sb):
            summary["metadata"].pop("timestamp")
            summary.pop("timings_s")
        assert sa == sb

    def test_summary_counts_error_codes_per_k_and_gamma(self, tmp_path):
        cfg = _small_config(
            tmp_path, k_range=(3, 4, 6, 9), gamma_grid=(0.4, 0.8, 1.0, 2.0, 5.0, 1e4), n_subsets_cap=25
        )
        run_study(cfg)
        summary = json.loads((cfg.output_dir / "summary.json").read_text())
        with (cfg.output_dir / "cell_errors.csv").open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        recount: dict = {}
        for row in rows:
            gamma = float(row["gamma"]) if row["gamma"] else None
            codes = recount.setdefault((int(row["k"]), gamma), {})
            codes[row["code"]] = codes.get(row["code"], 0) + 1
        records = summary["error_counts"]
        assert {(r["k"], r["gamma"]): r["counts"] for r in records} == recount
        assert len(records) == len(recount) > 1
        assert sum(sum(r["counts"].values()) for r in records) == len(rows) > 0

    def test_summary_records_stage_timings(self, tmp_path):
        cfg = _small_config(tmp_path)
        report = run_study(cfg)
        summary = json.loads((cfg.output_dir / "summary.json").read_text())
        stages = {
            "estimate",
            "constants",
            "grid",
            "realized_returns",
            "shapiro_wilk",
            "utilities",
            "csv_write",
        }
        assert set(summary["timings_s"]) == stages
        assert all(isinstance(t, float) and t >= 0.0 for t in summary["timings_s"].values())
        assert summary["timings_s"] == report.timings_s

    def test_summary_counts_the_batches(self, tmp_path):
        # 47 k's of 8 subsets and a first-k market each, on 156 periods
        # of 48 assets: each k is one block, its first-k market solved
        # with its subsets, and its cells are tested in one chunk.
        rng = np.random.default_rng(47)
        mu0 = 1.0 + rng.uniform(0.0005, 0.0035, 48)
        spec = SynthSpec(n=156, mu0=mu0, sigma0=np.diag(rng.uniform(0.02, 0.045, 48) ** 2))
        cfg = _small_config(
            tmp_path, synth=spec, k_range=tuple(range(2, 49)), gamma_grid=(2.0, 10.0), n_subsets_cap=8
        )
        report = run_study(cfg)
        batches = json.loads((cfg.output_dir / "summary.json").read_text())["batches"]
        assert batches == report.batches
        assert batches["markets"] == 46 * 9 + 2  # k = 48 has one subset
        assert batches["blocks"] == batches["sw_chunks"] == len(cfg.k_range)
        assert sum(report.condition_failure_rates["n_evaluated"]) > 0

    def test_golden_digests(self, tmp_path):
        # SHA-256 of two tables as written before the per-k batched solve.
        cfg = _small_config(
            tmp_path,
            k_range=(3, 4, 6, 9),
            gamma_grid=(0.4, 0.8, 1.0, 2.0, 5.0, 1e4),
            n_subsets_cap=25,
        )
        run_study(cfg)
        digests = {
            name: hashlib.sha256((cfg.output_dir / f"{name}.csv").read_bytes()).hexdigest()
            for name in ("cell_errors", "condition_failure_rates")
        }
        assert digests == {
            "cell_errors": "547d39f5ab0a652fa1b55f185fafffdb182e1c7dfcf044897979801e18e077e4",
            "condition_failure_rates": "a093fe8611f6188dd33c0caa678ec96ca8d09e6af23d54950ba80deb33d1c8cf",
        }

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
        assert table_rows(report.strategy_utilities)

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
            e["gamma"]: e["code"] for e in table_rows(report.cell_errors) if e["subset_index"] == -1
        }
        assert coded == {
            g: "below_gamma_min" if g < gm else "solve_failed" for g in cfg.gamma_grid
        }
        assert set(coded.values()) == {"below_gamma_min", "solve_failed"}

    def test_sharpe_moments_read_off_constants_match_direct_solve(self, tmp_path):
        # The study's Sharpe moments r_gmv + s t and v_gmv + s t^2, at
        # t = v_gmv / r_gmv, against those of the Sigma^-1 mu solve, on
        # every evaluated market of a small study.
        cfg = _small_config(tmp_path)
        returns = synth_market(cfg.synth, cfg.seed)
        panel = _panel(returns)
        batches = dict.fromkeys(("blocks", "markets", "sw_chunks"), 0)
        checked = 0
        for k in cfg.k_range:
            subsets = np.vstack((_draw_subsets(returns.n_assets, k, cfg.n_subsets_cap, cfg.seed), np.arange(k)))
            tested = np.arange(len(subsets)) < len(subsets) - 1
            block = _solve_block(panel, subsets, tested, cfg, _Stopwatch(), batches)
            for si in np.flatnonzero(block["code"] < 0):
                params = estimate_params(ReturnMatrix(returns.values[:, list(subsets[si])]))
                z = np.linalg.solve(params.sigma, params.mu)
                w = z / z.sum()
                x, v = w @ params.mu, w @ params.sigma @ w
                assert block["sharpe_x"][si] == pytest.approx(x, rel=1e-12), (k, subsets[si])
                assert block["sharpe_v"][si] == pytest.approx(v, rel=1e-10), (k, subsets[si])
                checked += 1
        assert checked == 2 * (cfg.n_subsets_cap + 1)

    def test_sharpe_moments_are_within_4_eps_of_a_60_digit_solve(self, tmp_path):
        # The Sharpe rows of frontier_locations for the default synth's
        # first-k markets, k = 2..17, against Sigma^-1 mu / 1' Sigma^-1 mu
        # solved at 60 digits from the same double moments. Moments of
        # the weights w_gmv + t tilt reach 5 eps in v.
        cfg = _small_config(tmp_path, k_range=tuple(range(2, 18)), gamma_grid=(2.0,), n_subsets_cap=1)
        report = run_study(cfg)
        panel = _panel(synth_market(cfg.synth, cfg.seed))
        sharpe = [r for r in table_rows(report.frontier_locations) if r["portfolio"] == "sharpe"]
        assert [r["k"] for r in sharpe] == list(cfg.k_range)
        eps = np.finfo(float).eps
        with mp.workdps(60):
            for row in sharpe:
                k = row["k"]
                mu = mp.matrix(panel.mu[:k].tolist())
                sigma = mp.matrix(panel.sigma[:k, :k].tolist())
                z = mp.lu_solve(sigma, mu)
                w = z / sum(z)
                x, v = (w.T * mu)[0], (w.T * sigma * w)[0]
                assert abs(row["x"] - x) <= 4 * eps * abs(x), k
                assert abs(row["v"] - v) <= 4 * eps * abs(v), k

    def test_collinear_subsets_coded_singular_and_others_match_reference(self, tmp_path):
        # Column f is d + 2e: the subsets holding d, e and f have a
        # singular covariance; the rest of their k batch must not notice.
        rng = np.random.default_rng(5)
        panel = rng.normal(0.002, 0.03, (80, 6))
        panel[:, 5] = panel[:, 3] + 2.0 * panel[:, 4]
        n_singular, n_solved = _check_subsets_against_reference(
            tmp_path, panel, (3, 4), (0.5, 2.0, 5.0, 20.0), lambda sub: {3, 4, 5} <= set(sub)
        )
        assert n_singular == 1 + 3  # C(3, 3) subsets at k = 3, C(3, 1) at k = 4
        assert n_solved > 0

    @staticmethod
    def _permuted_columns_study(tmp_path, draw):
        """The k = 3 study, at gammas 2 and 5, of four columns: a column
        ``draw(rng)`` and three permutations of it, all from one rng."""
        rng = np.random.default_rng(3)
        base = draw(rng)
        columns = [base] + [rng.permutation(base) for _ in range(3)]
        csv_path = tmp_path / "equal_means.csv"
        lines = ["a,b,c,d"] + [",".join(repr(float(v)) for v in row) for row in np.column_stack(columns)]
        csv_path.write_text("\n".join(lines) + "\n")
        cfg = _small_config(
            tmp_path, synth=None, data_csv=csv_path, k_range=(3,), gamma_grid=(2.0, 5.0)
        )
        return run_study(cfg)

    def test_degenerate_frontier_market_gets_one_market_level_row(self, tmp_path):
        # Every column a permutation of one draw of multiples of 2^-10:
        # every sum is exact, so the sample means are bit-equal, s = 0
        # exactly, and the slope rule rejects every market, although the
        # covariance is positive definite.
        report = self._permuted_columns_study(tmp_path, lambda rng: rng.integers(-64, 65, 60) / 1024)
        market_rows = [e for e in table_rows(report.cell_errors) if e["subset_index"] == -1]
        assert market_rows == [
            {"k": 3, "subset_index": -1, "gamma": None, "code": "degenerate_frontier"}
        ]
        assert table_rows(report.frontier_locations) == []
        assert {e["code"] for e in table_rows(report.cell_errors)} == {"degenerate_frontier"}
        assert not table_rows(report.strategy_utilities)

    def test_equal_means_up_to_rounding_are_solved_cell_by_cell(self, tmp_path):
        # Permutations of a draw of doubles: the sample means differ only
        # by the rounding of their sums, so s is about 3e-28. The slope
        # rule accepts three of the four markets, whose gamma_min is then
        # below 1e-13: every gamma is solved, the first-k market is placed
        # on its frontier, and only the rejected subset is coded.
        report = self._permuted_columns_study(tmp_path, lambda rng: rng.normal(0.002, 0.03, 60))
        errors = table_rows(report.cell_errors)
        assert {e["code"] for e in errors} == {"degenerate_frontier"}
        coded = {e["subset_index"] for e in errors}
        scored = Counter(r["subset_index"] for r in table_rows(report.strategy_utilities))
        assert -1 not in coded and len(coded) == 1
        assert set(scored.values()) == {2} and sorted(coded | set(scored)) == [0, 1, 2, 3]
        frontier = table_rows(report.frontier_locations)
        assert [(r["portfolio"], r["gamma"]) for r in frontier] == [
            ("gmv", None), ("sharpe", None), ("optimal", 2.0), ("optimal", 5.0)
        ]

    def test_accurate_near_singular_market_is_solved_cell_by_cell(self, tmp_path):
        # Condition number 5.7e12: the slope rule accepts the market, so
        # it has no market-level code. Its gamma_min is 424.2, so gammas
        # 2 and 5 are below it, and gamma 1000 is solved and scored.
        mu, sigma = (np.array(ACCURATE_NEAR_SINGULAR_MARKET[key]) for key in ("mu", "sigma"))
        n = 40
        panel = SimpleNamespace(
            gross=np.random.default_rng(0).normal(1.0, 1e-3, (n, 4)), mu=mu, sigma=sigma, workspace=np.empty((8, n))
        )
        cfg = _small_config(tmp_path, gamma_grid=(2.0, 5.0, 1000.0))
        batches = dict.fromkeys(("blocks", "markets", "sw_chunks"), 0)
        block = _solve_block(panel, np.array([[0, 1, 2, 3]]), np.array([True]), cfg, _Stopwatch(), batches)
        below = study._CODES.index("below_gamma_min")
        assert block["code"].tolist() == [-1]
        assert [np.flatnonzero(cell).tolist() for cell in block["flags"][0]] == [[below], [below], []]
        assert block["scored"].tolist() == [[False, False, True]]
        assert block["ok"].tolist() == [[False, False, True]]

    def test_zero_r_gmv_market_is_below_gamma_min_at_every_gamma(self, tmp_path):
        # Dyadic returns whose sample moments are exact: gross means
        # 0.0625 and -0.25, variances 1/64 and 1/16 and no covariance, so
        # 1' Sigma^-1 mu = 4 - 4 = 0. The slope is positive; only the
        # threshold is infinite, so the market is evaluated and no gamma
        # reaches it. Its Sharpe portfolio is undefined.
        d1, d2 = [1, -1, 1, -1, 0], [1, 1, -1, -1, 0]
        csv_path = tmp_path / "zero_r_gmv.csv"
        lines = ["x,y"] + [f"{-0.9375 + 0.125 * a!r},{-1.25 + 0.25 * b!r}" for a, b in zip(d1, d2)]
        csv_path.write_text("\n".join(lines) + "\n")
        cfg = _small_config(tmp_path, synth=None, data_csv=csv_path, k_range=(2,), gamma_grid=(2.0, 1e8))
        report = run_study(cfg)
        assert table_rows(report.cell_errors) == [
            {"k": 2, "subset_index": 0, "gamma": 2.0, "code": "below_gamma_min"},
            {"k": 2, "subset_index": 0, "gamma": 1e8, "code": "below_gamma_min"},
            {"k": 2, "subset_index": -1, "gamma": None, "code": "sharpe_undefined"},
            {"k": 2, "subset_index": -1, "gamma": 2.0, "code": "below_gamma_min"},
            {"k": 2, "subset_index": -1, "gamma": 1e8, "code": "below_gamma_min"},
        ]
        rates = table_rows(report.condition_failure_rates)
        assert [(r["n_evaluated"], r["rate_gamma_min_violated"]) for r in rates] == [(1, 1.0), (1, 1.0)]
        assert table_rows(report.frontier_locations) == [
            {"k": 2, "portfolio": "gmv", "gamma": None, "x": 0.0, "v": 0.0125}
        ]

    def test_results_do_not_depend_on_the_block_size(self, tmp_path, monkeypatch):
        # k up to all 17 assets, 20 subsets and a first-k market each at
        # k < 17: 21 markets of 312 values. The default budget and 2**20
        # solve each k in one block, its first-k market with its subsets,
        # and test its cells in one Shapiro-Wilk chunk. At 2**10 blocks
        # hold 3 markets whose solved cells are tested 6 at a time, at 3000
        # 9 markets tested 19 cells at a time. The gammas give
        # below_gamma_min and nonpositive_realized_gross_return cells, so
        # chunks drop nonpositive rows. The tables are byte for byte the
        # same, and summary.json's batches count the blocks and chunks run.
        returns = synth_market(default_synth_spec(), seed=5)
        csv_path = tmp_path / "returns.csv"
        lines = [",".join(returns.asset_labels)]
        lines += [",".join(repr(float(v)) for v in row) for row in returns.values]
        csv_path.write_text("\n".join(lines) + "\n")
        cfg = _small_config(
            tmp_path,
            synth=None,
            data_csv=csv_path,
            k_range=(2, 5, 9, 17),
            gamma_grid=(0.5, 2.0, 10.0, 1e4),
            output_dir=tmp_path / "default",
        )
        report = run_study(cfg)
        codes = set(report.cell_errors["code"])
        assert {"below_gamma_min", "nonpositive_realized_gross_return"} <= codes
        assert report.batches == {"blocks": 4, "markets": 65, "sw_chunks": 4}
        blocks, calls = [], {"chunk": 0}

        def solve_block(panel, subsets, tested, *args):
            blocks.append((subsets.shape[1], len(subsets), not tested[-1]))
            return study_solve_block(panel, subsets, tested, *args)

        def shapiro_wilk_sorted(rows):
            calls["chunk"] += 1
            return study_shapiro_wilk_sorted(rows)

        study_solve_block, study_shapiro_wilk_sorted = study._solve_block, study.shapiro_wilk_sorted
        monkeypatch.setattr(study, "_solve_block", solve_block)
        monkeypatch.setattr(study, "shapiro_wilk_sorted", shapiro_wilk_sorted)
        for values in (2**10, 3000, 2**20):
            monkeypatch.setattr(study, "_BLOCK_VALUES", values)
            blocks.clear()
            calls.update(chunk=0)
            out = tmp_path / str(values)
            run_study(replace(cfg, output_dir=out))
            batches = json.loads((out / "summary.json").read_text())["batches"]
            assert batches == {"blocks": len(blocks), "markets": 65, "sw_chunks": calls["chunk"]}, values
            assert sum(first_k for _, _, first_k in blocks) == len(cfg.k_range)
            if values < 2**20:
                assert calls["chunk"] > len(blocks) > len(cfg.k_range), values
            else:
                assert blocks == [(2, 21, True), (5, 21, True), (9, 21, True), (17, 2, True)]
                assert calls["chunk"] == len(blocks)
            for name in study._CSV_FILES:
                assert filecmp.cmp(
                    tmp_path / "default" / f"{name}.csv", out / f"{name}.csv", shallow=False
                ), (values, name)

    def test_panel_with_more_assets_than_periods(self, tmp_path):
        # 12 periods of 20 assets: the panel's covariance is singular, but
        # that of a subset of k < n - 1 assets is not unless it holds the
        # collinear columns 0, 1 and 19 = 0 + 1. Subsets of k >= n assets
        # are singular.
        rng = np.random.default_rng(12)
        panel = rng.normal(0.002, 0.03, (12, 20))
        panel[:, 19] = panel[:, 0] + panel[:, 1]
        n_singular, n_solved = _check_subsets_against_reference(
            tmp_path,
            panel,
            (3, 6, 10, 12),
            (2.0, 5.0, 20.0, 100.0),
            lambda sub: len(sub) >= 12 or {0, 1, 19} <= set(sub),
        )
        assert n_singular > 20  # every subset at k = 12, and the collinear ones
        assert n_solved > 0


def _check_subsets_against_reference(tmp_path, panel, k_range, gammas, singular):
    """Run a CSV-source study of ``panel`` and check every sampled subset:
    those ``singular`` says are coded singular_covariance at every gamma
    and have no other row, and the others' optimal utilities match
    ``estimate_params`` and ``power_solution`` on their own columns. Each
    (k, gamma)'s p-value count is that of the other subsets' solved cells
    that Shapiro-Wilk tested. Returns the numbers of singular subsets and
    of solved cells checked."""
    csv_path = tmp_path / "panel.csv"
    lines = [",".join(f"a{j}" for j in range(panel.shape[1]))]
    lines += [",".join(repr(float(v)) for v in row) for row in panel]
    csv_path.write_text("\n".join(lines) + "\n")
    cfg = _small_config(tmp_path, synth=None, data_csv=csv_path, k_range=k_range, gamma_grid=gammas)
    report = run_study(cfg)
    cells = table_rows(report.cell_errors)
    utility = {
        (r["k"], r["subset_index"], r["gamma"]): r["utility_optimal"]
        for r in table_rows(report.strategy_utilities)
    }
    n_tested = {(r["k"], r["gamma"]): r["n"] for r in table_rows(report.pvalue_quantiles)}
    untested = {"nonpositive_realized_gross_return", "sw_degenerate"}
    values = load_returns_csv(csv_path).values
    n_singular = n_solved = 0
    for k in cfg.k_range:
        tested = Counter()
        for si, sub in enumerate(_draw_subsets(panel.shape[1], k, cfg.n_subsets_cap, cfg.seed)):
            codes = {(e["gamma"], e["code"]) for e in cells if (e["k"], e["subset_index"]) == (k, si)}
            if singular(sub):
                assert codes == {(g, "singular_covariance") for g in cfg.gamma_grid}, (k, sub)
                assert not any((k, si, g) in utility for g in cfg.gamma_grid), (k, sub)
                n_singular += 1
                continue
            assert "singular_covariance" not in {code for _, code in codes}
            params = estimate_params(ReturnMatrix(values[:, list(sub)]))
            for gamma in cfg.gamma_grid:
                try:
                    sol = power_solution(gamma, params, cfg.w0)
                except (ValueError, ArithmeticError):
                    assert (k, si, gamma) not in utility
                    continue
                assert utility[(k, si, gamma)] == pytest.approx(sol.expected_utility, rel=1e-12)
                tested[gamma] += not {(gamma, code) for code in untested} & codes
                n_solved += 1
        assert {g: n_tested[(k, g)] for g in cfg.gamma_grid} == {g: tested[g] for g in cfg.gamma_grid}, k
    return n_singular, n_solved
