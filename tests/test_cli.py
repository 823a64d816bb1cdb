import csv
import filecmp
import importlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import crraport
from crraport import default_synth_spec, synth_market
from crraport.cli import main
from helpers import ACCURATE_NEAR_SINGULAR_MARKET, frontier_sample, mp_constants, mp_optimum

WORKED_MARKET = {"mu": [1.05, 1.15], "sigma": [[0.01, 0.0], [0.0, 0.04]]}


@pytest.fixture
def market_file(tmp_path):
    path = tmp_path / "market.json"
    path.write_text(json.dumps(WORKED_MARKET))
    return str(path)


def _strict_json(text: str):
    """Parse RFC 8259 JSON: a bare NaN, Infinity or -Infinity raises."""

    def reject(token):
        raise ValueError(f"not valid JSON: {token}")

    return json.loads(text, parse_constant=reject)


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestSolve:
    def test_worked_market(self, capsys, market_file, worked_values):
        code, out, _ = _run(capsys, ["solve", "--market", market_file, "--gamma", "3"])
        assert code == 0
        payload = json.loads(out)
        assert payload["x"] == pytest.approx(worked_values["x"], rel=1e-10)
        assert payload["gamma_min"] == pytest.approx(
            worked_values["gamma_min"], rel=1e-10
        )
        np.testing.assert_allclose(
            payload["weights"], worked_values["weights"], atol=1e-10
        )
        assert payload["mv_efficient"] is True

    def test_below_threshold_is_structured_error(self, capsys, market_file):
        code, _, err = _run(capsys, ["solve", "--market", market_file, "--gamma", "0.5"])
        assert code == 2
        assert "below gamma_min" in json.loads(err)["error"]

    @pytest.mark.parametrize("gamma", ["1e160", "inf"])
    def test_gamma_beyond_double_range_prints_one_json_line(self, market_file, gamma):
        # The optimum exists for every finite gamma >= gamma_min: 1e160
        # prints it, with no overflow warning on stderr. An infinite
        # gamma is rejected with the one error line.
        argv = ["solve", "--market", market_file, "--gamma", gamma]
        proc = subprocess.run(
            [sys.executable, "-m", "crraport.cli", *argv],
            capture_output=True,
            text=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": str(Path(crraport.__file__).parents[1])},
        )
        if gamma == "inf":
            assert (proc.returncode, proc.stdout) == (2, "")
            assert proc.stderr.count("\n") == 1
            assert json.loads(proc.stderr) == {"error": "relative risk aversion must be positive and finite"}
        else:
            assert (proc.returncode, proc.stderr) == (0, "")
            payload = _strict_json(proc.stdout)
            assert payload["gamma"] == 1e160 and payload["mv_efficient"] is True
            assert payload["expected_utility"] is None and math.isfinite(payload["ln_ce"])

    @pytest.mark.parametrize("gamma", ["3", "1e8"])
    def test_solution_is_strict_json_with_finite_ln_ce(self, capsys, market_file, gamma):
        # E[U] underflows to -inf past gamma ~ 1e3 on this market; it is
        # printed as null, and ln CE, which stays finite, beside it.
        code, out, _ = _run(capsys, ["solve", "--market", market_file, "--gamma", gamma])
        assert code == 0
        payload = _strict_json(out)
        x, v, g = payload["x"], payload["v"], float(gamma)
        assert math.isfinite(payload["ln_ce"])
        assert payload["ln_ce"] == pytest.approx(math.log(x) - 0.5 * g * math.log1p(v / (x * x)), rel=1e-12)
        if gamma == "3":
            assert payload["expected_utility"] == pytest.approx(
                math.exp(-2.0 * payload["ln_ce"]) / -2.0, rel=1e-12
            )
        else:
            assert payload["expected_utility"] is None

    def test_ill_conditioned_market_just_above_gamma_min(self, capsys, tmp_path):
        # Condition number 9.4e7, at gamma_min (1 + 1e-6): the tilt as
        # solved misses 1'x = 0 by enough to fail the Weights check, so
        # the optimum that power_grid accepts is fully invested only with
        # the tilt projected onto the budget.
        market = {
            "mu": [1.000499466472451, 0.9954234381539013],
            "sigma": [
                [0.00018277223318946052, -5.851286627609222e-05],
                [-5.851286627609222e-05, 1.8732363724254135e-05],
            ],
        }
        path = tmp_path / "market.json"
        path.write_text(json.dumps(market))
        code, out, _ = _run(capsys, ["solve", "--market", str(path), "--gamma", "0.7531655372706838"])
        assert code == 0
        weights = json.loads(out)["weights"]
        assert abs(sum(weights) - 1.0) <= 1e-15 * sum(map(abs, weights))

    def test_accurate_near_singular_market_solves_above_gamma_min(self, capsys, tmp_path):
        # Condition number 5.7e12, and gamma_min 424.2: below it the one
        # error is the existence condition; above it the optimal mean is
        # within 1e-10 of a 60-digit solve.
        path = tmp_path / "market.json"
        path.write_text(json.dumps(ACCURATE_NEAR_SINGULAR_MARKET))
        code, out, err = _run(capsys, ["solve", "--market", str(path), "--gamma", "3"])
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "no solution exists below gamma_min (gamma=3, gamma_min=424.211)"}
        code, out, _ = _run(capsys, ["solve", "--market", str(path), "--gamma", "1000"])
        assert code == 0
        r, v, s = mp_constants(*(np.array(ACCURATE_NEAR_SINGULAR_MARKET[key]) for key in ("mu", "sigma")))
        x = mp_optimum(r, s, v, 1000.0)[0]
        assert abs(json.loads(out)["x"] - x) <= 1e-10 * x

    def test_tiny_slope_market_is_solved(self, capsys, tmp_path):
        # Means 3e-9 apart: s = 7.2e-15 and gamma_min = 1.7e-7. The slope
        # is accurate, and at gamma 3 the optimal mean is within a few
        # ulps of a 60-digit solve.
        market = {"mu": [1.004, 1.004 + 3e-9, 1.004 - 2e-9], "sigma": np.diag([1e-3, 2e-3, 1.5e-3]).tolist()}
        path = tmp_path / "market.json"
        path.write_text(json.dumps(market))
        code, out, _ = _run(capsys, ["solve", "--market", str(path), "--gamma", "3"])
        assert code == 0
        payload = json.loads(out)
        assert payload["s"] == pytest.approx(7.2e-15, rel=1e-2)
        r, v, s = mp_constants(*(np.array(market[key]) for key in ("mu", "sigma")))
        x = mp_optimum(r, s, v, 3.0)[0]
        assert abs(payload["x"] - x) <= 4 * np.spacing(payload["x"])

    def test_missing_market_source(self, capsys):
        code, _, err = _run(capsys, ["solve", "--gamma", "3"])
        assert code == 2
        assert "market source" in json.loads(err)["error"]

    def test_data_csv_source(self, capsys, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("0.01,0.05\n-0.01,0.01\n0.03,0.03\n")
        code, out, _ = _run(capsys, ["solve", "--data", str(path), "--gamma", "8"])
        assert code == 0
        assert json.loads(out)["gamma"] == 8.0


class TestMalformedJson:
    """A JSON input that is not an object with the required keys, or
    whose values fail their checks, is a one-line JSON error with exit
    2, not a traceback."""

    @pytest.mark.parametrize(
        "command, payload, message",
        [
            ("solve", {"mu": [1.05, 1.15]}, "market file is missing sigma"),
            ("solve", [1.05, 1.15], "market file must be a JSON object"),
            ("synth", {"n": 50, "mu0": [1.01, 1.02]}, "synth spec is missing sigma0"),
            ("synth", [50], "synth spec must be a JSON object"),
            ("study", {"mu0": [1.01, 1.02]}, "synth spec is missing n, sigma0"),
            (
                "synth",
                {"n": None, "mu0": [1.0, 1.01], "sigma0": [[1e-4, 0.0], [0.0, 1e-4]]},
                "n must be an integer",
            ),
            (
                "solve",
                {"mu": {"a": 1}, "sigma": WORKED_MARKET["sigma"]},
                "mu must be an array of numbers",
            ),
            # Cholesky reads only the lower triangle: without the symmetry
            # check this spec would draw returns with covariance 0 off the
            # diagonal.
            (
                "synth",
                {"n": 400, "mu0": [1.001, 1.002], "sigma0": [[4e-4, 3.6e-4], [0.0, 9e-4]]},
                "sigma0 must be symmetric within relative tolerance 1e-10",
            ),
        ],
    )
    def test_structured_error(self, capsys, tmp_path, command, payload, message):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(payload))
        argv = {
            "solve": ["solve", "--market", str(path), "--gamma", "3"],
            "synth": ["synth", "--spec", str(path)],
            "study": ["study", "--synth", str(path), "--out", str(tmp_path / "out")],
        }[command]
        code, out, err = _run(capsys, argv)
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": message}


class TestFrontier:
    def test_v_symmetric_about_r_gmv(self, tmp_path, worked_market):
        _, payload, rows = frontier_sample(tmp_path, worked_market, "--points", "9")
        d = rows[:, 0] - payload["r_gmv"]
        np.testing.assert_allclose(d, -d[::-1], rtol=1e-13)
        np.testing.assert_allclose(rows[:, 1], rows[::-1, 1], rtol=1e-14)

    @pytest.mark.parametrize(
        "market, flags, message",
        [
            (
                {"mu": [1.03, 1.03, 1.03], "sigma": np.diag([1e-4, 2e-4, 3e-4]).tolist()},
                [],
                "degenerate frontier",
            ),
            (
                {"mu": [0.04, -0.16], "sigma": [[0.01, 0.0], [0.0, 0.04]]},
                [],
                "existence threshold undefined for r_gmv = 0",
            ),
            (WORKED_MARKET, ["--span", "nan"], "span must be finite"),
            (WORKED_MARKET, ["--points", "-3"], "points must be non-negative"),
            # The span overflows the parabola's ends: the weights report
            # it, without a warning.
            (
                {"mu": [1.0, 3.0], "sigma": [[4.0, 0.0], [0.0, 4.0]]},
                ["--span", "1.7e308"],
                "weights must be finite",
            ),
        ],
        ids=["flat", "zero_r_gmv", "nan_span", "negative_points", "overflowing_span"],
    )
    def test_error_exits(self, capsys, tmp_path, market, flags, message):
        path = tmp_path / "market.json"
        path.write_text(json.dumps(market))
        out_csv = tmp_path / "parabola.csv"
        argv = ["frontier", "--market", str(path), "--out", str(out_csv), *flags]
        code, out, err = _run(capsys, argv)
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": message}
        assert not out_csv.exists()

    @pytest.mark.parametrize("span", ["inf", "nan"])
    def test_nonfinite_span_prints_one_json_line(self, market_file, span):
        # A separate process, so stderr is what a shell user sees,
        # warnings included.
        argv = ["frontier", "--market", market_file, "--span", span]
        proc = subprocess.run(
            [sys.executable, "-m", "crraport.cli", *argv],
            capture_output=True,
            text=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": str(Path(crraport.__file__).parents[1])},
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.count("\n") == 1
        assert json.loads(proc.stderr) == {"error": "span must be finite"}

    def test_constants_and_csv(self, capsys, market_file, tmp_path):
        out_csv = tmp_path / "parabola.csv"
        code, out, _ = _run(
            capsys,
            ["frontier", "--market", market_file, "--points", "7", "--out", str(out_csv)],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["r_gmv"] == pytest.approx(1.07, rel=1e-12)
        assert len(payload["points"]) == 7
        vs = [p["v"] for p in payload["points"]]
        assert min(vs) == pytest.approx(payload["v_gmv"], rel=1e-10)
        with out_csv.open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 7 and set(rows[0]) == {"x", "v", "w_1", "w_2"}
        w_sum = float(rows[0]["w_1"]) + float(rows[0]["w_2"])
        assert w_sum == pytest.approx(1.0, abs=1e-9)

    def test_csv_cells_are_plain_floats(self, capsys, tmp_path):
        out_csv = tmp_path / "parabola.csv"
        code, out, _ = _run(
            capsys, ["frontier", "--synth", "default", "--points", "9", "--out", str(out_csv)]
        )
        assert code == 0
        points = json.loads(out)["points"]
        with out_csv.open(newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert header[:2] == ["x", "v"] and len(rows) == len(points) == 9
        for row, point in zip(rows, points):
            values = [float(cell) for cell in row]
            assert values[0] == point["x"] and values[1] == point["v"]


class TestVerify:
    def test_pass_exit_zero(self, capsys, market_file):
        code, out, _ = _run(
            capsys,
            ["verify", "--market", market_file, "--gammas", "3,5", "--n-starts", "6"],
        )
        assert code == 0
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert all(r["status"] == "pass" for r in records)
        assert all(r["weight_gap"] <= 1e-5 for r in records)

    def test_gamma_beyond_utility_double_range_passes(self, capsys):
        # At 1e4 and 1e6 both expected utilities of the default synth are
        # -inf (beyond the double range); their ln CE stays finite.
        argv = ["verify", "--synth", "default", "--seed", "7", "--gammas", "1e4,1e6", "--n-starts", "6"]
        code, out, _ = _run(capsys, argv)
        assert code == 0
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert [r["status"] for r in records] == ["pass", "pass"]
        assert all(0.0 <= r["ln_ce_gap_rel"] <= 1e-9 for r in records)

    def test_below_threshold_skipped(self, capsys, market_file):
        code, out, _ = _run(
            capsys,
            ["verify", "--market", market_file, "--gammas", "0.5,3", "--n-starts", "6"],
        )
        assert code == 0
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert records[0]["status"].startswith("skipped")
        assert records[1]["status"] == "pass"

    @pytest.mark.parametrize("gamma", ["-1", "0"])
    def test_gamma_not_a_risk_aversion_rejected(self, capsys, gamma):
        # Checked before the gamma_min skip, which would otherwise pass it.
        argv = ["verify", "--synth", "default", "--seed", "2", f"--gammas={gamma},3", "--n-starts", "2"]
        code, out, err = _run(capsys, argv)
        assert code == 2
        assert out == ""
        assert json.loads(err) == {"error": "relative risk aversion must be positive and finite"}

    def test_impossible_tolerance_fails_nonzero(self, capsys, market_file):
        code, out, _ = _run(
            capsys,
            [
                "verify",
                "--market",
                market_file,
                "--gammas",
                "3",
                "--n-starts",
                "6",
                "--tol-w",
                "1e-16",
            ],
        )
        assert code == 1
        assert json.loads(out.strip().splitlines()[0])["status"] == "FAIL"


class TestLemma1:
    def test_table_monotone_and_bounded(self, capsys):
        code, out, _ = _run(
            capsys, ["lemma1", "--ratios", "0.2,0.1,0.05,0.01", "--n-grid", "2000"]
        )
        assert code == 0
        rows = list(csv.DictReader(out.strip().splitlines()))
        bounds = [float(r["bound"]) for r in rows]
        emps = [float(r["empirical"]) for r in rows]
        assert all(b < a for a, b in zip(bounds, bounds[1:]))
        assert all(b < a for a, b in zip(emps, emps[1:]))
        assert all(e <= b for e, b in zip(emps, bounds))
        assert all(float(r["bound_over_ratio"]) <= 1.0 for r in rows)

    def test_nan_mu_is_structured_error(self, capsys):
        code, out, err = _run(capsys, ["lemma1", "--mu", "nan"])
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "mu and sigma must be positive"}


class TestSynth:
    def test_deterministic_output(self, capsys, tmp_path):
        a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
        assert main(["synth", "--seed", "5", "--out", str(a)]) == 0
        assert main(["synth", "--seed", "5", "--out", str(b)]) == 0
        assert main(["synth", "--seed", "6", "--out", str(c)]) == 0
        capsys.readouterr()
        assert filecmp.cmp(a, b, shallow=False)
        assert not filecmp.cmp(a, c, shallow=False)

    def test_stdout_matches_the_csv_module(self, capsys):
        code, out, _ = _run(capsys, ["synth", "--seed", "2"])
        assert code == 0
        returns = synth_market(default_synth_spec(), 2)
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(returns.asset_labels)
        writer.writerows(returns.values.tolist())
        assert out == expected.getvalue()

    def test_roundtrips_through_loader(self, capsys, tmp_path):
        path = tmp_path / "synth.csv"
        assert main(["synth", "--seed", "1", "--out", str(path)]) == 0
        capsys.readouterr()
        from crraport import load_returns_csv

        rm = load_returns_csv(path)
        assert rm.n_assets == 17 and rm.n_periods == 156


class TestStudy:
    def test_end_to_end(self, capsys, tmp_path):
        out_dir = tmp_path / "study"
        code, out, _ = _run(
            capsys,
            [
                "study",
                "--synth",
                "default",
                "--seed",
                "2",
                "--k-range",
                "4,5",
                "--gammas",
                "0.5,2",
                "--subset-cap",
                "8",
                "--quantiles",
                "0.25",
                "--out",
                str(out_dir),
            ],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["strategy_rows"] > 0
        counts = json.loads((out_dir / "summary.json").read_text())["counts"]
        assert payload["strategy_rows"] == counts["strategy_utilities"]
        assert payload["cells_with_errors"] == counts["cell_errors"] > 0

    def test_k_range_colon_syntax(self, capsys, tmp_path):
        out_dir = tmp_path / "study2"
        code, out, _ = _run(
            capsys,
            [
                "study", "--synth", "default", "--seed", "2",
                "--k-range", "4:6", "--gammas", "2", "--subset-cap", "4",
                "--out", str(out_dir),
            ],
        )
        assert code == 0
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["metadata"]["k_range"] == [4, 5, 6]

    def test_empty_k_range_is_usage_error(self, capsys, tmp_path):
        code, _, err = _run(
            capsys,
            ["study", "--k-range", "14:4", "--out", str(tmp_path / "empty")],
        )
        assert code == 2
        assert json.loads(err) == {"error": "k_range must not be empty"}
        assert not (tmp_path / "empty").exists()

    def test_infinite_gamma_is_rejected_before_the_panel_loads(self, capsys, tmp_path):
        # The CSV does not exist: the config check comes first.
        argv = ["study", "--data", str(tmp_path / "missing.csv"), "--gammas", "2,inf", "--out", str(tmp_path / "o")]
        code, out, err = _run(capsys, argv)
        assert (code, out) == (2, "")
        assert err.count("\n") == 1
        assert json.loads(err) == {"error": "gamma_grid entries must be positive and finite"}
        assert not (tmp_path / "o").exists()

    def test_small_volatility_market_completes(self, capsys, tmp_path):
        # The shipped calibration at a tenth of its volatility: every
        # subset is well conditioned, so the study must code cells, not abort.
        spec = json.loads(
            (Path(crraport.__file__).parent / "data" / "default_synth.json").read_text()
        )
        spec["sigma0"] = (0.01 * np.asarray(spec["sigma0"])).tolist()
        spec_path = tmp_path / "small_vol.json"
        spec_path.write_text(json.dumps(spec))
        out_dir = tmp_path / "study3"
        code, _, err = _run(
            capsys,
            [
                "study", "--synth", str(spec_path), "--seed", "7",
                "--k-range", "8", "--gammas", "2,5", "--out", str(out_dir),
            ],
        )
        assert code == 0, err
        with (out_dir / "cell_errors.csv").open() as fh:
            codes = {row["code"] for row in csv.DictReader(fh)}
        assert codes <= {"below_gamma_min", "nonpositive_realized_gross_return"}


class TestEnvOverrides:
    def test_seed_from_environment(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("CRRAPORT_SEED", "123")
        out_env = tmp_path / "env.csv"
        assert main(["synth", "--out", str(out_env)]) == 0
        monkeypatch.delenv("CRRAPORT_SEED")
        out_flag = tmp_path / "flag.csv"
        assert main(["synth", "--seed", "123", "--out", str(out_flag)]) == 0
        capsys.readouterr()
        assert filecmp.cmp(out_env, out_flag, shallow=False)

    def test_bad_environment_value_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("CRRAPORT_SEED", "abc")
        with pytest.raises(SystemExit) as exc:
            main(["synth"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:") and "invalid int value: 'abc'" in err

    def test_flag_beats_environment(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("CRRAPORT_SEED", "123")
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert main(["synth", "--seed", "9", "--out", str(out_a)]) == 0
        monkeypatch.delenv("CRRAPORT_SEED")
        assert main(["synth", "--seed", "9", "--out", str(out_b)]) == 0
        capsys.readouterr()
        assert filecmp.cmp(out_a, out_b, shallow=False)


@pytest.mark.parametrize(
    "argv",
    [
        ["study", "--synth", "default", "--seed", "-1"],
        ["synth", "--seed", "-2"],
        ["solve", "--synth", "default", "--seed", "-1", "--gamma", "3"],
        ["verify", "--market", "{market}", "--seed", "-1"],
    ],
    ids=["study", "synth", "solve", "verify"],
)
def test_negative_seed_is_named(capsys, market_file, argv):
    # Each command rejects the seed before it writes anything.
    code, out, err = _run(capsys, [arg.replace("{market}", market_file) for arg in argv])
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "seed must be a non-negative integer"}


@pytest.mark.skipif(shutil.which("crraport") is None, reason="entry point not installed")
def test_console_script_help():
    proc = subprocess.run(
        ["crraport", "--help"], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0
    assert "study" in proc.stdout and "verify" in proc.stdout


def test_console_script_target_runs_help(capsys):
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["crraport"]
    module_name, func_name = target.split(":")
    entry = getattr(importlib.import_module(module_name), func_name)
    with pytest.raises(SystemExit) as exc:
        entry(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "study" in out and "verify" in out
