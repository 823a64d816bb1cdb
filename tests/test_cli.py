import csv
import filecmp
import json
import shutil
import subprocess
from pathlib import Path

import numpy as np
import pytest

import crraport
from crraport.cli import main

WORKED_MARKET = {"mu": [1.05, 1.15], "sigma": [[0.01, 0.0], [0.0, 0.04]]}


@pytest.fixture
def market_file(tmp_path):
    path = tmp_path / "market.json"
    path.write_text(json.dumps(WORKED_MARKET))
    return str(path)


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


class TestFrontier:
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

    def test_below_threshold_skipped(self, capsys, market_file):
        code, out, _ = _run(
            capsys,
            ["verify", "--market", market_file, "--gammas", "0.5,3", "--n-starts", "6"],
        )
        assert code == 0
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert records[0]["status"].startswith("skipped")
        assert records[1]["status"] == "pass"

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


class TestSynth:
    def test_deterministic_output(self, capsys, tmp_path):
        a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
        assert main(["synth", "--seed", "5", "--out", str(a)]) == 0
        assert main(["synth", "--seed", "5", "--out", str(b)]) == 0
        assert main(["synth", "--seed", "6", "--out", str(c)]) == 0
        capsys.readouterr()
        assert filecmp.cmp(a, b, shallow=False)
        assert not filecmp.cmp(a, c, shallow=False)

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
        assert (out_dir / "summary.json").exists()

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

    def test_flag_beats_environment(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("CRRAPORT_SEED", "123")
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert main(["synth", "--seed", "9", "--out", str(out_a)]) == 0
        monkeypatch.delenv("CRRAPORT_SEED")
        assert main(["synth", "--seed", "9", "--out", str(out_b)]) == 0
        capsys.readouterr()
        assert filecmp.cmp(out_a, out_b, shallow=False)


@pytest.mark.skipif(shutil.which("crraport") is None, reason="entry point not installed")
def test_console_script_help():
    proc = subprocess.run(
        ["crraport", "--help"], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0
    assert "study" in proc.stdout and "verify" in proc.stdout
