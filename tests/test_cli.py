"""Command line surface: exit codes, artifact formats, reproducibility."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tracefluct import acceptance, montecarlo
from tracefluct.acceptance import CriterionResult
from tracefluct.cli import main, parse_beta, parse_dist, parse_function
from tracefluct.combinatorics import MultiIndex


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def assert_phase_times(run_info, keys):
    fields = dict(line.split("=", 1) for line in run_info.read_text().splitlines())
    for key in keys:
        assert float(fields[key]) >= 0.0, key
    return fields


# ------------------------------------------------------------------ imports


@pytest.mark.parametrize("package", ["scipy", "concurrent.futures.process"])
def test_cli_import_skips(package):
    # scipy alone costs over a second of start-up; it serves only the oracles
    code = ("import sys, tracefluct.cli; print(any(m == {0!r} or m.startswith({0!r} + '.') "
            "for m in sys.modules))").format(package)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    assert out.stdout.strip() == "False"


# ------------------------------------------------------------------ parsing


def test_parse_beta():
    assert parse_beta("delta") == MultiIndex.delta()
    assert parse_beta("2delta") == MultiIndex.two_delta()
    assert parse_beta("delta+delta^3") == MultiIndex.delta_pair(3)
    assert parse_beta("0:1,2:2") == MultiIndex.from_counts({0: 1, 2: 2})
    assert parse_beta("zero") == MultiIndex.zero()
    with pytest.raises(ValueError):
        parse_beta("nonsense")


def test_parse_dist_and_function():
    assert parse_dist("rademacher").name == "rademacher"
    assert parse_dist("uniform:sqrt3").moment(4) == pytest.approx(1.8)
    assert parse_dist("uniform:2.0").bound == 2.0
    with pytest.raises(ValueError):
        parse_dist("cauchy")
    f = parse_function("poly:0,1,0,2")
    assert f.coefficient(3) == 2.0
    assert parse_function("exp:0.125").coefficient(0) == 1.0
    with pytest.raises(ValueError):
        parse_function("sin:1")


# -------------------------------------------------------------------- paths


def test_paths_table(capsys):
    code, out, _ = run_cli(["paths", "--k", "3"], capsys)
    assert code == 0
    assert "beta,count" in out
    assert "0:1,6" in out          # single flat: six paths
    assert "0:3,1" in out          # triple flat: one path


def test_paths_specific_beta(capsys):
    code, out, _ = run_cli(["paths", "--k", "4", "--beta", "2delta"], capsys)
    assert code == 0
    assert out.strip() == "8"


def test_paths_k0(capsys):
    code, out, _ = run_cli(["paths", "--k", "0"], capsys)
    assert code == 0
    assert "0,1" in out


def test_paths_cap_validation(capsys):
    code, out, err = run_cli(["paths", "--k", "20"], capsys)
    assert code == 2 and not out
    assert "cap" in err
    for argv in (["paths", "--k", "-1", "--beta", "delta"], ["paths", "--k", "-1"]):
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and not out and ">= 0" in err


# --------------------------------------------------------------- trace-poly


def test_trace_poly_stdout(capsys):
    code, out, _ = run_cli(["trace-poly", "--N", "5", "--k", "2"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert "sites,exponents,coefficient" in lines
    assert ",,8" in lines           # constant row: 2N - 2
    assert "1,2,1" in lines         # V(1)^2 with coefficient 1
    assert "5,2,1" in lines


def test_trace_poly_file_roundtrip(tmp_path, capsys):
    out_file = tmp_path / "poly.csv"
    code, _, _ = run_cli(["trace-poly", "--N", "6", "--k", "4", "--out", str(out_file)], capsys)
    assert code == 0
    first = out_file.read_text()
    run_cli(["trace-poly", "--N", "6", "--k", "4", "--out", str(out_file)], capsys)
    assert out_file.read_text() == first  # byte reproducible
    assert "# format_version=1" in first


# ------------------------------------------------------------------- verify


def test_verify_fast(tmp_path, capsys):
    report_path = tmp_path / "verify.json"
    code, _, _ = run_cli(["verify", "--level", "fast", "--json", str(report_path)], capsys)
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["checks_failed"] == 0
    assert report["checks_run"] > 50


def test_verify_fault_injection(capsys):
    code, out, err = run_cli(["verify", "--level", "fast", "--inject-fault"], capsys)
    assert code == 1
    assert "k=2" in err and "beta=" in err


def test_verify_level_validation(capsys):
    code, _, _ = run_cli(["verify", "--level", "fast"], capsys)
    assert code == 0


# ---------------------------------------------------------------- expansion


def test_expansion_k_mode(capsys):
    code, out, _ = run_cli(
        ["expansion", "--k", "4", "--alpha", "0.5", "--N", "30"], capsys)
    assert code == 0
    payload = json.loads(out)
    rep = payload["report"]
    assert rep["linear_coeff"] == 6.0
    assert rep["constant_coeff"] == -10.0
    assert rep["powersum_coeffs"]["2"] == 8.0


def test_expansion_f_mode_files(tmp_path, capsys):
    code, _, _ = run_cli(
        ["expansion", "--f", "poly:0,0,1", "--alpha", "0.3", "--N", "1000",
         "--out", str(tmp_path)], capsys)
    assert code == 0
    rep = json.loads((tmp_path / "expansion_report.json").read_text())
    assert rep["report"]["m_cutoff"] == 3
    csv_text = (tmp_path / "expansion_terms.csv").read_text()
    assert "j,coefficient,powersum,contribution" in csv_text
    assert_phase_times(tmp_path / "run_info.txt", ["expansion_s"])


def test_expansion_validation(capsys):
    code, _, err = run_cli(["expansion", "--alpha", "0.5", "--N", "30"], capsys)
    assert code == 2 and "exactly one" in err
    code, _, err = run_cli(
        ["expansion", "--k", "2", "--alpha", "-1", "--N", "30"], capsys)
    assert code == 2
    code, _, err = run_cli(
        ["expansion", "--f", "poly:" + ",".join(["0"] * 15 + ["1"]), "--alpha", "0.5",
         "--N", "1000"], capsys)
    assert code == 2 and "cap of 14" in err
    code, out, err = run_cli(
        ["expansion", "--f", "poly:0,1", "--f", "poly:0,0,1", "--alpha", "0.3", "--N", "100"],
        capsys)
    assert code == 2 and "exactly one --f" in err and not out
    code, out, err = run_cli(["expansion", "--k", "-1", "--alpha", "0.5", "--N", "30"], capsys)
    assert code == 2 and ">= 0" in err and not out


@pytest.mark.parametrize("argv", [
    ["--k", "4", "--alpha", "0.5", "--dist", "uniform:nan"],
    ["--k", "4", "--alpha", "0.5", "--dist", "uniform:inf"],
    ["--k", "4", "--alpha", "nan"],
    ["--k", "4", "--alpha", "inf"],
], ids=["law-nan", "law-inf", "alpha-nan", "alpha-inf"])
def test_expansion_rejects_non_finite_input(argv, capsys):
    code, out, err = run_cli(["expansion", *argv, "--N", "30"], capsys)
    assert code == 2 and "finite" in err and not out


# ----------------------------------------------------------------- simulate


def test_simulate_artifacts(tmp_path, capsys):
    code, _, err = run_cli(
        ["simulate", "--f", "poly:0,1", "--f", "poly:0,0,0,1",
         "--alpha", "0.3", "--n-grid", "100,400", "--replicas", "120",
         "--seed", "7", "--out", str(tmp_path), "--workers", "1"], capsys)
    assert code == 0, err
    samples = (tmp_path / "samples.csv").read_text().splitlines()
    header_idx = samples.index("replica,f_id,N,raw_trace,centered,scaled")
    data = samples[header_idx + 1:]
    assert len(data) == 120 * 2 * 2
    clt = json.loads((tmp_path / "clt_report.json").read_text())
    assert clt["t_scaling"] == pytest.approx(0.6)
    corr = (tmp_path / "correlation.csv").read_text()
    assert "N,f_i,f_j,correlation" in corr
    fields = assert_phase_times(tmp_path / "run_info.txt",
                                ["ensemble_s", "sample_s", "trace_s", "center_s", "reports_s",
                                 "write_s", "replicas_per_s"])
    # a polynomial is used whole: its degree, and nothing dropped
    assert fields["degree:poly:0,1"] == "1" and fields["degree:poly:0,0,0,1"] == "3"
    assert float(fields["tail:poly:0,1"]) == float(fields["tail:poly:0,0,0,1"]) == 0.0


def test_simulate_reproducible(tmp_path, capsys):
    args = ["simulate", "--f", "poly:0,1", "--alpha", "0.3", "--n-grid", "200",
            "--replicas", "16", "--seed", "3"]
    code, _, err = run_cli(args + ["--out", str(tmp_path / "a")], capsys)
    assert code == 0
    assert "skipping the variance report" in err  # M < 100
    run_cli(args + ["--out", str(tmp_path / "b")], capsys)
    assert ((tmp_path / "a" / "samples.csv").read_text()
            == (tmp_path / "b" / "samples.csv").read_text())


def test_simulate_mixed_case_rejected(tmp_path, capsys):
    code, _, err = run_cli(
        ["simulate", "--f", "poly:0,1", "--f", "poly:0,0,1", "--alpha", "0.2",
         "--n-grid", "100", "--replicas", "8", "--seed", "1",
         "--out", str(tmp_path)], capsys)
    assert code == 2
    assert "mix" in err


@pytest.mark.parametrize("argv, message", [
    (["--f", "exp:1", "--alpha", "0.3", "--n-grid", "1000"], "cap of 14"),
    (["--f", "poly:0,0,0,0,1", "--alpha", "0.2", "--n-grid", "8,1000"], "N > 2k"),
    (["--f", "poly:0,1", "--alpha", "0.3", "--n-grid", "1000", "--workers", "-1"], "worker count"),
    (["--f", "poly:0,1", "--alpha", "nan", "--n-grid", "1000"], "finite"),
    (["--f", "poly:0,1", "--alpha", "inf", "--n-grid", "1000"], "finite"),
    (["--f", "poly:0,1", "--alpha", "0.3", "--n-grid", "1000", "--dist", "uniform:nan"], "finite"),
    (["--f", "poly:" + "0," * 12 + "1", "--alpha", "0.3", "--n-grid", "1000",
      "--dist", "uniform:1e30"], "exceeds 1e+300"),
    (["--f", "exp:nan", "--alpha", "0.3", "--n-grid", "1000"], "finite"),
    (["--f", "exp:inf", "--alpha", "0.3", "--n-grid", "1000"], "finite"),
    (["--f", "exp:1e300", "--alpha", "0.3", "--n-grid", "1000"],
     "no truncation of exp:1e300 at x=3 meets tolerance 1e-09"),
], ids=["cap", "sites", "workers", "alpha-nan", "alpha-inf", "law-nan", "overflow",
        "exp-nan", "exp-inf", "exp-huge"])
def test_simulate_infeasible_fails_before_sampling(argv, message, tmp_path, capsys, monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled an infeasible configuration")

    monkeypatch.setattr(montecarlo, "sample_potential", no_sampling)
    code, _, err = run_cli(
        ["simulate", *argv, "--replicas", "20", "--seed", "1", "--out", str(tmp_path)], capsys)
    assert code == 2 and message in err


def test_simulate_numerically_finite_series(tmp_path, capsys):
    # exp(0*x) = 1: every trace is N, and the limiting variance is exactly zero
    code, _, err = run_cli(
        ["simulate", "--f", "exp:0", "--alpha", "0.3", "--n-grid", "100",
         "--replicas", "100", "--seed", "1", "--out", str(tmp_path)], capsys)
    assert code == 0, err
    (entry,) = json.loads((tmp_path / "clt_report.json").read_text())["entries"]
    assert entry["degenerate"] and entry["sigma_sq_theory"] == 0.0


def test_simulate_case_c_reports_its_limiting_variance(tmp_path, capsys):
    code, _, err = run_cli(
        ["simulate", "--f", "poly:0,-6,0,1", "--alpha", "0.1", "--n-grid", "1000",
         "--replicas", "100", "--seed", "1", "--out", str(tmp_path)], capsys)
    assert code == 0, err
    (entry,) = json.loads((tmp_path / "clt_report.json").read_text())["entries"]
    assert entry["sigma_sq_theory"] == 1.0  # E X^6 under the default Rademacher law


def test_simulate_just_above_critical_writes_samples(tmp_path, capsys):
    # alpha/alpha_c = 1 + 1.4e-12: past the tolerance, so no scaled column and no report
    code, _, err = run_cli(
        ["simulate", "--f", "poly:0,1", "--alpha", "0.5000000000007", "--n-grid", "1000",
         "--replicas", "100", "--seed", "1", "--out", str(tmp_path)], capsys)
    assert code == 0, err
    assert "above the critical exponent" in err
    rows = (tmp_path / "samples.csv").read_text().splitlines()
    data = rows[rows.index("replica,f_id,N,raw_trace,centered,scaled") + 1:]
    assert len(data) == 100 and all(row.endswith(",") for row in data)
    assert not (tmp_path / "clt_report.json").exists()


def test_simulate_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "f=poly:0,1\nalpha=0.3\nn_grid=100\nreplicas=8\nseed=11\n"
        f"out={tmp_path / 'from_file'}\n"
    )
    code, _, _ = run_cli(["simulate", "--config", str(cfg)], capsys)
    assert code == 0
    assert (tmp_path / "from_file" / "samples.csv").exists()
    # explicit flags win over the file
    code, _, _ = run_cli(
        ["simulate", "--config", str(cfg), "--out", str(tmp_path / "flag_wins")],
        capsys)
    assert code == 0
    assert (tmp_path / "flag_wins" / "samples.csv").exists()


# ------------------------------------------------------------------- accept


def test_accept_subset(tmp_path, capsys):
    code, out, _ = run_cli(["accept", "--only", "1,5", "--out", str(tmp_path)], capsys)
    assert code == 0
    assert "[PASS] criterion  1" in out
    payload = json.loads((tmp_path / "acceptance.json").read_text())
    assert [r["cid"] for r in payload["results"]] == [1, 5]


def test_accept_failing_criterion(capsys, monkeypatch):
    failing = CriterionResult(12, "injected failure", False, "always fails")
    monkeypatch.setitem(acceptance.CRITERIA, 12, lambda: failing)
    code, out, _ = run_cli(["accept", "--only", "12"], capsys)
    assert code == 1
    assert "[FAIL] criterion 12" in out
