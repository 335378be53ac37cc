import csv
import io
import json

import pytest

from bmvsim.cli import (
    EXIT_IO,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_USAGE,
    build_run_report,
    build_tomography_report,
    build_verify_report,
    main,
)
from bmvsim.fermion_ssr import run_fermion_protocol
from bmvsim.statecore import EPS


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_run_fermion_json(capsys):
    code, out, _ = run_cli(capsys, ["run", "fermion", "--format", "json"])
    assert code == EXIT_OK
    report = json.loads(out)
    assert set(report) >= {"model", "steps", "mediator_states", "witness", "expected", "pass"}
    assert report["model"] == "fermion"
    assert report["pass"] is True
    row = next(c for c in report["expected"] if c["name"] == "x1x2_expect")
    assert row["pass"] and row["expected"] == "-0.5"
    assert len(report["mediator_states"]) == 4
    # final matter marginals are maximally mixed: I/4 as [re, im] pairs
    rho = report["marginals"]["rho_q1"]
    assert rho[0][0] == pytest.approx([0.25, 0.0], abs=EPS)
    assert rho[0][1] == pytest.approx([0.0, 0.0], abs=EPS)


def test_run_model_flag_equivalent(capsys):
    code_pos, out_pos, _ = run_cli(capsys, ["run", "fermion", "--format", "json"])
    code_flag, out_flag, _ = run_cli(capsys, ["run", "--model", "fermion", "--format", "json"])
    assert code_pos == code_flag == EXIT_OK
    assert out_pos == out_flag


def test_run_requires_exactly_one_model(capsys):
    code, _, err = run_cli(capsys, ["run"])
    assert code == EXIT_USAGE and "model" in err
    code, _, err = run_cli(capsys, ["run", "fermion", "--model", "anyon"])
    assert code == EXIT_USAGE


def test_run_anyon_trace_steps(capsys):
    code, out, _ = run_cli(capsys, ["run", "anyon", "--trace-steps", "--format", "json"])
    assert code == EXIT_OK
    report = json.loads(out)
    assert len(report["steps"]) == 4
    assert all("state" in step for step in report["steps"])
    assert report["steps"][1]["state"]["partition"] == "right"
    # mediator stays the charge-1 projector at every checkpoint
    for med in report["mediator_states"]:
        assert med[1][1] == pytest.approx([1.0, 0.0], abs=EPS)
        assert med[0][0] == [0.0, 0.0] and med[2][2] == [0.0, 0.0]
    purities = [c for c in report["expected"] if c["name"].startswith("mediator_purity")]
    assert len(purities) == 4 and all(c["pass"] for c in purities)


def test_run_bitantibit_mediator_bits(capsys):
    code_default, out_default, _ = run_cli(capsys, ["run", "bitantibit", "--format", "json"])
    code_big, out_big, _ = run_cli(capsys, ["run", "bitantibit", "--mediator-bits", "4", "--format", "json"])
    assert code_default == code_big == EXIT_OK
    final_default = json.loads(out_default)["expected"]
    final_big = json.loads(out_big)["expected"]
    check = {c["name"]: c["pass"] for c in final_big}
    assert check["final_matter"] and check["x1x2_expect"]
    assert {c["name"]: c["pass"] for c in final_default}["final_matter"]


def test_mediator_bits_usage_errors(capsys):
    code, _, err = run_cli(capsys, ["run", "fermion", "--mediator-bits", "3"])
    assert code == EXIT_USAGE and "bitantibit" in err
    code, _, _ = run_cli(capsys, ["run", "bitantibit", "--mediator-bits", "1"])
    assert code == EXIT_USAGE
    # 2^64 mediator states: rejected by the memory cap before anything is built
    code, _, err = run_cli(capsys, ["run", "bitantibit", "--mediator-bits", "64"])
    assert code == EXIT_USAGE and "at most" in err


def test_unknown_model_exits_2(capsys):
    code, _, _ = run_cli(capsys, ["run", "spins"])
    assert code == EXIT_USAGE


def test_tomography_table(capsys):
    code, out, _ = run_cli(capsys, ["tomography", "--k-max", "5", "--format", "json"])
    assert code == EXIT_OK
    report = json.loads(out)
    assert [(r["k"], r["count"]) for r in report["counts"]] == [(1, 2), (2, 8), (3, 32), (4, 128), (5, 512)]
    assert all(r["match"] for r in report["counts"])
    assert report["span_check"]["decomposable"] is False
    assert report["span_check"]["residual"] > 0.1
    assert report["pass"] is True


def test_tomography_k1(capsys):
    code, out, _ = run_cli(capsys, ["tomography", "--k-max", "1", "--format", "json"])
    assert code == EXIT_OK
    assert len(json.loads(out)["counts"]) == 1


def test_tomography_k_too_large(capsys):
    code, _, err = run_cli(capsys, ["tomography", "--k-max", "6"])
    assert code == EXIT_USAGE and "too large" in err


def test_verify_all_passes(capsys):
    code, out, _ = run_cli(capsys, ["verify-all"])
    assert code == EXIT_OK
    lines = [line for line in out.splitlines() if line.startswith("[")]
    assert len(lines) == 11
    assert all(line.startswith("[PASS]") for line in lines)
    assert out.strip().endswith("RESULT: PASS")


def test_verify_all_csv_parses(capsys):
    code, out, _ = run_cli(capsys, ["verify-all", "--format", "csv"])
    assert code == EXIT_OK
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["section", "key", "value"]
    assert len(rows) > 11


def test_eps_override_surfaces_failures(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, ["verify-all", "--eps", "1e-30"])
    assert code == EXIT_MISMATCH
    assert "[FAIL]" in out
    monkeypatch.setenv("BMV_EPS", "1e-30")
    code_env, _, _ = run_cli(capsys, ["verify-all"])
    assert code_env == EXIT_MISMATCH


def test_eps_flag_beats_environment(capsys, monkeypatch):
    monkeypatch.setenv("BMV_EPS", "1e-30")
    code, out, _ = run_cli(capsys, ["verify-all", "--eps", "1e-10"])
    assert code == EXIT_OK
    assert out.strip().endswith("RESULT: PASS")


def test_eps_validation(capsys):
    code, _, err = run_cli(capsys, ["run", "fermion", "--eps", "0.5"])
    assert code == EXIT_USAGE and "eps" in err
    code, _, _ = run_cli(capsys, ["run", "fermion", "--eps", "-1e-9"])
    assert code == EXIT_USAGE


def test_bad_env_eps(capsys, monkeypatch):
    monkeypatch.setenv("BMV_EPS", "many")
    code, _, err = run_cli(capsys, ["run", "fermion"])
    assert code == EXIT_USAGE and "BMV_EPS" in err


def test_write_failure_exits_3(capsys, tmp_path):
    target = tmp_path / "missing-dir" / "report.json"
    code, _, err = run_cli(capsys, ["run", "fermion", "--out", str(target)])
    assert code == EXIT_IO and "cannot write" in err


def test_out_file_round_trip(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, ["run", "fermion", "--format", "json", "--out", str(target)])
    assert code == EXIT_OK
    report = json.loads(target.read_text())
    assert report["pass"] is True


def test_reports_are_byte_deterministic(capsys):
    _, out1, _ = run_cli(capsys, ["run", "bitantibit", "--format", "json", "--trace-steps"])
    _, out2, _ = run_cli(capsys, ["run", "bitantibit", "--format", "json", "--trace-steps"])
    assert out1 == out2
    _, t1, _ = run_cli(capsys, ["tomography", "--format", "csv"])
    _, t2, _ = run_cli(capsys, ["tomography", "--format", "csv"])
    assert t1 == t2


def test_report_builders_direct():
    trace = run_fermion_protocol()
    report = build_run_report(trace, EPS, trace_steps=False)
    assert report["pass"] and "state" not in report["steps"][0]
    tomo = build_tomography_report(2, EPS)
    assert tomo["pass"]
    verify = build_verify_report(EPS)
    assert verify["pass"] and len(verify["criteria"]) == 11


def test_run_report_complex_serialization(capsys):
    code, out, _ = run_cli(capsys, ["run", "anyon", "--trace-steps", "--format", "json"])
    report = json.loads(out)
    amp = report["steps"][1]["state"]["amplitudes"]
    # after the first gate the right-partition amplitudes are (1, 1, 1, -1)/2
    values = {tuple(round(x, 9) for x in pair) for pair in amp}
    assert (0.5, 0.0) in values and (-0.5, 0.0) in values


def test_csv_is_rfc4180(capsys):
    code, out, _ = run_cli(capsys, ["run", "fermion", "--format", "csv"])
    assert code == EXIT_OK
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["section", "key", "value"]
    # every row has exactly three cells
    assert all(len(row) == 3 for row in rows)


@pytest.mark.parametrize("model", ["fermion", "anyon", "bitantibit"])
def test_text_rendering_smoke(capsys, model):
    code, out, _ = run_cli(capsys, ["run", model])
    assert code == EXIT_OK
    assert out.startswith("bmvsim")
    assert f"model: {model}" in out
    assert out.strip().endswith("RESULT: PASS")


@pytest.mark.parametrize("model, eps", [("anyon", "1e-16"), ("bitantibit", "1e-16"), ("fermion", "1e-20")])
def test_eps_below_rounding_still_writes_a_report(capsys, tmp_path, model, eps):
    # purity's density check has a rounding floor, so an eps below float64
    # rounding gives a report with verdicts at that eps, not an input error
    target = tmp_path / "report.txt"
    code, _, err = run_cli(capsys, ["run", model, "--eps", eps, "--out", str(target)])
    assert "not-density" not in err
    text = target.read_text()
    assert text.endswith("RESULT: PASS\n" if code == EXIT_OK else "RESULT: FAIL\n")
    assert code in (EXIT_OK, EXIT_MISMATCH)
