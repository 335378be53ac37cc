import csv
import errno
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bmvsim import acceptance, cli
from bmvsim.cli import (
    EXIT_IO,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_USAGE,
    MAX_MEDIATOR_BITS,
    build_parser,
    build_run_report,
    build_tomography_report,
    build_verify_report,
    main,
)
from bmvsim.fermion_ssr import MAX_COUNT_MODES, run_fermion_protocol
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
    code, _, err = run_cli(capsys, ["run", "bitantibit", "--mediator-bits", str(MAX_MEDIATOR_BITS + 1)])
    assert code == EXIT_USAGE and f"at most {MAX_MEDIATOR_BITS}" in err


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


def test_span_residual_off_its_pin_fails_tomography_and_criterion_5(capsys, monkeypatch):
    # the target is orthogonal to the local product span, so scaling it
    # scales the residual: 0.05 is out of the span but within _SPAN_GAP_MIN
    target = acceptance.nondecomposable_target() * (0.05 / acceptance.EXPECTED_SPAN_RESIDUAL)
    monkeypatch.setattr(acceptance, "nondecomposable_target", lambda: target)
    code, out, _ = run_cli(capsys, ["tomography", "--format", "json"])
    report = json.loads(out)
    assert report["span_check"]["residual"] == pytest.approx(0.05)
    assert report["span_check"]["decomposable"] is False
    assert code == EXIT_MISMATCH and report["pass"] is False
    criterion = acceptance.run_all(EPS)[4]
    assert criterion["name"] == "non-decomposability" and criterion["pass"] is False


def test_tomography_k1(capsys):
    code, out, _ = run_cli(capsys, ["tomography", "--k-max", "1", "--format", "json"])
    assert code == EXIT_OK
    assert len(json.loads(out)["counts"]) == 1


def test_tomography_k_too_large(capsys):
    code, _, err = run_cli(capsys, ["tomography", "--k-max", str(MAX_COUNT_MODES + 1)])
    assert code == EXIT_USAGE and "too large" in err and f"at most {MAX_COUNT_MODES}" in err


def test_tomography_at_the_cap(capsys):
    code, out, _ = run_cli(capsys, ["tomography", "--k-max", str(MAX_COUNT_MODES), "--format", "json"])
    assert code == EXIT_OK
    report = json.loads(out)
    assert [(r["k"], r["count"]) for r in report["counts"]] == [
        (k, 1 << (2 * k - 1)) for k in range(1, MAX_COUNT_MODES + 1)
    ]
    assert report["pass"] is True


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


@pytest.mark.parametrize("command", [["run", "fermion"], ["run", "anyon"], ["run", "bitantibit"], ["tomography"], ["verify-all"]])
@pytest.mark.parametrize("source", ["flag", "env"])
@pytest.mark.parametrize("eps", ["9.9e-13", "1e-16", "1e-30"])
def test_eps_below_eps_min_exits_2_before_any_protocol(capsys, monkeypatch, tmp_path, command, source, eps):
    # below EPS_MIN rounding decides the verdicts: the command is refused
    # before a protocol runs, and no report is written
    called = []
    for model in cli.RUNNERS:
        monkeypatch.setitem(cli.RUNNERS, model, lambda *args, **options: called.append(args))
    monkeypatch.setattr(cli, "count_scaling_check", lambda *args: called.append(args))
    target = tmp_path / "report"
    argv = [*command, "--out", str(target)]
    if source == "flag":
        argv += ["--eps", eps]
    else:
        monkeypatch.setenv("BMV_EPS", eps)
    code, out, err = run_cli(capsys, argv)
    assert code == EXIT_USAGE and "eps must lie in [1e-12, 1e-6]" in err
    assert out == "" and not target.exists() and not called


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


class FailingStdout:
    """A stdout on a file descriptor of its own whose every write raises."""

    def __init__(self, exc: OSError, fd: int):
        self.exc, self.fd = exc, fd

    def write(self, text):
        raise self.exc

    def writelines(self, lines):
        for line in lines:
            self.write(line)

    def flush(self):
        pass

    def fileno(self):
        return self.fd


@pytest.mark.parametrize(
    "exc", [OSError(errno.ENOSPC, "No space left on device"), BrokenPipeError(errno.EPIPE, "Broken pipe")]
)
def test_stdout_write_failure_exits_3(capsys, monkeypatch, tmp_path, exc):
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr(sys, "stdout", FailingStdout(exc, fd))
        code = main(["run", "fermion", "--format", "json"])
        # the failed stream's descriptor now leads to the null device
        assert os.fstat(fd).st_rdev == os.stat(os.devnull).st_rdev
    finally:
        os.close(fd)
    err = capsys.readouterr().err
    assert code == EXIT_IO and err == f"error: cannot write report: {exc}\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a full device")
def test_full_stdout_exits_3_without_a_traceback():
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    with open("/dev/full", "w") as full:
        done = subprocess.run(
            [sys.executable, "-m", "bmvsim.cli", "run", "fermion", "--format", "json"],
            stdout=full, stderr=subprocess.PIPE, env=env, text=True, timeout=60,
        )
    assert done.returncode == EXIT_IO
    assert "Traceback" not in done.stderr and "cannot write report" in done.stderr


def test_crash_raises_and_is_not_a_mismatch(capsys, monkeypatch):
    # a runner that raises is a fault of the program, not of the physics:
    # it reaches the caller with its traceback, and no report is written
    def boom(eps, **options):
        raise ValueError("not-density: planted fault")

    monkeypatch.setitem(cli.RUNNERS, "fermion", boom)
    with pytest.raises(ValueError, match="planted fault"):
        main(["run", "fermion"])
    assert capsys.readouterr() == ("", "")


def test_crashing_criterion_raises_out_of_verify_all(capsys, monkeypatch):
    # a criterion that raises is not a failed row: verify-all follows run
    def boom(eps, tables, traces):
        raise ValueError("bad-partition: planted fault")

    criteria = list(acceptance.CRITERIA)
    index, name, _ = criteria[4]
    criteria[4] = (index, name, boom)
    monkeypatch.setattr(acceptance, "CRITERIA", tuple(criteria))
    with pytest.raises(ValueError, match="planted fault"):
        main(["verify-all"])
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize("command", ["run", "tomography", "verify-all"])
def test_subcommand_help_lists_report_flags(capsys, command):
    code, out, _ = run_cli(capsys, [command, "--help"])
    assert code == EXIT_OK
    assert all(flag in out for flag in ("--format", "--out", "--eps", "write the report to this path"))


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


def test_consecutive_calls_share_no_state(capsys, monkeypatch):
    # main parses with one parser per process: no flag of one call may reach the next
    assert build_parser() is build_parser()
    monkeypatch.delenv("BMV_EPS", raising=False)
    _, fresh, _ = run_cli(capsys, ["run", "bitantibit", "--format", "json"])
    _, steps, _ = run_cli(capsys, ["run", "bitantibit", "--format", "json", "--trace-steps"])
    _, again, _ = run_cli(capsys, ["run", "bitantibit", "--format", "json"])
    assert "state" in json.loads(steps)["steps"][0]
    assert again == fresh and "state" not in json.loads(again)["steps"][0]

    def eps_of(argv):
        code, out, _ = run_cli(capsys, ["run", "fermion", "--format", "json", *argv])
        assert code == EXIT_OK
        return json.loads(out)["meta"]["eps"]

    assert eps_of(["--eps", "1e-8"]) == 1e-8
    assert eps_of([]) == EPS
    monkeypatch.setenv("BMV_EPS", "1e-9")
    assert eps_of(["--eps", "1e-8"]) == 1e-8
    assert eps_of([]) == 1e-9


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_report_written_in_slices_is_the_rendered_text(capsys, monkeypatch, tmp_path, fmt):
    # slices of 7 characters end in every kind of place in the text
    argv = ["run", "anyon", "--format", fmt, "--trace-steps"]
    expected = cli.RENDERERS[fmt](build_run_report(cli.RUNNERS["anyon"](eps=EPS), EPS, True))
    monkeypatch.setattr(cli, "_WRITE_SLICE", 7)
    code, out, _ = run_cli(capsys, argv)
    assert code == EXIT_OK and out == expected
    target = tmp_path / "report"
    assert main([*argv, "--out", str(target)]) == EXIT_OK
    assert target.read_bytes() == expected.encode("ascii")
