"""Byte identity of the benchmark's reports.

Every command of every benchmark workload, and ``verify-all`` in each format,
is run through ``cli.main`` and its report checked as the benchmark checks
it: exit 0, a passing report, and a SHA-256 equal to the digest recorded in
``benchmark/golden.json``.  The command lists and the check come from
``benchmark/harness.py``; both files are only read.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from bmvsim.cli import main
from bmvsim.statecore import EPS_MIN

_spec = importlib.util.spec_from_file_location(
    "bench_harness", Path(__file__).resolve().parent.parent / "benchmark" / "harness.py"
)
harness = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = harness  # its dataclasses look their module up by name
_spec.loader.exec_module(harness)

COMMANDS = [argv for mix in harness.WORKLOADS.values() for argv in mix] + list(harness.VERIFY_ALL)


@pytest.fixture(scope="module")
def golden():
    return harness.load_golden()


def test_every_golden_report_is_checked(golden):
    assert sorted(golden) == sorted(harness.command_key(argv) for argv in COMMANDS)


@pytest.mark.parametrize("argv", COMMANDS, ids=harness.command_key)
def test_report_matches_golden(argv, golden, tmp_path):
    out = tmp_path / "report"
    code = main([*argv, "--out", str(out)])
    data = out.read_bytes() if out.exists() else b""
    assert harness.check_output(argv, code, data, golden) is None


@pytest.mark.parametrize("argv", COMMANDS, ids=harness.command_key)
def test_command_passes_at_eps_min(argv, tmp_path):
    # EPS_MIN is the smallest tolerance the CLI accepts: every verdict holds there
    out = tmp_path / "report"
    code = main([*argv, "--eps", repr(EPS_MIN), "--out", str(out)])
    fmt = argv[argv.index("--format") + 1]
    assert code == 0 and out.read_bytes().endswith(harness.PASS_SUFFIX[fmt])
