"""Self-tests of the benchmark harness.

    python3 -m pytest -q benchmark/test_harness.py
"""

from __future__ import annotations

import itertools
from pathlib import Path

import pytest

import harness

ROOT = Path(__file__).resolve().parents[1]


def take(workload: str, seed: int, n: int) -> list:
    return list(itertools.islice(harness.rounds(workload, seed), n))


@pytest.mark.parametrize("workload", sorted(harness.WORKLOADS))
def test_same_seed_gives_same_sequence(workload):
    assert take(workload, 7, 5) == take(workload, 7, 5)


def test_rounds_are_permutations_and_seeds_differ():
    mix = sorted(harness.WORKLOADS["pinned"])
    first = take("pinned", 1, 4)
    assert all(sorted(r) == mix for r in first)
    assert first != take("pinned", 2, 4)


def test_self_time_of_nested_spans():
    S = harness.Span
    spans = [
        S("root", 0.0, 10.0, -1),
        S("a", 1.0, 4.0, 0),
        S("a.child", 2.0, 3.0, 1),
        S("b", 5.0, 9.0, 0),
        S("b.child", 5.0, 6.0, 3),
        S("b.child", 7.0, 8.5, 3),
        S("other_root", 11.0, 12.0, -1),
    ]
    assert harness.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 1.5, 1.0, 1.5, 1.0])


def test_layer_metrics_sum_self_time_per_function():
    S = harness.Span
    spans = [
        S("cli.main", 0.0, 4.0, -1),
        S("fermion_ssr.enumerate_physical_observables", 0.5, 3.5, 0),
        S("fermion_ssr.word_matrix", 1.0, 1.5, 1),
        S("fermion_ssr.word_matrix", 2.0, 2.5, 1),
        S("fermion_ssr.word_matrix", 3.6, 3.8, 0),
    ]
    counters = {"fermion_ssr.enumerate_physical_observables.kept": 3.0}
    metrics = harness.layer_metrics(spans, counters)
    assert metrics["cli.main.calls"] == 1
    assert metrics["cli.main.self_s"] == pytest.approx(0.8)
    assert metrics["fermion_ssr.enumerate_physical_observables.self_s"] == pytest.approx(2.0)
    assert metrics["fermion_ssr.word_matrix.calls"] == 3
    assert metrics["fermion_ssr.word_matrix.self_s"] == pytest.approx(1.2)
    # only the two words built inside the enumeration count
    assert metrics["fermion_ssr.enumerate_physical_observables.kept_per_word"] == pytest.approx(1.5)
    assert metrics["statecore.dyad.calls"] == 0


def test_flipped_byte_counts_as_failure(tmp_path):
    argv = ("run", "anyon", "--format", "text")
    report = b"bmvsim 0.1.0 (eps=1e-10)\nRESULT: PASS\n"
    golden = {harness.command_key(argv): harness.digest(report)}
    flipped = bytearray(report)
    flipped[3] ^= 0x01

    tally = harness.Tally()
    tally.record(argv, harness.check_output(argv, 0, report, golden))
    tally.record(argv, harness.check_output(argv, 0, bytes(flipped), golden))
    assert (tally.attempted, tally.failed) == (2, 1)
    assert tally.fail_ratio == 0.5
    assert "differs from golden" in tally.reasons[0]


def test_check_output_needs_exit_zero_and_pass():
    argv = ("run", "anyon", "--format", "text")
    failing = b"RESULT: FAIL\n"
    golden = {harness.command_key(argv): harness.digest(failing)}
    assert harness.check_output(argv, 0, failing, golden) == "report does not pass"
    assert harness.check_output(argv, 1, failing, golden) == "exit code 1"


def test_tail_latency_needs_ten_samples_beyond():
    assert harness.tail_latency([float(i) for i in range(10)]) == (50.0, 4.5)
    assert harness.tail_latency([float(i) for i in range(200)]) == (90.0, 180.0)
    assert harness.tail_latency([float(i) for i in range(1000)]) == (99.0, 990.0)


def test_tracer_patches_every_binding_and_restores_them():
    cli = harness.import_cli(ROOT)
    import bmvsim.acceptance as acceptance
    import bmvsim.bit_antibit as bit_antibit
    import bmvsim.statecore as statecore

    original = statecore.partial_trace
    render_json = cli.render_json
    with harness.Tracer() as tracer:
        assert statecore.partial_trace is not original
        assert bit_antibit.partial_trace is statecore.partial_trace
        assert acceptance.partial_trace is statecore.partial_trace
        assert cli.RENDERERS["json"] is cli.render_json is not render_json
        bit_antibit.run_bit_antibit_protocol(2)
    assert statecore.partial_trace is bit_antibit.partial_trace is acceptance.partial_trace is original
    assert cli.RENDERERS["json"] is cli.render_json is render_json

    metrics = harness.layer_metrics(tracer.spans, tracer.counters)
    assert metrics["bit_antibit.run_bit_antibit_protocol.calls"] == 1
    assert metrics["statecore.partial_trace.calls"] > 0
    assert metrics["bit_antibit.swap_bits.out_mb"] > 0
    assert all(span.parent < index for index, span in enumerate(tracer.spans))
