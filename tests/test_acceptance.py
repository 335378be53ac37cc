"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Every criterion asserts the pinned values directly against the library (the
tolerances are fixed here, not deferred), and the last test cross-checks that
the packaged verify-all runner agrees and stays within the runtime budget.
"""

import time
from itertools import permutations

import numpy as np
import pytest

from bmvsim import acceptance
from bmvsim.acceptance import (
    ANYON_DISPLAYS,
    EXPECTED_SPAN_RESIDUAL,
    bab_expected_matter_state,
    fermion_expected_mediator_sequence,
    local_product_basis,
    nondecomposable_target,
    run_all,
)
from bmvsim.bit_antibit import run_bit_antibit_protocol
from bmvsim.fermion_ssr import (
    annihilator_matrix,
    count_scaling_check,
    creator_matrix,
    enumerate_physical_observables,
    fermionic_swap,
    run_fermion_protocol,
    vacuum_state,
)
from bmvsim.ising_anyon import (
    AnyonState,
    Partition,
    SECTOR_DIM,
    change_partition,
    partition_matrix,
    run_anyon_protocol,
    sector_index,
)
from bmvsim.statecore import (
    EPS,
    commutator,
    dyad,
    in_span,
    mat_close,
    partial_trace,
    random_hermitian,
    random_state,
    tensor,
)
from bmvsim.witness import schmidt_rank

SQ2 = np.sqrt(2.0)


def bell_matter_state():
    """The encoded (|00> + |11>)/sqrt(2) on the anyon matter basis."""
    v = np.zeros(SECTOR_DIM, dtype=complex)
    v[[sector_index(1, 1, 0), sector_index(0, 0, 0)]] = 1 / SQ2
    return v


def _verdict(index: int, name: str, passed: bool, detail: str = ""):
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {index:2d} {name} {detail}".rstrip())
    assert passed, f"criterion {index} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def fermion_trace():
    return run_fermion_protocol()


@pytest.fixture(scope="module")
def anyon_trace():
    return run_anyon_protocol()


@pytest.fixture(scope="module")
def bab_trace():
    return run_bit_antibit_protocol()


def test_criterion_1_fermion_correlations(fermion_trace):
    s = fermion_trace.summary
    ok = (
        abs(s["x1_expect"]) <= EPS
        and abs(s["x2_expect"]) <= EPS
        and abs(s["x1x2_expect"] - (-0.5)) <= EPS
    )
    _verdict(1, "fermion correlations", ok, f"<X1.X2> = {s['x1x2_expect']:.12g}")


def test_criterion_2_fermion_mediator_sequence(fermion_trace):
    expected = fermion_expected_mediator_sequence()
    ok = len(fermion_trace.steps) == 4 and all(
        mat_close(step.mediator, exp, EPS) for step, exp in zip(fermion_trace.steps, expected)
    )
    _verdict(2, "fermion mediator sequence", ok)


def test_criterion_3_fermion_marginals(fermion_trace):
    s = fermion_trace.summary
    ok = mat_close(s["rho_q1"], np.eye(4) / 4, EPS) and mat_close(s["rho_q2"], np.eye(4) / 4, EPS)
    _verdict(3, "fermion marginals I/4", ok)


def test_criterion_4_counting_and_microcausality():
    rows = count_scaling_check(4)
    counts_ok = [r[1] for r in rows] == [2, 8, 32, 128] and all(r[3] for r in rows)
    sets = {
        "Q1": enumerate_physical_observables(5, (1, 2)),
        "M": enumerate_physical_observables(5, (3,)),
        "Q2": enumerate_physical_observables(5, (4, 5)),
    }
    worst = max(
        float(np.max(np.abs(commutator(ma, mb))))
        for a, b in (("Q1", "M"), ("Q1", "Q2"), ("M", "Q2"))
        for ma in sets[a]
        for mb in sets[b]
    )
    ok = counts_ok and worst <= EPS
    _verdict(4, "observable counting + microcausality", ok, f"counts {[r[1] for r in rows]}, worst commutator {worst:.2g}")


def test_criterion_5_non_decomposability():
    decomposable, residual = in_span(nondecomposable_target(), local_product_basis(), EPS)
    ok = (not decomposable) and residual > 0.1 and abs(residual - EXPECTED_SPAN_RESIDUAL) <= 1e-9
    _verdict(5, "non-decomposability", ok, f"residual {residual:.12g}")


def test_criterion_6_anyon_recoupling():
    shapes = (Partition.CENTER, Partition.LEFT, Partition.RIGHT)
    ok = mat_close(partition_matrix(Partition.LEFT, Partition.RIGHT), np.array([[1, 1], [1, -1]]) / SQ2, EPS)
    ok = ok and mat_close(partition_matrix(Partition.CENTER, Partition.RIGHT), np.array([[1, 1], [-1j, 1j]]) / SQ2, EPS)
    for loop in list(permutations(shapes, 2)) + list(permutations(shapes, 3)):
        cycle = list(loop) + [loop[0]]
        m = np.eye(2, dtype=complex)
        for src, dst in zip(cycle, cycle[1:]):
            m = partition_matrix(src, dst) @ m
        ok = ok and mat_close(m, np.eye(2), EPS)
    _verdict(6, "anyon recoupling matrices + loops", ok)


def test_criterion_7_anyon_protocol(anyon_trace):
    s = anyon_trace.summary
    ok = all(
        mat_close(change_partition(anyon_trace.steps[index].state, shape).amps, pinned, EPS)
        for index, shape, pinned in ANYON_DISPLAYS.values()
    )
    ok = ok and mat_close(anyon_trace.steps[-1].matter, dyad(bell_matter_state()), EPS)
    ok = ok and abs(s["x1x2_expect"] - 1.0) <= EPS
    ok = ok and abs(s["x1_expect"]) <= EPS and abs(s["x2_expect"]) <= EPS
    _verdict(7, "anyon protocol", ok, f"<X1.X2> = {s['x1x2_expect']:.12g}")


def test_criterion_8_anyon_mediator_purity(anyon_trace):
    med = np.zeros((3, 3), dtype=complex)
    med[1, 1] = 1.0
    ok = all(mat_close(step.mediator, med, EPS) for step in anyon_trace.steps)
    purities = anyon_trace.summary["mediator_purities"]
    ok = ok and len(purities) == 4 and all(abs(p - 1.0) <= EPS for p in purities)
    _verdict(8, "anyon mediator purity", ok, f"purities {purities}")


def test_criterion_9_bit_antibit_protocol(bab_trace):
    s = bab_trace.summary
    expected = dyad(bab_expected_matter_state())
    zero_proj = np.zeros((4, 4), dtype=complex)
    zero_proj[0, 0] = 1.0
    ok = mat_close(bab_trace.steps[-1].matter, expected, EPS)
    ok = ok and abs(s["x1_expect"] * s["x2_expect"]) <= EPS
    ok = ok and abs(s["x1x2_expect"] - 0.5) <= EPS
    ok = ok and mat_close(bab_trace.steps[-1].mediator, zero_proj, EPS)
    ok = ok and all(s["validities"])
    for k in (3, 4):
        bigger = run_bit_antibit_protocol(k)
        ok = ok and mat_close(bigger.steps[-1].matter, expected, EPS)
        ok = ok and all(bigger.summary["validities"])
    _verdict(9, "bit/anti-bit protocol + scaling", ok)


def test_criterion_10_witness_coherence(fermion_trace, anyon_trace, bab_trace):
    ok = True
    for trace in (fermion_trace, anyon_trace, bab_trace):
        ok = ok and trace.summary["initial_report"].uncorrelated
        ok = ok and trace.report.entangled
    for matter, expect_entangled in ((bab_trace.steps[0].matter, False), (bab_trace.steps[-1].matter, True)):
        vals, vecs = np.linalg.eigh(matter)
        rank = schmidt_rank(vecs[:, int(np.argmax(vals))], 4, 4)
        ok = ok and ((rank >= 2) == expect_entangled)
    _verdict(10, "witness coherence across models", ok)


def test_criterion_11_property_suites():
    rng = np.random.default_rng(127)
    failures = []

    for trial in range(100):
        da, db = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        a, b = random_hermitian(da, rng), random_hermitian(db, rng)
        if not mat_close(partial_trace(tensor(a, b), [da, db], [0]), a * np.trace(b), 1e-9):
            failures.append(f"trace-product {trial}")
        c = random_hermitian(2, rng)
        if not mat_close(tensor(tensor(a, b), c), tensor(a, tensor(b, c)), 1e-9):
            failures.append(f"tensor-assoc {trial}")

    n = 5
    eye = np.eye(1 << n)
    vac = vacuum_state(n)
    for j in range(1, n + 1):
        aj = annihilator_matrix(n, j)
        if np.max(np.abs(aj @ aj)) > EPS or np.max(np.abs(aj @ vac)) > EPS:
            failures.append(f"mode {j} nilpotency/vacuum")
        for k in range(1, n + 1):
            ak, ck = annihilator_matrix(n, k), creator_matrix(n, k)
            if np.max(np.abs(aj @ ak + ak @ aj)) > EPS:
                failures.append(f"anticommutator a{j} a{k}")
            if not mat_close(aj @ ck + ck @ aj, eye * (j == k), EPS):
                failures.append(f"anticommutator a{j} c{k}")

    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            perm, signs = fermionic_swap(n, i, j)
            if not (np.array_equal(perm[perm], np.arange(1 << n)) and np.array_equal(signs[perm], signs)):
                failures.append(f"swap({i},{j})")

    for trial in range(100):
        state = AnyonState(Partition.CENTER, random_state(SECTOR_DIM, rng))
        dst = (Partition.LEFT, Partition.RIGHT, Partition.CENTER)[trial % 3]
        if abs(np.linalg.norm(change_partition(state, dst).amps) - 1.0) > 1e-9:
            failures.append(f"partition-norm {trial}")

    _verdict(11, "property suites", not failures, f"{len(failures)} failures")


def test_packaged_runner_agrees_and_is_fast():
    start = time.monotonic()
    results = run_all(EPS)
    elapsed = time.monotonic() - start
    assert [r["index"] for r in results] == list(range(1, 12))
    for r in results:
        assert r["pass"], f"verify-all criterion {r['index']} ({r['name']}): {r['detail']}"
    assert elapsed < 5.0, f"verify-all took {elapsed:.2f}s"


def test_verify_all_runs_each_protocol_once(monkeypatch):
    # every criterion reads the one run of each model; only criterion 9 runs
    # bit/anti-bit again, at its larger mediators
    calls = []

    def counted(model, runner):
        def run(*args, **kwargs):
            calls.append((model, args))
            return runner(*args, **kwargs)

        return run

    for model, runner in list(acceptance.RUNNERS.items()):
        monkeypatch.setitem(acceptance.RUNNERS, model, counted(model, runner))
    assert all(r["pass"] for r in run_all(EPS))
    # bit/anti-bit with no arguments is its default mediator, k = 2
    expected = [("fermion", ()), ("anyon", ()), ("bitantibit", ()), ("bitantibit", (3,)), ("bitantibit", (4,))]
    assert sorted(calls) == sorted(expected)
