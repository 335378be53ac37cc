import tracemalloc
from itertools import combinations, permutations

import numpy as np
import pytest

from bmvsim import fermion_ssr
from bmvsim.fermion_ssr import (
    MAX_COUNT_MODES,
    annihilator_matrix,
    count_scaling_check,
    creator_matrix,
    enumerate_physical_observables,
    fermionic_partial_trace,
    fermionic_swap,
    hopping_observable,
    pair_observable_sets,
    run_fermion_protocol,
    vacuum_state,
    word_matrix,
)
from bmvsim.statecore import EPS, commutator, dagger, dyad, in_span, is_hermitian, mat_close
from test_fermion_oracles import (
    FermionMonomial,
    apply_monomials_to_vacuum,
    basis_index,
    occupations,
    parity_matrix,
    swap_matrix,
)


def test_basis_indexing():
    assert basis_index((1, 0, 1)) == 0b101
    assert occupations(0b101, 3) == (1, 0, 1)
    assert occupations(0, 3) == (0, 0, 0)


def test_single_mode_annihilator():
    assert mat_close(annihilator_matrix(1, 1), np.array([[0, 1], [0, 0]]))


def test_bad_mode():
    with pytest.raises(ValueError, match="bad-mode"):
        annihilator_matrix(3, 4)
    with pytest.raises(ValueError, match="bad-mode"):
        annihilator_matrix(3, 0)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_canonical_anticommutators(n):
    eye = np.eye(1 << n)
    zero = np.zeros_like(eye)
    for j in range(1, n + 1):
        aj = annihilator_matrix(n, j)
        assert mat_close(aj @ aj, zero, EPS)
        assert np.max(np.abs(aj @ vacuum_state(n))) <= EPS
        for k in range(1, n + 1):
            ak = annihilator_matrix(n, k)
            ck = creator_matrix(n, k)
            assert mat_close(aj @ ak + ak @ aj, zero, EPS)
            assert mat_close(aj @ ck + ck @ aj, eye * (j == k), EPS)


def test_normal_order_oracle_example():
    # f2 f1+ f2+ |vac> -> -f1+ |vac>
    mono = FermionMonomial(1.0, ((2, False), (1, True), (2, True)))
    via_oracle = apply_monomials_to_vacuum(2, [mono])
    via_matrix = mono.matrix(2) @ vacuum_state(2)
    expected = -creator_matrix(2, 1) @ vacuum_state(2)
    assert mat_close(via_oracle, expected)
    assert mat_close(via_matrix, expected)


def test_normal_order_matches_matrices_on_random_words():
    rng = np.random.default_rng(41)
    n = 3
    vac = vacuum_state(n)
    for _ in range(60):
        length = int(rng.integers(1, 6))
        word = tuple((int(rng.integers(1, n + 1)), bool(rng.integers(2))) for _ in range(length))
        mono = FermionMonomial(1.0, word)
        direct = mono.matrix(n)
        reordered = sum((t.matrix(n) for t in mono.normal_ordered()), np.zeros_like(direct))
        assert mat_close(direct, reordered, 1e-9)
        assert mat_close(direct @ vac, apply_monomials_to_vacuum(n, [mono]), 1e-9)


def test_monomial_parity():
    assert FermionMonomial(1.0, ((1, True), (2, False))).parity == 0
    assert FermionMonomial(1.0, ((1, True),)).parity == 1


def test_single_mode_observables_span():
    basis = enumerate_physical_observables(5, {3})
    assert len(basis) == 2
    eye = np.eye(32, dtype=complex)
    number_balance = word_matrix(5, ((3, False), (3, True))) - word_matrix(5, ((3, True), (3, False)))
    for target in (eye, number_balance):
        ok, _ = in_span(target, basis)
        assert ok
    for m in basis:
        ok, _ = in_span(m, [eye, number_balance])
        assert ok


def test_two_mode_count():
    assert len(enumerate_physical_observables(2, (1, 2))) == 8


def is_parity_even(m: np.ndarray, n: int, eps: float = EPS) -> bool:
    p = parity_matrix(n)
    return mat_close(p @ m @ p, m, eps * max(1.0, float(np.max(np.abs(m)))))


def test_observables_are_physical():
    basis = enumerate_physical_observables(3, (1, 3))
    for m in basis:
        assert is_hermitian(m)
        assert is_parity_even(m, 3)


def test_contiguous_subset_observables_embed_as_identity_elsewhere():
    # even words on a contiguous register have no sign strings reaching out,
    # so the matrix factorizes against the identity on the other modes
    lead = enumerate_physical_observables(5, (1, 2))
    local = enumerate_physical_observables(2, (1, 2))
    assert len(lead) == len(local)
    for big, small in zip(lead, local):
        assert mat_close(big, np.kron(small, np.eye(8)), EPS)
    trail = enumerate_physical_observables(5, (4, 5))
    for big, small in zip(trail, local):
        assert mat_close(big, np.kron(np.eye(8), small), EPS)


def test_count_scaling_table():
    rows = count_scaling_check(5)
    assert rows == [
        (1, 2, 2, True),
        (2, 8, 8, True),
        (3, 32, 32, True),
        (4, 128, 128, True),
        (5, 512, 512, True),
    ]
    with pytest.raises(ValueError, match="bad-mode"):
        count_scaling_check(MAX_COUNT_MODES + 1)


@pytest.mark.parametrize("k_max", [-1, 0, MAX_COUNT_MODES + 1])
def test_count_rejects_register_sizes_out_of_range(k_max):
    with pytest.raises(ValueError, match=f"^bad-mode: k_max {k_max} outside 1..{MAX_COUNT_MODES}$"):
        count_scaling_check(k_max)


def test_count_peak_memory_stays_below_three_times_its_classes():
    # every register's classes are taken from the one table of k_max modes:
    # at k_max = 7 that is 2^6 classes of 2^7 x 2^7 float64, 8 MiB
    classes_bytes = (1 << 6) * (1 << 7) * (1 << 7) * 8
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        count_scaling_check(7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * classes_bytes, f"peak {peak / 2**20:.1f} MiB"


def test_microcausality():
    sets = {
        "Q1": enumerate_physical_observables(5, (1, 2)),
        "M": enumerate_physical_observables(5, (3,)),
        "Q2": enumerate_physical_observables(5, (4, 5)),
    }
    for a, b in (("Q1", "M"), ("Q1", "Q2"), ("M", "Q2")):
        for ma in sets[a]:
            for mb in sets[b]:
                assert np.max(np.abs(commutator(ma, mb))) <= EPS


def _initial_state():
    c = {j: creator_matrix(5, j) for j in range(1, 6)}
    return 0.5 * ((c[1] + c[2]) @ c[3] @ (c[4] + c[5]) @ vacuum_state(5))


def test_trace_of_initial_state_is_pure_product():
    reduced = fermionic_partial_trace(dyad(_initial_state()), 5, (3,))
    c = {j: creator_matrix(4, j) for j in range(1, 5)}
    expected = 0.5 * ((c[1] + c[2]) @ (c[3] + c[4]) @ vacuum_state(4))
    assert mat_close(reduced, dyad(expected))


def test_fermionic_trace_preserves_trace():
    rng = np.random.default_rng(43)
    for _ in range(100):
        n = int(rng.integers(2, 5))
        g = rng.standard_normal((1 << n, 1 << n)) + 1j * rng.standard_normal((1 << n, 1 << n))
        herm = (g + dagger(g)) / 2
        p = parity_matrix(n)
        even = (herm + p @ herm @ p) / 2
        j = int(rng.integers(1, n + 1))
        assert abs(np.trace(fermionic_partial_trace(even, n, (j,))) - np.trace(even)) <= 1e-9


def test_fermionic_trace_dimension_error():
    with pytest.raises(ValueError, match="bad-partition"):
        fermionic_partial_trace(np.eye(8), 4, (1,))


@pytest.mark.parametrize("mode", [0, 5])
def test_fermionic_trace_bad_mode(mode):
    with pytest.raises(ValueError, match="bad-mode"):
        fermionic_partial_trace(np.eye(16), 4, (mode,))


def test_multimode_trace_order_independent_on_even_operators():
    rng = np.random.default_rng(47)
    n = 4
    p = parity_matrix(n)
    for _ in range(25):
        g = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        even = (g + p @ g @ p) / 2
        hi_first = fermionic_partial_trace(even, n, (2, 4))
        lo_first = fermionic_partial_trace(fermionic_partial_trace(even, n, (2,)), n - 1, (3,))
        assert mat_close(hi_first, lo_first, 1e-9)


def _trace_in_order(m: np.ndarray, n: int, order) -> np.ndarray:
    """Discard the modes of ``order`` one at a time, in that order; a mode's
    index is its place among the modes still present."""
    remaining = list(range(1, n + 1))
    for j in order:
        m = fermionic_partial_trace(m, len(remaining), (remaining.index(j) + 1,))
        remaining.remove(j)
    return m


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_trace_is_order_independent_on_random_even_operators(n):
    # every traced set and every order of discarding it gives the fixed-order
    # result, on random parity-even operators and on dyads of random even states
    rng = np.random.default_rng(600 + n)
    dim = 1 << n
    p = parity_matrix(n)
    even_kets = np.flatnonzero(np.diag(p).real > 0)
    for _ in range(4):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        psi = np.zeros(dim, dtype=complex)
        psi[even_kets] = rng.standard_normal(even_kets.size) + 1j * rng.standard_normal(even_kets.size)
        for op in ((g + p @ g @ p) / 2, dyad(psi / np.linalg.norm(psi))):
            for size in range(1, n + 1):
                for traced in combinations(range(1, n + 1), size):
                    fixed = fermionic_partial_trace(op, n, traced)
                    for order in permutations(traced):
                        assert mat_close(_trace_in_order(op, n, order), fixed, 1e-12), (traced, order)


def test_trace_all_modes_equals_full_trace():
    rng = np.random.default_rng(53)
    n = 4
    g = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    total = fermionic_partial_trace(g, n, (1, 2, 3, 4))
    assert total.shape == (1, 1)
    assert abs(total[0, 0] - np.trace(g)) <= 1e-9


def test_swap_examples():
    n = 5
    s23 = swap_matrix(n, 2, 3)
    vac = vacuum_state(n)
    assert mat_close(s23 @ vac, vac)
    assert mat_close(s23 @ (creator_matrix(n, 2) @ vac), creator_matrix(n, 3) @ vac)
    two = creator_matrix(n, 2) @ creator_matrix(n, 3) @ vac
    assert mat_close(s23 @ two, -two)


def test_swap_matrix_properties():
    n = 5
    p = parity_matrix(n)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            s = swap_matrix(n, i, j)
            assert mat_close(s, dagger(s), EPS)
            assert mat_close(s @ s, np.eye(1 << n), EPS)
            assert mat_close(p @ s @ p, s, EPS)


def test_swap_conjugation_relation():
    # S c_k S+ permutes the mode label and fixes the others
    n = 4
    s = swap_matrix(n, 2, 4)
    mapping = {1: 1, 2: 4, 3: 3, 4: 2}
    for k in range(1, n + 1):
        lhs = s @ annihilator_matrix(n, k) @ dagger(s)
        assert mat_close(lhs, annihilator_matrix(n, mapping[k]), EPS)


def test_swap_errors():
    with pytest.raises(ValueError, match="bad-swap"):
        fermionic_swap(4, 2, 2, np.arange(16))
    with pytest.raises(ValueError, match="bad-mode"):
        fermionic_swap(4, 1, 9, np.arange(16))


def test_protocol_mediator_sequence_and_diagonality():
    trace = run_fermion_protocol()
    expected = [np.diag([0.0, 1.0]), np.diag([0.5, 0.5]), np.diag([0.5, 0.5]), np.diag([0.0, 1.0])]
    assert len(trace.steps) == 4
    for step, exp in zip(trace.steps, expected):
        assert mat_close(step.mediator, exp)
        off = step.mediator - np.diag(np.diag(step.mediator))
        assert np.max(np.abs(off)) <= EPS


def test_protocol_final_state_and_marginals():
    trace = run_fermion_protocol()
    c = {j: creator_matrix(4, j) for j in range(1, 5)}
    expected_final = 0.5 * ((c[1] + c[3]) @ (c[2] + c[4]) @ vacuum_state(4))
    assert mat_close(trace.steps[-1].matter, dyad(expected_final))
    assert mat_close(trace.marginals[0], np.eye(4) / 4)
    assert mat_close(trace.marginals[1], np.eye(4) / 4)


def test_protocol_correlations():
    trace = run_fermion_protocol()

    def hop(n, i, j):
        return creator_matrix(n, i) @ annihilator_matrix(n, j) + creator_matrix(n, j) @ annihilator_matrix(n, i)

    for rho in trace.marginals:
        assert abs(np.trace(hop(2, 1, 2) @ rho)) <= EPS
    # the joint correlation, from the products of creators and annihilators
    # and from the library's hopping observables
    for x1, x2 in ((hop(4, 1, 2), hop(4, 3, 4)), (hopping_observable(4, 1, 2), hopping_observable(4, 3, 4))):
        assert abs(np.trace(x1 @ x2 @ trace.steps[-1].matter) + 0.5) <= EPS


def test_protocol_witness_verdicts():
    trace = run_fermion_protocol()
    assert trace.initial_report.uncorrelated
    assert trace.report.entangled
    assert not trace.report.uncorrelated
    assert trace.report.violating_pair is not None
    assert abs(trace.report.lhs - trace.report.rhs) > EPS


def test_protocol_observable_sets_are_shared_read_only_constants(monkeypatch):
    q1, q2 = pair_observable_sets()
    assert pair_observable_sets() is pair_observable_sets()
    for got, modes in ((q1, (1, 2)), (q2, (3, 4))):
        want = enumerate_physical_observables(4, modes)
        assert np.array_equal(got.matrices, want)
        assert not got.matrices.flags.writeable

    def refuse(*args):
        raise AssertionError("the protocol enumerated its observables again")

    monkeypatch.setattr(fermion_ssr, "enumerate_physical_observables", refuse)
    trace = run_fermion_protocol()
    assert trace.report.entangled
    assert trace.report.correlations.expect_product.shape == (len(q1), len(q2))
