import numpy as np
import pytest

from bmvsim.fermion_ssr import (
    FermionMonomial,
    annihilator_matrix,
    apply_monomials_to_vacuum,
    basis_index,
    count_scaling_check,
    creator_matrix,
    enumerate_physical_observables,
    fermionic_partial_trace,
    fermionic_partial_trace_modes,
    fermionic_swap,
    hopping_observable,
    is_parity_even,
    occupations,
    parity_matrix,
    run_fermion_protocol,
    vacuum_state,
    word_matrix,
)
from bmvsim.statecore import EPS, commutator, dagger, dyad, in_span, is_hermitian, mat_close


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
        ok, _ = in_span(target, basis.matrices)
        assert ok
    for m in basis.matrices:
        ok, _ = in_span(m, [eye, number_balance])
        assert ok


def test_two_mode_count():
    assert len(enumerate_physical_observables(2, (1, 2))) == 8


def test_observables_are_physical():
    basis = enumerate_physical_observables(3, (1, 3))
    for m in basis.matrices:
        assert is_hermitian(m)
        assert is_parity_even(m, 3)


def test_contiguous_subset_observables_embed_as_identity_elsewhere():
    # even words on a contiguous register have no sign strings reaching out,
    # so the matrix factorizes against the identity on the other modes
    lead = enumerate_physical_observables(5, (1, 2)).matrices
    local = enumerate_physical_observables(2, (1, 2)).matrices
    assert len(lead) == len(local)
    for big, small in zip(lead, local):
        assert mat_close(big, np.kron(small, np.eye(8)), EPS)
    trail = enumerate_physical_observables(5, (4, 5)).matrices
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
        count_scaling_check(6)


def test_microcausality():
    sets = {
        "Q1": enumerate_physical_observables(5, (1, 2)).matrices,
        "M": enumerate_physical_observables(5, (3,)).matrices,
        "Q2": enumerate_physical_observables(5, (4, 5)).matrices,
    }
    for a, b in (("Q1", "M"), ("Q1", "Q2"), ("M", "Q2")):
        for ma in sets[a]:
            for mb in sets[b]:
                assert np.max(np.abs(commutator(ma, mb))) <= EPS


def _initial_state():
    c = {j: creator_matrix(5, j) for j in range(1, 6)}
    return 0.5 * ((c[1] + c[2]) @ c[3] @ (c[4] + c[5]) @ vacuum_state(5))


def test_trace_of_initial_state_is_pure_product():
    reduced = fermionic_partial_trace(dyad(_initial_state()), 5, 3)
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
        assert abs(np.trace(fermionic_partial_trace(even, n, j)) - np.trace(even)) <= 1e-9


def test_fermionic_trace_dimension_error():
    with pytest.raises(ValueError, match="bad-partition"):
        fermionic_partial_trace(np.eye(8), 4, 1)


def test_multimode_trace_order_independent_on_even_operators():
    rng = np.random.default_rng(47)
    n = 4
    p = parity_matrix(n)
    for _ in range(25):
        g = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        even = (g + p @ g @ p) / 2
        hi_first = fermionic_partial_trace_modes(even, n, (2, 4))
        lo_first = fermionic_partial_trace(fermionic_partial_trace(even, n, 2), n - 1, 3)
        assert mat_close(hi_first, lo_first, 1e-9)


def test_trace_all_modes_equals_full_trace():
    rng = np.random.default_rng(53)
    n = 4
    g = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    total = fermionic_partial_trace_modes(g, n, (1, 2, 3, 4))
    assert total.shape == (1, 1)
    assert abs(total[0, 0] - np.trace(g)) <= 1e-9


def test_swap_examples():
    n = 5
    s23 = fermionic_swap(n, 2, 3)
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
            s = fermionic_swap(n, i, j)
            assert mat_close(s, dagger(s), EPS)
            assert mat_close(s @ s, np.eye(1 << n), EPS)
            assert mat_close(p @ s @ p, s, EPS)


def test_swap_conjugation_relation():
    # S c_k S+ permutes the mode label and fixes the others
    n = 4
    s = fermionic_swap(n, 2, 4)
    mapping = {1: 1, 2: 4, 3: 3, 4: 2}
    for k in range(1, n + 1):
        lhs = s @ annihilator_matrix(n, k) @ dagger(s)
        assert mat_close(lhs, annihilator_matrix(n, mapping[k]), EPS)


def test_swap_errors():
    with pytest.raises(ValueError, match="bad-swap"):
        fermionic_swap(4, 2, 2)
    with pytest.raises(ValueError, match="bad-mode"):
        fermionic_swap(4, 1, 9)


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
    assert mat_close(trace.summary["rho_q1"], np.eye(4) / 4)
    assert mat_close(trace.summary["rho_q2"], np.eye(4) / 4)


def test_protocol_correlations():
    trace = run_fermion_protocol()
    assert abs(trace.summary["x1_expect"]) <= EPS
    assert abs(trace.summary["x2_expect"]) <= EPS
    assert abs(trace.summary["x1x2_expect"] + 0.5) <= EPS
    # cross-check the joint correlation against an explicit matrix product
    x1 = hopping_observable(4, 1, 2)
    x2 = hopping_observable(4, 3, 4)
    val = np.trace(x1 @ x2 @ trace.steps[-1].matter)
    assert abs(val + 0.5) <= EPS


def test_protocol_witness_verdicts():
    trace = run_fermion_protocol()
    assert trace.summary["initial_report"].uncorrelated
    assert trace.report.entangled
    assert not trace.report.uncorrelated
    assert trace.report.violating_pair is not None
    assert abs(trace.report.lhs - trace.report.rhs) > EPS
