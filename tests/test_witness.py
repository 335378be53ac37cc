import numpy as np
import pytest

from bmvsim.bit_antibit import run_bit_antibit_protocol
from bmvsim.fermion_ssr import (
    creator_matrix,
    enumerate_physical_observables,
    hopping_observable,
    vacuum_state,
)
from bmvsim.statecore import EPS, dyad, hermitian_basis, mat_close, random_hermitian, random_state, tensor
from bmvsim.witness import (
    CorrelationRow,
    LocalObservableSet,
    purity,
    schmidt_rank,
    uncorrelated_test,
)


def reference_table(rho, set_a, set_b, eps=EPS):
    """The correlation rows and the maximal-violation row, one trace per pair."""

    def expectation(op):
        val = complex(np.trace(op @ rho))
        assert abs(val.imag) <= 1e-8 * max(1.0, abs(val))
        return float(val.real)

    expect_b = [expectation(b) for b in set_b.matrices]
    rows, best = [], None
    for i, a in enumerate(set_a.matrices):
        ea = expectation(a)
        for j, (b, eb) in enumerate(zip(set_b.matrices, expect_b)):
            row = CorrelationRow(i, j, ea, eb, expectation(a @ b))
            rows.append(row)
            if best is None or row.violation > best.violation + eps:
                best = row
    return rows, best


def _fermion_states():
    c = {j: creator_matrix(4, j) for j in range(1, 5)}
    vac = vacuum_state(4)
    initial = 0.5 * ((c[1] + c[2]) @ (c[3] + c[4]) @ vac)
    final = 0.5 * ((c[1] + c[3]) @ (c[2] + c[4]) @ vac)
    return initial, final


def _fermion_sets():
    a = LocalObservableSet("Q1", enumerate_physical_observables(4, (1, 2)).matrices)
    b = LocalObservableSet("Q2", enumerate_physical_observables(4, (3, 4)).matrices)
    return a, b


def test_purity_values():
    one = np.zeros((2, 2), dtype=complex)
    one[1, 1] = 1.0
    assert abs(purity(one) - 1.0) <= EPS
    assert abs(purity(np.eye(2) / 2) - 0.5) <= EPS


def test_purity_of_mid_protocol_mediator():
    # the fermionic mediator passes through the maximally mixed state
    from bmvsim.fermion_ssr import run_fermion_protocol

    trace = run_fermion_protocol()
    assert abs(purity(trace.steps[1].mediator) - 0.5) <= EPS
    assert abs(purity(trace.steps[0].mediator) - 1.0) <= EPS


def test_purity_rejects_non_density():
    with pytest.raises(ValueError, match="not-density"):
        purity(np.array([[0, 1], [1, 0]], dtype=complex))
    with pytest.raises(ValueError, match="not-density"):
        purity(np.eye(2))


def test_uncorrelated_test_rejects_mixed_states():
    a, b = _fermion_sets()
    with pytest.raises(ValueError, match="not-pure"):
        uncorrelated_test(np.eye(16) / 16, a, b)
    with pytest.raises(ValueError, match="not-pure"):
        uncorrelated_test(np.ones(16, dtype=complex), a, b)


def test_initial_fermion_state_is_uncorrelated():
    initial, _ = _fermion_states()
    a, b = _fermion_sets()
    report = uncorrelated_test(initial, a, b)
    assert report.uncorrelated
    assert report.violating_pair is None
    assert report.max_violation <= EPS
    assert len(report.correlations) == len(a) * len(b)


def test_final_fermion_state_violates_with_x_pair():
    _, final = _fermion_states()
    x1 = hopping_observable(4, 1, 2)
    x2 = hopping_observable(4, 3, 4)
    report = uncorrelated_test(final, LocalObservableSet("Q1", (x1,)), LocalObservableSet("Q2", (x2,)))
    assert not report.uncorrelated
    assert report.entangled
    assert report.violating_pair == (0, 0)
    assert abs(report.lhs) <= EPS
    assert abs(report.rhs + 0.5) <= EPS


def test_full_sets_flag_final_state_entangled():
    _, final = _fermion_states()
    a, b = _fermion_sets()
    report = uncorrelated_test(final, a, b)
    assert report.entangled
    assert report.violating_pair is not None
    assert abs(report.lhs - report.rhs) > EPS


def test_product_basis_state_is_uncorrelated():
    state = np.zeros(16, dtype=complex)
    state[0b0110] = 1.0
    a = LocalObservableSet("A", tuple(tensor(h, np.eye(4)) for h in hermitian_basis(4)))
    b = LocalObservableSet("B", tuple(tensor(np.eye(4), h) for h in hermitian_basis(4)))
    report = uncorrelated_test(state, a, b)
    assert report.uncorrelated


def test_symmetric_under_set_exchange():
    _, final = _fermion_states()
    a, b = _fermion_sets()
    fwd = uncorrelated_test(final, a, b)
    rev = uncorrelated_test(final, b, a)
    assert fwd.uncorrelated == rev.uncorrelated
    assert abs(fwd.max_violation - rev.max_violation) <= 1e-9


def test_enlarging_sets_never_uncorrelates():
    _, final = _fermion_states()
    a, b = _fermion_sets()
    rng = np.random.default_rng(107)
    base = uncorrelated_test(final, a, b)
    assert not base.uncorrelated
    extra_a = list(a.matrices)
    extra_b = list(b.matrices)
    for _ in range(5):
        coeffs = rng.standard_normal(len(a.matrices))
        extra_a.append(sum(c * m for c, m in zip(coeffs, a.matrices)))
        coeffs = rng.standard_normal(len(b.matrices))
        extra_b.append(sum(c * m for c, m in zip(coeffs, b.matrices)))
        bigger = uncorrelated_test(
            final,
            LocalObservableSet("Q1", tuple(extra_a)),
            LocalObservableSet("Q2", tuple(extra_b)),
        )
        assert not bigger.uncorrelated
        assert bigger.max_violation >= base.max_violation - 1e-9


def test_verdict_stable_under_span_augmentation_when_uncorrelated():
    initial, _ = _fermion_states()
    a, b = _fermion_sets()
    rng = np.random.default_rng(109)
    extra = list(a.matrices)
    for _ in range(5):
        coeffs = rng.standard_normal(len(a.matrices))
        extra.append(sum(c * m for c, m in zip(coeffs, a.matrices)))
    report = uncorrelated_test(initial, LocalObservableSet("Q1", tuple(extra)), b)
    assert report.uncorrelated


def test_bit_antibit_product_reduces_to_tensor_composition():
    locals_a = hermitian_basis(4)
    locals_b = hermitian_basis(4)
    for la in locals_a[:4]:
        for lb in locals_b[:4]:
            embedded = tensor(la, np.eye(4)) @ tensor(np.eye(4), lb)
            assert mat_close(embedded, tensor(la, lb), 1e-12)


def _with_near_ties(name, make, rng):
    """Random observables, then each again scaled so that its violations move
    by far less than eps: a near-tie for every pair."""
    mats = [make() for _ in range(int(rng.integers(1, 7)))]
    return LocalObservableSet(name, tuple(mats + [m * (1 + 1e-13) for m in mats]))


@pytest.mark.parametrize("dim_a, dim_b", [(2, 2), (2, 4), (4, 4)])
def test_batched_table_matches_per_pair_oracle(dim_a, dim_b):
    rng = np.random.default_rng(300 + dim_a * dim_b)
    for _ in range(6):
        rho = dyad(random_state(dim_a * dim_b, rng))
        set_a = _with_near_ties("A", lambda: tensor(random_hermitian(dim_a, rng), np.eye(dim_b)), rng)
        set_b = _with_near_ties("B", lambda: tensor(np.eye(dim_a), random_hermitian(dim_b, rng)), rng)
        rows, best = reference_table(rho, set_a, set_b)
        report = uncorrelated_test(rho, set_a, set_b)
        assert report.correlations == rows
        assert report.max_violation == best.violation
        assert not report.uncorrelated
        assert report.violating_pair == (best.index_a, best.index_b)
        assert (report.lhs, report.rhs) == (best.expect_a * best.expect_b, best.expect_product)
        # the tie rule keeps the first of each twin pair
        assert best.index_a < len(set_a) // 2 and best.index_b < len(set_b) // 2


def test_empty_observable_set_is_uncorrelated_with_no_rows():
    _, final = _fermion_states()
    a, b = _fermion_sets()
    empty = LocalObservableSet("none", ())
    for sets in ((empty, b), (a, empty), (empty, empty)):
        report = uncorrelated_test(final, *sets)
        assert report.uncorrelated
        assert report.correlations == []
        assert report.violating_pair is None
        assert report.max_violation == 0.0


def test_non_real_product_expectation_raises():
    # X and Z do not commute: Tr(X Z rho) = -i <Y>, which is -i on the Y
    # eigenstate; the pair (X, 1) before it is real, so every entry is checked
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    z = np.diag([1.0, -1.0]).astype(complex)
    y_plus = np.array([1, 1j]) / np.sqrt(2)
    with pytest.raises(ValueError, match="expectation value is not real"):
        uncorrelated_test(y_plus, LocalObservableSet("A", (x,)), LocalObservableSet("B", (np.eye(2), z)))


def test_bit_antibit_verdict_matches_schmidt_oracle():
    trace = run_bit_antibit_protocol()
    for step_matter, expect_entangled in ((trace.steps[0].matter, False), (trace.steps[-1].matter, True)):
        vals, vecs = np.linalg.eigh(step_matter)
        state = vecs[:, int(np.argmax(vals))]
        rank = schmidt_rank(state, 4, 4)
        assert (rank >= 2) == expect_entangled
    assert trace.report.entangled
    assert trace.summary["initial_report"].uncorrelated


def test_entangled_verdict_uses_the_callers_eps():
    # a Bell state mixed with weight 5e-9 of |01>: purity 1 - 1e-8, pure at eps 1e-7
    bell = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    other = np.array([0, 1, 0, 0], dtype=complex)
    weight = 5e-9
    rho = (1 - weight) * dyad(bell) + weight * dyad(other)
    paulis = [np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1.0, -1.0])]
    set_a = LocalObservableSet("A", tuple(tensor(p, np.eye(2)) for p in paulis))
    set_b = LocalObservableSet("B", tuple(tensor(np.eye(2), p) for p in paulis))
    report = uncorrelated_test(rho, set_a, set_b, eps=1e-7)
    assert abs(report.purity - (1 - 1e-8)) <= 1e-15
    assert not report.uncorrelated
    assert report.entangled


def _pair_product_state(rng):
    """(a1 c1^dag + a2 c2^dag)(b1 c3^dag + b2 c4^dag)|vac>: one particle per
    mode pair, random complex amplitudes, not normalized."""
    c = {j: creator_matrix(4, j) for j in range(1, 5)}
    a, b = (rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(2))
    return (a[0] * c[1] + a[1] * c[2]) @ (b[0] * c[3] + b[1] * c[4]) @ vacuum_state(4)


@pytest.mark.parametrize("terms", [1, 2, 3])
def test_fermion_witness_agrees_with_schmidt_rank_on_random_states(terms):
    # one term is a product of the two pair qubits; a random superposition of
    # two or three such products is entangled
    rng = np.random.default_rng(400 + terms)
    set_a, set_b = _fermion_sets()
    for _ in range(8):
        state = sum(_pair_product_state(rng) for _ in range(terms))
        state = state / np.linalg.norm(state)
        rank = schmidt_rank(state, 4, 4)
        assert rank == (1 if terms == 1 else 2)
        report = uncorrelated_test(state, set_a, set_b)
        assert report.uncorrelated == (rank == 1)
        assert report.entangled == (rank == 2)


def test_schmidt_rank_values():
    bell = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    assert schmidt_rank(bell, 2, 2) == 2
    product = np.zeros(4, dtype=complex)
    product[2] = 1.0
    assert schmidt_rank(product, 2, 2) == 1
    with pytest.raises(ValueError, match="bad-partition"):
        schmidt_rank(bell, 2, 3)


def test_report_invariant_on_violation():
    _, final = _fermion_states()
    a, b = _fermion_sets()
    report = uncorrelated_test(final, a, b)
    if not report.uncorrelated:
        assert report.violating_pair is not None
        assert abs(report.lhs - report.rhs) > EPS


def test_fermion_mediator_dyad_purity_example():
    rho = dyad(np.array([0, 1], dtype=complex))
    assert abs(purity(rho) - 1.0) <= EPS


def test_protocol_step_reductions_are_density_operators():
    from bmvsim.fermion_ssr import run_fermion_protocol
    from bmvsim.ising_anyon import run_anyon_protocol
    from bmvsim.statecore import is_density

    for trace in (run_fermion_protocol(), run_anyon_protocol(), run_bit_antibit_protocol()):
        for step in trace.steps:
            assert is_density(step.mediator), f"{trace.model} {step.label} mediator"
            assert is_density(step.matter), f"{trace.model} {step.label} matter"


def test_observable_set_rejects_non_hermitian():
    with pytest.raises(ValueError, match="non-Hermitian"):
        LocalObservableSet("A", (np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex),))


def test_observable_sets_commute_with_their_complement():
    # locality of the embedded sets: every A commutes with every B
    from bmvsim.ising_anyon import matter_observable_set
    from bmvsim.statecore import commutator

    pairs = [_fermion_sets(), (matter_observable_set(1), matter_observable_set(2))]
    pairs.append(
        (
            LocalObservableSet("Q1", tuple(tensor(h, np.eye(4)) for h in hermitian_basis(4)[:6])),
            LocalObservableSet("Q2", tuple(tensor(np.eye(4), h) for h in hermitian_basis(4)[:6])),
        )
    )
    for set_a, set_b in pairs:
        for a in set_a.matrices:
            for b in set_b.matrices:
                assert np.max(np.abs(commutator(a, b))) <= EPS
