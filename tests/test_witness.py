from dataclasses import dataclass

import numpy as np
import pytest

from bmvsim import bit_antibit, fermion_ssr, ising_anyon
from bmvsim.acceptance import RUNNERS
from bmvsim.bit_antibit import SystemSignature, run_bit_antibit_protocol, validate_state
from bmvsim.fermion_ssr import (
    creator_matrix,
    enumerate_physical_observables,
    hopping_observable,
    vacuum_state,
)
from bmvsim.ising_anyon import (
    SECTOR_DIM,
    AnyonState,
    Partition,
    pair_observable_sets,
    sector_index,
    trace_mediator,
)
from bmvsim.statecore import EPS, EPS_MIN, dyad, hermitian_basis, mat_close, random_hermitian, random_state, tensor
from bmvsim.witness import (
    LocalObservableSet,
    purity,
    schmidt_rank,
    uncorrelated_test,
)


@dataclass
class CorrelationRow:
    """Expectation data for one observable pair."""

    index_a: int
    index_b: int
    expect_a: float
    expect_b: float
    expect_product: float

    @property
    def violation(self) -> float:
        return abs(self.expect_a * self.expect_b - self.expect_product)


def table_rows(table) -> list[CorrelationRow]:
    """The rows of a witness report's correlation table, in pair order."""
    ea, eb, eab = table.expect_a.tolist(), table.expect_b.tolist(), table.expect_product.tolist()
    return [CorrelationRow(i, j, ea[i], eb[j], eab[i][j]) for i in range(len(ea)) for j in range(len(eb))]


def row_bits(rows) -> np.ndarray:
    """The float64 bit patterns of the rows' expectations (signed zeros apart)."""
    values = np.array([(r.expect_a, r.expect_b, r.expect_product) for r in rows], dtype=float)
    return values.view(np.int64)


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
    return dyad(initial), dyad(final)


def _fermion_sets():
    a = LocalObservableSet("Q1", enumerate_physical_observables(4, (1, 2)))
    b = LocalObservableSet("Q2", enumerate_physical_observables(4, (3, 4)))
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
    # the test takes a density operator, not a state vector
    with pytest.raises(ValueError, match="not-density"):
        uncorrelated_test(np.ones(16, dtype=complex) / 4, a, b)


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
    report = uncorrelated_test(dyad(state), a, b)
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


def _near_tie_cases(dim_a, dim_b):
    """Seeded random pure states against random local sets with near-ties."""
    rng = np.random.default_rng(300 + dim_a * dim_b)
    for _ in range(6):
        rho = dyad(random_state(dim_a * dim_b, rng))
        set_a = _with_near_ties("A", lambda: tensor(random_hermitian(dim_a, rng), np.eye(dim_b)), rng)
        set_b = _with_near_ties("B", lambda: tensor(np.eye(dim_a), random_hermitian(dim_b, rng)), rng)
        yield rho, set_a, set_b


PROTOCOL_SETS = {
    "fermion": fermion_ssr.pair_observable_sets,
    "anyon": ising_anyon.pair_observable_sets,
    "bitantibit": bit_antibit.pair_observable_sets,
}


def _protocol_cases(model):
    """A model's own Q1/Q2 sets, on its protocol's initial and final matter
    states and on seeded random pure states of its matter space."""
    set_a, set_b = PROTOCOL_SETS[model]()
    trace = RUNNERS[model]()
    rng = np.random.default_rng(310 + len(model))
    rhos = [trace.steps[0].matter, trace.steps[-1].matter]
    rhos += [dyad(random_state(len(rhos[0]), rng)) for _ in range(6)]
    for rho in rhos:
        yield rho, set_a, set_b


TABLE_CASES = [
    *(pytest.param(_near_tie_cases, (a, b), id=f"{a}-{b}") for a, b in [(2, 2), (2, 4), (4, 4)]),
    *(pytest.param(_protocol_cases, (model,), id=model) for model in PROTOCOL_SETS),
]


@pytest.mark.parametrize("cases, args", TABLE_CASES)
def test_batched_table_matches_per_pair_oracle(cases, args):
    near_ties = cases is _near_tie_cases
    verdicts = []
    for rho, set_a, set_b in cases(*args):
        rows, best = reference_table(rho, set_a, set_b)
        report = uncorrelated_test(rho, set_a, set_b)
        assert table_rows(report.correlations) == rows
        assert np.array_equal(row_bits(table_rows(report.correlations)), row_bits(rows))
        assert len(report.correlations) == len(set_a) * len(set_b)
        assert report.max_violation == best.violation
        assert report.uncorrelated == (best.violation <= EPS)
        verdicts.append(report.uncorrelated)
        if report.uncorrelated:
            assert report.violating_pair is None and (report.lhs, report.rhs) == (0.0, 0.0)
            continue
        assert report.violating_pair == (best.index_a, best.index_b)
        assert (report.lhs, report.rhs) == (best.expect_a * best.expect_b, best.expect_product)
        if near_ties:
            # the tie rule keeps the first of each twin pair
            assert best.index_a < len(set_a) // 2 and best.index_b < len(set_b) // 2
    if near_ties:
        assert not any(verdicts)
    else:
        # the protocol starts uncorrelated and ends entangled
        assert verdicts[:2] == [True, False]


def test_empty_observable_set_is_uncorrelated_with_no_rows():
    _, final = _fermion_states()
    a, b = _fermion_sets()
    empty = LocalObservableSet("none", ())
    for sets in ((empty, b), (a, empty), (empty, empty)):
        report = uncorrelated_test(final, *sets)
        assert report.uncorrelated
        assert table_rows(report.correlations) == []
        assert report.violating_pair is None
        assert report.max_violation == 0.0


def test_observable_set_of_another_dimension_raises_bad_partition():
    # 16 matrices of 4 x 4 hold as many entries as one 16 x 16 matrix, and
    # must not be read as one (on this basis state that reading gives a
    # real table and the verdict uncorrelated)
    rho = dyad(np.eye(16)[0])
    small = LocalObservableSet("small", hermitian_basis(4))
    full = LocalObservableSet("full", [tensor(h, np.eye(4)) for h in hermitian_basis(4)])
    for sets in ((small, full), (full, small)):
        with pytest.raises(ValueError, match="bad-partition"):
            uncorrelated_test(rho, *sets)


def test_non_real_product_expectation_raises():
    # X and Z do not commute: Tr(X Z rho) = -i <Y>, which is -i on the Y
    # eigenstate; the pair (X, 1) before it is real, so every entry is checked
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    z = np.diag([1.0, -1.0]).astype(complex)
    y_plus = np.array([1, 1j]) / np.sqrt(2)
    with pytest.raises(ValueError, match="expectation value is not real"):
        uncorrelated_test(dyad(y_plus), LocalObservableSet("A", (x,)), LocalObservableSet("B", (np.eye(2), z)))


def test_bit_antibit_verdict_matches_schmidt_oracle():
    trace = run_bit_antibit_protocol()
    for step_matter, expect_entangled in ((trace.steps[0].matter, False), (trace.steps[-1].matter, True)):
        vals, vecs = np.linalg.eigh(step_matter)
        state = vecs[:, int(np.argmax(vals))]
        rank = schmidt_rank(state, 4, 4)
        assert (rank >= 2) == expect_entangled
    assert trace.report.entangled
    assert trace.summary["initial_report"].uncorrelated


def pauli_pair_sets():
    """The Pauli algebra of each qubit of two, embedded in the 4-dim space."""
    paulis = [np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1.0, -1.0])]
    return (
        LocalObservableSet("A", tuple(tensor(p, np.eye(2)) for p in paulis)),
        LocalObservableSet("B", tuple(tensor(np.eye(2), p) for p in paulis)),
    )


def test_eps_below_eps_min_is_refused():
    # below EPS_MIN a rounding-size deviation would decide the verdict
    bell = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    with pytest.raises(ValueError, match="bad-eps"):
        uncorrelated_test(dyad(bell), *pauli_pair_sets(), eps=1e-16)
    assert uncorrelated_test(dyad(bell), *pauli_pair_sets(), eps=EPS_MIN).entangled


def test_entangled_verdict_uses_the_callers_eps():
    # a Bell state mixed with weight 5e-9 of |01>: purity 1 - 1e-8, pure at eps 1e-7
    bell = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    other = np.array([0, 1, 0, 0], dtype=complex)
    weight = 5e-9
    rho = (1 - weight) * dyad(bell) + weight * dyad(other)
    report = uncorrelated_test(rho, *pauli_pair_sets(), eps=1e-7)
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
        report = uncorrelated_test(dyad(state), set_a, set_b)
        assert report.uncorrelated == (rank == 1)
        assert report.entangled == (rank == 2)


def _random_ket(rng, dim: int) -> np.ndarray:
    return rng.standard_normal(dim) + 1j * rng.standard_normal(dim)


def _pair_qubit(rng, q: int) -> np.ndarray:
    """A random allowed state of one bit/anti-bit pair with parity q: a
    superposition of |0 q> and |1 (1 - q)>, not normalized."""
    ket = np.zeros(4, dtype=complex)
    ket[[q, 3 - q]] = _random_ket(rng, 2)
    return ket


@pytest.mark.parametrize("terms", [1, 2, 3])
def test_bit_antibit_witness_agrees_with_schmidt_rank_on_random_states(terms):
    # the matter slots (A1, B1, B_{k+2}, A2) of the protocol, with its Q1/Q2
    # sets: one term is a product of the two pairs, and a random superposition
    # of two or three products (each pair keeping its parity) is entangled
    rng = np.random.default_rng(500 + terms)
    sig = SystemSignature(2, 2, ("A1", "B1", "B2", "A2"))
    eye = np.eye(4)
    set_a = LocalObservableSet("Q1", tuple(tensor(h, eye) for h in hermitian_basis(4)))
    set_b = LocalObservableSet("Q2", tuple(tensor(eye, h) for h in hermitian_basis(4)))
    for _ in range(8):
        q1, q2 = rng.integers(0, 2, size=2)
        state = sum(np.kron(_pair_qubit(rng, q1), _pair_qubit(rng, q2)) for _ in range(terms))
        state = state / np.linalg.norm(state)
        assert validate_state(sig, state)[0]
        rank = schmidt_rank(state, 4, 4)
        assert rank == (1 if terms == 1 else 2)
        report = uncorrelated_test(dyad(state), set_a, set_b)
        assert report.uncorrelated == (rank == 1)
        assert report.entangled == (rank == 2)


@pytest.mark.parametrize("entangled", [False, True], ids=["product", "entangled"])
def test_anyon_witness_agrees_with_schmidt_rank_on_random_states(entangled):
    # a sector state with one coupling label t has a pure matter reduction:
    # the (x1, x2) qubit pair psi, tensored with |t>
    rng = np.random.default_rng(520 + entangled)
    set_a, set_b = pair_observable_sets()
    for _ in range(8):
        if entangled:
            psi = _random_ket(rng, 4)
        else:
            psi = np.kron(_random_ket(rng, 2), _random_ket(rng, 2))
        psi = psi / np.linalg.norm(psi)
        t = int(rng.choice([0, 2]))
        amps = np.zeros(SECTOR_DIM, dtype=complex)
        for x1 in (0, 1):
            for x2 in (0, 1):
                amps[sector_index(x1, x2, t)] = psi[2 * x1 + x2]
        rho = trace_mediator(AnyonState(Partition.CENTER, amps))
        rank = schmidt_rank(psi, 2, 2)
        assert rank == (2 if entangled else 1)
        report = uncorrelated_test(rho, set_a, set_b)
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
    # one bad matrix anywhere in the stack, by more than EPS
    hermitian = hermitian_basis(3)
    for position in (0, 4, len(hermitian)):
        bad = hermitian[position % len(hermitian)].copy()
        bad[0, 2] += 2 * EPS
        mats = hermitian[:position] + [bad] + hermitian[position:]
        with pytest.raises(ValueError, match="non-Hermitian"):
            LocalObservableSet("A", tuple(mats))
    # within EPS it is Hermitian
    near = hermitian[4].copy()
    near[0, 2] += 0.5 * EPS
    assert len(LocalObservableSet("A", (*hermitian, near))) == len(hermitian) + 1


def test_observable_set_rejects_non_square_and_ragged_input():
    with pytest.raises(ValueError, match="non-Hermitian"):
        LocalObservableSet("A", (np.zeros((2, 3)),))
    with pytest.raises(ValueError, match="non-Hermitian"):
        LocalObservableSet("A", (np.ones(2),))
    with pytest.raises(ValueError, match="non-Hermitian"):
        LocalObservableSet("A", np.eye(2))  # one matrix, not a sequence of them
    for ragged in ((np.eye(2), np.eye(4)), (np.eye(2), np.ones(2))):
        with pytest.raises(ValueError):
            LocalObservableSet("A", ragged)


def test_observable_set_holds_a_read_only_copy():
    mats = [np.eye(2, dtype=complex), np.diag([1.0, -1.0]).astype(complex)]
    s = LocalObservableSet("A", tuple(mats))
    assert s.matrices.shape == (2, 2, 2) and s.matrices.dtype == complex
    assert not s.matrices.flags.writeable
    mats[0][0, 0] = 5.0
    assert s.matrices[0, 0, 0] == 1.0
    with pytest.raises(ValueError):
        s.matrices[0, 0, 0] = 2.0


def test_observable_sets_commute_with_their_complement():
    # locality of the embedded sets: every A commutes with every B
    from bmvsim.statecore import commutator

    pairs = [_fermion_sets(), pair_observable_sets()]
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
