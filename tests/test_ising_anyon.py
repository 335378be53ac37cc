from dataclasses import dataclass

import numpy as np
import pytest

from bmvsim import ising_anyon
from bmvsim.acceptance import ANYON_DISPLAYS
from bmvsim.ising_anyon import (
    INTERNAL_VALUES,
    P_LEFT_TO_RIGHT,
    QUBIT_X,
    QUBIT_Z,
    AnyonState,
    Partition,
    SECTOR_BASIS,
    SECTOR_DIM,
    change_partition,
    embed,
    initial_protocol_state,
    pair_observable_sets,
    partition_matrix,
    qubit_marginal,
    run_anyon_protocol,
    sector_index,
    trace_matter_to_mediator,
    trace_mediator,
    unitary_u_mq2,
    unitary_v_q1m,
    unitary_w_mq2,
)
from bmvsim.statecore import EPS, commutator, dagger, dyad, mat_close, tensor
from test_statecore import is_unitary, random_state, random_unitary

SQ2 = np.sqrt(2.0)
SHAPES = (Partition.CENTER, Partition.LEFT, Partition.RIGHT)


# ---------------------------------------------------------------------------
# general three-leaf fusion trees and the recoupling move: the reference that
# the hand-pinned partition matrices of the protocol sector are checked against

CHARGES = (0, 1, 2)

#: Allowed total charges z for a fused pair (x, y) of charges in {0, 1, 2};
#: symmetric in x, y.
FUSION_OUTCOMES: dict[tuple[int, int], tuple[int, ...]] = {
    (0, 0): (0,),
    (0, 1): (1,),
    (0, 2): (2,),
    (1, 0): (1,),
    (1, 1): (0, 2),
    (1, 2): (1,),
    (2, 0): (2,),
    (2, 1): (1,),
    (2, 2): (0,),
}


def fusion_outcomes(x: int, y: int) -> tuple[int, ...]:
    try:
        return FUSION_OUTCOMES[(x, y)]
    except KeyError:
        raise ValueError(f"bad-fusion-tree: charges ({x}, {y}) outside {CHARGES}") from None


def fusion_allowed(x: int, y: int, z: int) -> bool:
    return (x, y) in FUSION_OUTCOMES and z in FUSION_OUTCOMES[(x, y)]


def pair_labels() -> list[tuple[int, int, int]]:
    """All valid (x, y, z) labels of a fused pair; 10 of them, 3/4/3 by z."""
    return [(x, y, z) for x in CHARGES for y in CHARGES for z in fusion_outcomes(x, y)]


@dataclass(frozen=True)
class LeftTreeLabel:
    """Basis label of ((x0, x1), x2): inner charge z01, total charge g."""

    x0: int
    x1: int
    x2: int
    z01: int
    g: int

    def is_valid(self) -> bool:
        return fusion_allowed(self.x0, self.x1, self.z01) and fusion_allowed(self.z01, self.x2, self.g)


@dataclass(frozen=True)
class RightTreeLabel:
    """Basis label of (x0, (x1, x2)): inner charge z12, total charge g."""

    x0: int
    x1: int
    x2: int
    z12: int
    g: int

    def is_valid(self) -> bool:
        return fusion_allowed(self.x1, self.x2, self.z12) and fusion_allowed(self.x0, self.z12, self.g)


def left_tree_labels() -> list[LeftTreeLabel]:
    out = []
    for x0 in CHARGES:
        for x1 in CHARGES:
            for x2 in CHARGES:
                for z01 in fusion_outcomes(x0, x1):
                    for g in fusion_outcomes(z01, x2):
                        out.append(LeftTreeLabel(x0, x1, x2, z01, g))
    return out


def right_tree_labels() -> list[RightTreeLabel]:
    out = []
    for x0 in CHARGES:
        for x1 in CHARGES:
            for x2 in CHARGES:
                for z12 in fusion_outcomes(x1, x2):
                    for g in fusion_outcomes(x0, z12):
                        out.append(RightTreeLabel(x0, x1, x2, z12, g))
    return out


def f_move(label: LeftTreeLabel) -> dict[RightTreeLabel, complex]:
    """Re-associate a left tree into the right-tree basis.

    Identity relabeling everywhere except the block x0 = x1 = x2 = g = 1,
    where the two inner charges {0, 2} mix through the Hadamard with
    coefficients +-1/sqrt(2).
    """
    if not isinstance(label, LeftTreeLabel) or not label.is_valid():
        raise ValueError(f"bad-fusion-tree: invalid left label {label}")
    x0, x1, x2, z01, g = label.x0, label.x1, label.x2, label.z01, label.g
    if (x0, x1, x2, g) == (1, 1, 1, 1):
        s = 1.0 / np.sqrt(2.0)
        sign = 1.0 if z01 == 0 else -1.0
        return {
            RightTreeLabel(1, 1, 1, 0, 1): s,
            RightTreeLabel(1, 1, 1, 2, 1): sign * s,
        }
    matches = [
        z12
        for z12 in fusion_outcomes(x1, x2)
        if fusion_allowed(x0, z12, g)
    ]
    if len(matches) != 1:
        raise ValueError(f"bad-fusion-tree: ambiguous re-association of {label}")
    return {RightTreeLabel(x0, x1, x2, matches[0], g): 1.0}


# ---------------------------------------------------------------------------
# the protocol sector


def _state(entries, shape=Partition.CENTER):
    v = np.zeros(SECTOR_DIM, dtype=complex)
    for (x1, x2, u), a in entries.items():
        v[sector_index(x1, x2, u)] = a
    return AnyonState(shape, v / np.linalg.norm(v))


def bell_matter_state():
    """The encoded (|00> + |11>)/sqrt(2): the protocol's final matter state."""
    return _state({(1, 1, 0): 1.0, (0, 0, 0): 1.0}).amps


def test_fusion_table():
    assert fusion_allowed(1, 1, 0) and fusion_allowed(1, 1, 2)
    assert not fusion_allowed(1, 1, 1)
    assert fusion_allowed(0, 0, 0) and not fusion_allowed(0, 0, 1)
    assert fusion_outcomes(2, 2) == (0,)
    assert fusion_outcomes(1, 2) == (1,)
    with pytest.raises(ValueError, match="bad-fusion-tree"):
        fusion_outcomes(3, 0)


def test_internal_label_takes_the_fusion_outcomes_of_a_charge_1_pair():
    assert INTERNAL_VALUES == FUSION_OUTCOMES[(1, 1)]
    assert [u for _, _, u in SECTOR_BASIS] == list(INTERNAL_VALUES) * 4


def test_fusion_table_is_symmetric():
    for x in (0, 1, 2):
        for y in (0, 1, 2):
            assert fusion_outcomes(x, y) == fusion_outcomes(y, x)


def test_pair_dimension_profile():
    labels = pair_labels()
    assert len(labels) == 10
    blocks = {z: sum(1 for l in labels if l[2] == z) for z in (0, 1, 2)}
    assert blocks == {0: 3, 1: 4, 2: 3}


def test_three_leaf_dimension_profile():
    left, right = left_tree_labels(), right_tree_labels()
    assert len(left) == len(right) == 34
    for labels, attr in ((left, "g"), (right, "g")):
        blocks = {g: sum(1 for l in labels if l.g == g) for g in (0, 1, 2)}
        assert blocks == {0: 10, 1: 14, 2: 10}


def test_f_move_hadamard_block():
    s = 1 / SQ2
    out0 = f_move(LeftTreeLabel(1, 1, 1, 0, 1))
    assert mat_close(np.array([out0[RightTreeLabel(1, 1, 1, 0, 1)], out0[RightTreeLabel(1, 1, 1, 2, 1)]]), np.array([s, s]))
    out2 = f_move(LeftTreeLabel(1, 1, 1, 2, 1))
    assert mat_close(np.array([out2[RightTreeLabel(1, 1, 1, 0, 1)], out2[RightTreeLabel(1, 1, 1, 2, 1)]]), np.array([s, -s]))


def test_f_move_block_is_the_pinned_left_to_right_matrix():
    # rows: right-tree inner charge z12 (h2), columns: left-tree z01 (h1)
    block = np.array(
        [[f_move(LeftTreeLabel(1, 1, 1, z01, 1))[RightTreeLabel(1, 1, 1, z12, 1)] for z01 in (0, 2)] for z12 in (0, 2)]
    )
    assert mat_close(block, P_LEFT_TO_RIGHT, EPS)


def test_f_move_identity_case():
    # outside the all-charge-1 block the move is a pure relabeling
    out = f_move(LeftTreeLabel(0, 1, 1, 1, 0))
    assert out == {RightTreeLabel(0, 1, 1, 0, 0): 1.0}
    out = f_move(LeftTreeLabel(0, 1, 1, 1, 2))
    assert out == {RightTreeLabel(0, 1, 1, 2, 2): 1.0}


def test_f_move_rejects_invalid_label():
    with pytest.raises(ValueError, match="bad-fusion-tree"):
        f_move(LeftTreeLabel(0, 1, 1, 1, 1))  # g=1 not a fusion outcome of (1, 1)


def test_f_move_is_unitary_on_the_full_tree_space():
    left, right = left_tree_labels(), right_tree_labels()
    li = {l: i for i, l in enumerate(left)}
    ri = {r: i for i, r in enumerate(right)}
    f = np.zeros((34, 34), dtype=complex)
    for l in left:
        for r, coeff in f_move(l).items():
            f[ri[r], li[l]] = coeff
    assert is_unitary(f, EPS)


def test_partition_matrices_pinned():
    assert mat_close(partition_matrix(Partition.LEFT, Partition.RIGHT), np.array([[1, 1], [1, -1]]) / SQ2)
    assert mat_close(partition_matrix(Partition.CENTER, Partition.RIGHT), np.array([[1, 1], [-1j, 1j]]) / SQ2)
    # composed change: left -> center through the right-hand partition
    expected = dagger(np.array([[1, 1], [-1j, 1j]]) / SQ2) @ (np.array([[1, 1], [1, -1]]) / SQ2)
    assert mat_close(partition_matrix(Partition.LEFT, Partition.CENTER), expected)


def test_partition_matrix_identity_and_unitarity():
    for src in SHAPES:
        assert mat_close(partition_matrix(src, src), np.eye(2))
        for dst in SHAPES:
            assert is_unitary(partition_matrix(src, dst), EPS)


def test_partition_loops_compose_to_identity():
    from itertools import permutations

    for loop in list(permutations(SHAPES, 2)) + list(permutations(SHAPES, 3)):
        cycle = list(loop) + [loop[0]]
        m = np.eye(2, dtype=complex)
        for src, dst in zip(cycle, cycle[1:]):
            m = partition_matrix(src, dst) @ m
        assert mat_close(m, np.eye(2), EPS)


def test_change_partition_round_trip():
    rng = np.random.default_rng(61)
    for _ in range(100):
        state = AnyonState(Partition.CENTER, random_state(SECTOR_DIM, rng))
        back = change_partition(change_partition(change_partition(state, Partition.RIGHT), Partition.LEFT), Partition.CENTER)
        assert mat_close(back.amps, state.amps, EPS)
        assert abs(np.linalg.norm(change_partition(state, Partition.LEFT).amps) - 1.0) <= 1e-9


def test_initial_state_in_right_partition():
    right = change_partition(initial_protocol_state(), Partition.RIGHT)
    expected = _state(
        {(1, 1, 0): 0.5, (1, 1, 2): -0.5j, (1, 0, 0): 0.5, (1, 0, 2): -0.5j},
        Partition.RIGHT,
    )
    assert mat_close(right.amps, expected.amps, EPS)


def test_states_are_immutable_and_validated():
    state = initial_protocol_state()
    with pytest.raises(AttributeError):
        state.shape = Partition.LEFT
    with pytest.raises(ValueError):
        AnyonState(Partition.CENTER, np.ones(SECTOR_DIM))
    with pytest.raises(ValueError):
        AnyonState(Partition.CENTER, np.ones(5))


def test_state_holds_a_read_only_copy_and_compares_by_identity():
    amps = np.zeros(SECTOR_DIM, dtype=complex)
    amps[0] = 1.0
    state = AnyonState(Partition.CENTER, amps)
    with pytest.raises(AttributeError):
        state.amps = amps
    with pytest.raises(ValueError):
        state.amps[0] = 0.5
    amps[0] = 0.5
    assert state.amps[0] == 1.0 and state.amps is not amps
    twin = AnyonState(Partition.CENTER, state.amps)
    assert state == state and state != twin


def test_unitary_u_phases_on_basis_states():
    for x2, phase in ((1, 1j), (0, -1j)):
        state = _state({(1, x2, 2): 1.0}, Partition.RIGHT)
        out = unitary_u_mq2(state)
        assert mat_close(out.amps, phase * state.amps, EPS)
    untouched = _state({(1, 1, 0): 1.0}, Partition.RIGHT)
    assert mat_close(unitary_u_mq2(untouched).amps, untouched.amps, EPS)


def test_unitary_v_swaps_first_label():
    state = _state({(1, 0, 2): 1.0}, Partition.LEFT)
    out = unitary_v_q1m(state)
    assert mat_close(out.amps, _state({(0, 0, 2): 1.0}, Partition.LEFT).amps, EPS)
    fixed = _state({(1, 0, 0): 1.0}, Partition.LEFT)
    assert mat_close(unitary_v_q1m(fixed).amps, fixed.amps, EPS)


def test_w_inverts_u():
    rng = np.random.default_rng(67)
    for _ in range(20):
        state = AnyonState(Partition.RIGHT, random_state(SECTOR_DIM, rng))
        out = unitary_w_mq2(unitary_u_mq2(state))
        assert mat_close(out.amps, state.amps, EPS)


def _label_marginal(state: AnyonState, which: str) -> np.ndarray:
    probs = np.zeros(2)
    for i, (x1, x2, _) in enumerate(SECTOR_BASIS):
        probs[x1 if which == "x1" else x2] += abs(state.amps[i]) ** 2
    return probs


def test_local_unitaries_leave_far_sector_labels_invariant():
    rng = np.random.default_rng(71)
    for _ in range(50):
        state = AnyonState(Partition.RIGHT, random_state(SECTOR_DIM, rng))
        # U and W act in the mediator-Q2 block: the Q1 label distribution is fixed
        for gate in (unitary_u_mq2, unitary_w_mq2):
            out = gate(state)
            assert np.allclose(_label_marginal(out, "x1"), _label_marginal(state, "x1"), atol=1e-9)
        left = AnyonState(Partition.LEFT, random_state(SECTOR_DIM, rng))
        out = unitary_v_q1m(left)
        assert np.allclose(_label_marginal(out, "x2"), _label_marginal(left, "x2"), atol=1e-9)


def test_trace_mediator_of_protocol_states():
    psi0 = initial_protocol_state()
    expected0 = _state({(1, 1, 0): 1 / SQ2, (1, 0, 0): 1 / SQ2}).amps
    assert mat_close(trace_mediator(psi0), dyad(expected0), EPS)
    trace = run_anyon_protocol()
    assert mat_close(trace.steps[-1].matter, dyad(bell_matter_state()), EPS)


def test_trace_mediator_preserves_trace_and_kills_cross_sector_dyads():
    rng = np.random.default_rng(73)
    for _ in range(25):
        state = AnyonState(Partition.CENTER, random_state(SECTOR_DIM, rng))
        rho = trace_mediator(state)
        assert abs(np.trace(rho) - 1.0) <= 1e-9
        for a, (_, _, ta) in enumerate(SECTOR_BASIS):
            for b, (_, _, tb) in enumerate(SECTOR_BASIS):
                if ta != tb:
                    assert abs(rho[a, b]) <= EPS


def test_trace_matter_to_mediator():
    psi0 = initial_protocol_state()
    expected = np.zeros((3, 3), dtype=complex)
    expected[1, 1] = 1.0
    assert mat_close(trace_matter_to_mediator(psi0), expected, EPS)
    trace = run_anyon_protocol()
    for step in trace.steps:
        assert mat_close(step.mediator, expected, EPS)
        assert abs(np.trace(step.mediator) - 1.0) <= EPS


# The trace over Q2 keeps qubit 1, the trace over Q1 qubit 2.
def test_trace_q2_of_bell_encoding():
    rho = dyad(bell_matter_state())
    assert mat_close(qubit_marginal(rho, 1), np.eye(2) / 2, EPS)
    assert mat_close(qubit_marginal(rho, 2), np.eye(2) / 2, EPS)


def test_trace_q2_drops_mismatched_far_labels():
    op = np.zeros((SECTOR_DIM, SECTOR_DIM), dtype=complex)
    op[sector_index(0, 0, 0), sector_index(1, 1, 0)] = 1.0   # x2 mismatch
    assert mat_close(qubit_marginal(op, 1), np.zeros((2, 2)), EPS)
    op2 = np.zeros((SECTOR_DIM, SECTOR_DIM), dtype=complex)
    op2[sector_index(0, 0, 0), sector_index(1, 0, 2)] = 1.0  # coupling-label mismatch
    assert mat_close(qubit_marginal(op2, 1), np.zeros((2, 2)), EPS)
    assert mat_close(qubit_marginal(op2, 2), np.zeros((2, 2)), EPS)
    with pytest.raises(ValueError, match="bad-partition"):
        qubit_marginal(np.eye(4), 1)


def test_trace_q2_product_dyad_and_trace_preservation():
    rng = np.random.default_rng(79)
    for _ in range(25):
        state = AnyonState(Partition.CENTER, random_state(SECTOR_DIM, rng))
        rho = trace_mediator(state)
        for sector in (1, 2):
            assert abs(np.trace(qubit_marginal(rho, sector)) - np.trace(rho)) <= 1e-9
    # product state: marginal times trace
    prod = _state({(1, 1, 0): 0.6, (0, 1, 0): 0.8})
    rho1 = qubit_marginal(dyad(prod.amps), 1)
    expect = np.array([[0.64, 0.48], [0.48, 0.36]], dtype=complex)
    assert mat_close(rho1, expect, 1e-9)
    assert mat_close(qubit_marginal(dyad(prod.amps), 2), np.diag([0.0, 1.0]), 1e-9)


def test_embedded_observables_do_not_commute():
    x1, z1 = embed(QUBIT_X, 1), embed(QUBIT_Z, 1)
    assert np.max(np.abs(commutator(x1, z1))) > 0.1
    # but observables of different sectors commute
    assert np.max(np.abs(commutator(x1, embed(QUBIT_X, 2)))) <= EPS
    assert np.max(np.abs(commutator(z1, embed(QUBIT_Z, 2)))) <= EPS


def test_trace_mediator_commutes_with_matter_unitaries():
    # a matter-sector unitary: block diagonal in the coupling label t
    rng = np.random.default_rng(83)
    idx_t0 = [i for i, (_, _, t) in enumerate(SECTOR_BASIS) if t == 0]
    idx_t2 = [i for i, (_, _, t) in enumerate(SECTOR_BASIS) if t == 2]
    for _ in range(20):
        u = np.zeros((SECTOR_DIM, SECTOR_DIM), dtype=complex)
        u[np.ix_(idx_t0, idx_t0)] = random_unitary(4, rng)
        u[np.ix_(idx_t2, idx_t2)] = random_unitary(4, rng)
        state = AnyonState(Partition.CENTER, random_state(SECTOR_DIM, rng))
        moved = AnyonState(Partition.CENTER, u @ state.amps)
        lhs = trace_mediator(moved)
        rhs = u @ trace_mediator(state) @ dagger(u)
        assert mat_close(lhs, rhs, 1e-9)


def test_protocol_displays_match_pinned_expansions():
    trace = run_anyon_protocol()
    d = {name: change_partition(trace.steps[index].state, shape).amps for name, (index, shape, _) in ANYON_DISPLAYS.items()}
    # the pinned table says what these expansions say
    for name, (_, _, pinned) in ANYON_DISPLAYS.items():
        assert mat_close(d[name], pinned, EPS), name
    assert mat_close(d["initial_center"], initial_protocol_state().amps, EPS)
    assert mat_close(d["initial_right"], _state({(1, 1, 0): 0.5, (1, 1, 2): -0.5j, (1, 0, 0): 0.5, (1, 0, 2): -0.5j}, Partition.RIGHT).amps, EPS)
    assert mat_close(d["after_u_right"], _state({(1, 1, 0): 0.5, (1, 1, 2): 0.5, (1, 0, 0): 0.5, (1, 0, 2): -0.5}, Partition.RIGHT).amps, EPS)
    assert mat_close(d["after_u_left"], _state({(1, 1, 0): 1 / SQ2, (1, 0, 2): 1 / SQ2}, Partition.LEFT).amps, EPS)
    assert mat_close(d["after_v_left"], _state({(1, 1, 0): 1 / SQ2, (0, 0, 2): 1 / SQ2}, Partition.LEFT).amps, EPS)
    assert mat_close(d["after_v_right"], _state({(1, 1, 0): 0.5, (1, 1, 2): 0.5, (0, 0, 0): 0.5, (0, 0, 2): -0.5}, Partition.RIGHT).amps, EPS)
    assert mat_close(d["after_w_right"], _state({(1, 1, 0): 0.5, (1, 1, 2): -0.5j, (0, 0, 0): 0.5, (0, 0, 2): -0.5j}, Partition.RIGHT).amps, EPS)
    assert mat_close(d["final_center"], bell_matter_state(), EPS)


def test_protocol_correlations_and_witness():
    trace = run_anyon_protocol()
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    rho_q1, rho_q2 = trace.marginals
    # X on both qubits of the (x1, x2, t) matter basis
    assert abs(np.trace(np.kron(np.kron(x, x), np.eye(2)) @ trace.steps[-1].matter) - 1.0) <= EPS
    assert abs(np.trace(x @ rho_q1)) <= EPS
    assert abs(np.trace(x @ rho_q2)) <= EPS
    assert mat_close(rho_q1, np.eye(2) / 2, EPS)
    assert trace.initial_report.uncorrelated
    assert trace.report.entangled
    assert all(abs(np.trace(step.mediator @ step.mediator) - 1.0) <= EPS for step in trace.steps)


def test_protocol_observable_sets_are_shared_read_only_constants(monkeypatch):
    q1, q2 = pair_observable_sets()
    assert pair_observable_sets() is pair_observable_sets()
    for got, sector in ((q1, 1), (q2, 2)):
        assert got.subsystem == f"Q{sector}"
        assert not got.matrices.flags.writeable
    assert not QUBIT_X.flags.writeable and not QUBIT_Z.flags.writeable

    def refuse(*args):
        raise AssertionError("the protocol built its observable sets again")

    monkeypatch.setattr(ising_anyon, "LocalObservableSet", refuse)
    trace = run_anyon_protocol()
    assert trace.report.entangled
    assert trace.report.correlations.expect_product.shape == (len(q1), len(q2))
    assert trace.initial_report.uncorrelated


def test_matter_observable_set_shapes():
    for s in pair_observable_sets():
        assert len(s) == 4
        for m in s.matrices:
            assert m.shape == (SECTOR_DIM, SECTOR_DIM)
    # each qubit's x expectation through the embedded form matches the local form
    rho = dyad(_state({(1, 1, 0): 0.6, (0, 1, 0): 0.8}).amps)
    for sector in (1, 2):
        assert abs(np.trace(embed(QUBIT_X, sector) @ rho) - np.trace(QUBIT_X @ qubit_marginal(rho, sector))) <= EPS


def test_pair_observable_sets_equal_tensor_builds():
    # the sets are the tensor builds of {1, X, Z, i[X, Z]/2} bit for bit, signed zeros included
    x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    z = np.array([[-1.0, 0.0], [0.0, 1.0]], dtype=complex)
    eye2, eye8 = np.eye(2), np.eye(SECTOR_DIM, dtype=complex)
    builds = []
    for place in (lambda op: tensor(op, eye2, eye2), lambda op: tensor(eye2, op, eye2)):
        xs, zs = place(x), place(z)
        builds.append(np.array([eye8, xs, zs, 0.5j * (xs @ zs - zs @ xs)]))
    for got, want in zip(pair_observable_sets(), builds, strict=True):
        assert np.array_equal(got.matrices, want)
        for part in (np.real, np.imag):
            assert np.array_equal(np.signbit(part(got.matrices)), np.signbit(part(want)))
