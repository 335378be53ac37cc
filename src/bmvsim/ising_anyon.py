"""Fusion-tree engine for a three-charge non-Abelian toy model.

Charges take values in {0, 1, 2}; two subsystems with charges x and y fuse
into a total charge z allowed by the fusion table (kept, with the general
three-leaf tree engine that reads it, in tests/test_ising_anyon.py).  The pair
(1, 1) is the only one with two outcomes, {0, 2}, which is the sole source of
the hidden coupling degree of freedom exploited by the protocol.  Composition
is non-associative: the two association orders of three subsystems give
isomorphic but distinct bases related by a recoupling move that acts as a
relabeling except on the all-charge-1 block, where it is the 2x2 Hadamard
``P_LEFT_TO_RIGHT``.

Protocol sector
---------------
The mediation protocol acts on five subsystems grouped as Q1 = (x1, y1),
M = m, Q2 = (x2, y2) and restricted to the sector with pair charges
z1 = z2 = 1 (so y_i = 1 - x_i with x_i in {0, 1}), mediator charge m = 1 and
global charge g = 1.  In this sector a state, per association order, is an
8-dimensional amplitude vector over (x1, x2, internal) with the internal
coupling label in {0, 2}:

* ``Partition.CENTER``  groups (Q1 Q2) M, internal label t,
* ``Partition.LEFT``    groups (Q1 M) Q2, internal label h1,
* ``Partition.RIGHT``   groups Q1 (M Q2), internal label h2.

Changing partition multiplies each (x1, x2) block's internal 2-vector by a
unitary 2x2 matrix: amplitude vectors transform as c_to = P(from->to) c_from.
The qubit encoding identifies |0> with pair charge labels (1, 0) and |1> with
(0, 1), with the matter coupling label t fixed to 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cache

import numpy as np

from .statecore import EPS, dagger, partial_trace, tensor
from .witness import LocalObservableSet, ProtocolTrace, run_protocol

# ---------------------------------------------------------------------------
# the restricted protocol sector


class Partition(Enum):
    """Association order of the Q1 / M / Q2 chain."""

    CENTER = "center"  # (Q1 Q2) M, internal label t
    LEFT = "left"      # (Q1 M) Q2, internal label h1
    RIGHT = "right"    # Q1 (M Q2), internal label h2


# The internal coupling label: the charges a fused (1, 1) pair can take.
INTERNAL_VALUES = (0, 2)

#: Sector basis labels in index order: (x1, x2, internal).
SECTOR_BASIS: tuple[tuple[int, int, int], ...] = tuple(
    (x1, x2, u) for x1 in (0, 1) for x2 in (0, 1) for u in INTERNAL_VALUES
)

SECTOR_DIM = len(SECTOR_BASIS)


def sector_index(x1: int, x2: int, internal: int) -> int:
    return (x1 * 2 + x2) * 2 + (0 if internal == 0 else 1)


# AnyonState's norm check is an input check, not a verdict, so it does not
# follow eps: the protocol, suite and tests build states with |norm - 1| <= 6.7e-16.
_NORM_TOL = 1e-9


# eq=False: a generated __eq__ would compare the amplitude arrays.
@dataclass(frozen=True, slots=True, eq=False)
class AnyonState:
    """Unit-norm amplitude vector over the restricted sector, tagged by partition.

    Amplitudes from different partitions must never be mixed; every operation
    that crosses association orders goes through ``change_partition``.  The
    state holds a read-only copy of the amplitudes it is given.
    """

    shape: Partition
    amps: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amps, dtype=complex).reshape(-1)
        if amps.shape != (SECTOR_DIM,):
            raise ValueError(f"bad-fusion-tree: sector state needs {SECTOR_DIM} amplitudes")
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > _NORM_TOL:
            raise ValueError(f"state norm {norm} differs from 1")
        amps = amps.copy()
        amps.setflags(write=False)
        object.__setattr__(self, "amps", amps)


_SQ2 = np.sqrt(2.0)

#: Partition-change matrices on the internal {0, 2} support, rows = target label.
P_LEFT_TO_RIGHT = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / _SQ2
P_CENTER_TO_RIGHT = np.array([[1.0, 1.0], [-1.0j, 1.0j]], dtype=complex) / _SQ2

_TO_RIGHT = {
    Partition.LEFT: P_LEFT_TO_RIGHT,
    Partition.CENTER: P_CENTER_TO_RIGHT,
    Partition.RIGHT: np.eye(2, dtype=complex),
}


def partition_matrix(src: Partition, dst: Partition) -> np.ndarray:
    """2x2 unitary sending internal amplitudes of ``src`` to those of ``dst``.

    ``partition_matrix(a, a)`` is the identity; all other pairs compose
    through the right-hand partition, so every closed loop is the identity.
    """
    return dagger(_TO_RIGHT[dst]) @ _TO_RIGHT[src]


def change_partition(state: AnyonState, dst: Partition) -> AnyonState:
    """Re-express a sector state in another association order."""
    if state.shape is dst:
        return state
    p = partition_matrix(state.shape, dst)
    blocks = state.amps.reshape(4, 2)
    return AnyonState(dst, (blocks @ p.T).reshape(-1))


# ---------------------------------------------------------------------------
# system-local protocol unitaries (diagonal-in-one-partition actions); each
# returns the state in the partition it acts in


def _phase_mq2(state: AnyonState, phase_for_x2: dict[int, complex]) -> AnyonState:
    """Multiply the internal = 2 amplitudes of the right-hand partition by a
    phase that depends on x2."""
    amps = change_partition(state, Partition.RIGHT).amps.copy()
    for x1 in (0, 1):
        for x2 in (0, 1):
            amps[sector_index(x1, x2, 2)] *= phase_for_x2[x2]
    return AnyonState(Partition.RIGHT, amps)


# The phases are written as literals, not as conjugates of each other:
# np.conj(1j) is 0-1j but -1.0j is -0-1j, and the sign of that zero reaches
# the reported amplitudes.
def unitary_u_mq2(state: AnyonState) -> AnyonState:
    """Controlled phase local in M Q2: on internal = 2, multiply the x2 = 1
    branch by +i and the x2 = 0 branch by -i; identity on internal = 0."""
    return _phase_mq2(state, {1: 1.0j, 0: -1.0j})


def unitary_w_mq2(state: AnyonState) -> AnyonState:
    """Inverse of the controlled phase: conjugate phases on internal = 2."""
    return _phase_mq2(state, {1: -1.0j, 0: 1.0j})


def unitary_v_q1m(state: AnyonState) -> AnyonState:
    """Controlled flip local in Q1 M: swap x1 = 0 <-> 1 on internal = 2 of
    the left-hand partition."""
    amps = change_partition(state, Partition.LEFT).amps.copy()
    for x2 in (0, 1):
        a, b = sector_index(0, x2, 2), sector_index(1, x2, 2)
        amps[a], amps[b] = amps[b], amps[a]
    return AnyonState(Partition.LEFT, amps)


# ---------------------------------------------------------------------------
# partial traces


def trace_mediator(state: AnyonState) -> np.ndarray:
    """Discard the mediator; density operator on the 8-dim matter sector.

    Expressed in the matter-mediator partition, a dyad survives only with
    matching mediator charge and matching matter coupling label t, so the
    result is t-block-diagonal on the (x1, x2, t) basis.
    """
    c = change_partition(state, Partition.CENTER).amps
    t = np.array([u for _, _, u in SECTOR_BASIS])
    return np.where(np.equal.outer(t, t), np.outer(c, c.conj()), 0.0)


def trace_matter_to_mediator(state: AnyonState) -> np.ndarray:
    """Discard the matter; 3x3 density operator on the mediator charge basis.

    Mirror of ``trace_mediator``: dyads survive only with matching matter
    labels and matching t.  The mediator charge is pinned to 1 throughout the
    sector, so the result is the pure projector on charge 1.
    """
    c = change_partition(state, Partition.CENTER).amps
    rho = np.zeros((3, 3), dtype=complex)
    rho[1, 1] = np.vdot(c, c)
    return rho


# SECTOR_BASIS orders the matter basis as the tensor product x1 (x) x2 (x) t.
def qubit_marginal(matter_op: np.ndarray, sector: int) -> np.ndarray:
    """Reduce an (x1, x2, t) matter operator to the 2-dim x label space of
    matter qubit ``sector`` (1 or 2)."""
    return partial_trace(matter_op, [2, 2, 2], [sector - 1])


# ---------------------------------------------------------------------------
# embedded matter observables (qubit encoding: |0> = charge pattern (1,0))

#: One encoded qubit's pair-charge flip |x=1><x=0| + h.c., and its Z: +1 on
#: the x = 1 pattern (encoded |0>), -1 on x = 0 (encoded |1>).
QUBIT_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
QUBIT_Z = np.array([[-1.0, 0.0], [0.0, 1.0]], dtype=complex)
QUBIT_X.setflags(write=False)
QUBIT_Z.setflags(write=False)


def embed(op2: np.ndarray, sector: int) -> np.ndarray:
    """A one-qubit operator on matter qubit ``sector`` (1 or 2), acting per
    (other qubit, t) block of the matter sector."""
    eye = np.eye(2)
    return tensor(op2, eye, eye) if sector == 1 else tensor(eye, op2, eye)


@cache
def pair_observable_sets() -> tuple[LocalObservableSet, LocalObservableSet]:
    """The spanning sets {1, X, Z, i[X, Z]/2} of Q1's and Q2's embedded local
    algebras, built once per process; read-only, so every run shares them."""
    eye = np.eye(SECTOR_DIM, dtype=complex)
    sets = []
    for sector in (1, 2):
        x, z = embed(QUBIT_X, sector), embed(QUBIT_Z, sector)
        y = 0.5j * (x @ z - z @ x)
        sets.append(LocalObservableSet(f"Q{sector}", (eye, x, z, y)))
    return tuple(sets)


# ---------------------------------------------------------------------------
# the mediation protocol


@cache
def initial_protocol_state() -> AnyonState:
    """Encoded |0> on Q1, even superposition on Q2, coupling label t = 0;
    built once per process (a state is immutable)."""
    amps = np.zeros(SECTOR_DIM, dtype=complex)
    amps[sector_index(1, 1, 0)] = 1.0 / _SQ2
    amps[sector_index(1, 0, 0)] = 1.0 / _SQ2
    return AnyonState(Partition.CENTER, amps)


def run_anyon_protocol(eps: float = EPS) -> ProtocolTrace:
    """Entangle the two encoded matter qubits with a mediator that stays pure.

    Applies the system-local sequence U (in M Q2), V (in Q1 M), W (in M Q2) to
    the encoded |0> (x) |+> state.  Each checkpoint records the state in the
    partition its gate acts in, together with both reductions.
    """
    return run_protocol(
        "anyon",
        initial_protocol_state(),
        (("u_mq2", unitary_u_mq2), ("v_q1m", unitary_v_q1m), ("w_mq2", unitary_w_mq2)),
        lambda states: (states, [trace_matter_to_mediator(s) for s in states], [trace_mediator(s) for s in states]),
        lambda matter: (qubit_marginal(matter, 1), qubit_marginal(matter, 2)),
        pair_observable_sets(),
        eps=eps,
    )
