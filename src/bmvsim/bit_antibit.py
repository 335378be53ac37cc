"""Composite systems of classical bits and anti-bits.

A system of m anti-bits and n bits (n >= m) lives in the full 2^(m+n) tensor
space but admits only a restricted set of pure states: superpositions of
computational basis states whose support fits a single pairing pattern.  The
pattern matches each anti-bit to a distinct bit (an injective matching),
offsets each matched bit by a fixed parity bit q, and freezes the unmatched
bits to constant values.  Anti-bit configurations may superpose freely within
one pattern; bits alone never superpose.

Slot order is part of the system signature: the mediation protocol uses
A1 B1 B2 ... B_{k+2} A2, with the middle bits B2..B_{k+1} playing the
mediator.  Index convention is statecore's row-major tensor order (first slot
most significant).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import product

import numpy as np

from .statecore import EPS, hermitian_basis, partial_trace, read_only, reduce_support, support_states, tensor
from .witness import LocalObservableSet, ProtocolTrace, run_protocol


@dataclass(frozen=True)
class SystemSignature:
    """Anti-bit/bit counts plus the assignment of tensor slots to labels."""

    m: int
    n: int
    ordering: tuple[str, ...]

    def __post_init__(self):
        if self.m < 0 or self.n < self.m:
            raise ValueError("bad-signature: need n >= m >= 0")
        expected = {f"A{i}" for i in range(1, self.m + 1)} | {f"B{i}" for i in range(1, self.n + 1)}
        if set(self.ordering) != expected or len(self.ordering) != self.m + self.n:
            raise ValueError("bad-signature: ordering must list each anti-bit and bit exactly once")

    @property
    def slots(self) -> int:
        return self.m + self.n

    @property
    def dim(self) -> int:
        return 1 << self.slots

    def slot_of(self, label: str) -> int:
        return self.ordering.index(label)

    def is_bit(self, label: str) -> bool:
        return label.startswith("B")


@dataclass(frozen=True)
class PairingCertificate:
    """Support pattern of an allowed state.

    ``pairing`` maps each anti-bit label to its matched bit label (injective);
    ``offsets`` gives the parity bit q of each match (bit value = anti-bit
    value xor q); ``tail`` freezes every unmatched bit.
    """

    pairing: tuple[tuple[str, str], ...]
    offsets: tuple[int, ...]
    tail: tuple[tuple[str, int], ...]


def validate_state(sig: SystemSignature, states, eps: float = EPS):
    """Search for a pairing certificate whose pattern contains a state's support.

    ``states`` is one vector, giving one (flag, certificate) pair, or a
    (states, 2^slots) stack, giving a list of them, one per row.  Support
    containment (not equality) defines validity, so sub-normalized basis
    states validate.  A certificate holds exactly when each matched anti-bit
    xor its bit, and each unmatched bit, is constant over the support; the
    offsets and the tail are then the values at the first support index.
    The search is deterministic: the first certificate in lexicographic
    matching order wins.  It alone runs row by row."""
    states = np.asarray(states, dtype=complex)
    if states.ndim not in (1, 2) or states.shape[-1] != sig.dim:
        raise ValueError("bad-partition: vector length does not match the signature")
    row, support = np.nonzero(np.abs(states.reshape(-1, sig.dim)) > eps)
    anti_labels = [f"A{i}" for i in range(1, sig.m + 1)]
    bit_labels = [f"B{i}" for i in range(1, sig.n + 1)]
    shifts = np.array([sig.slots - 1 - sig.slot_of(label) for label in anti_labels + bit_labels], dtype=np.int64)
    columns = (support[:, None] >> shifts) & 1
    starts = np.flatnonzero(np.diff(row, prepend=-1))  # where each row with a support begins
    varies = columns != np.repeat(columns[starts], np.diff(starts, append=len(row)), axis=0)
    anti_varies, bit_varies = varies[:, : sig.m], varies[:, sig.m :]
    # anti-bit a may pair with bit b when a xor b is constant over the row's support
    clash = np.logical_or.reduceat(anti_varies[:, :, None] ^ bit_varies[:, None, :], starts, axis=0)
    moves = np.logical_or.reduceat(bit_varies, starts, axis=0)
    results = [(False, None)] * (len(states) if states.ndim == 2 else 1)
    per_row = zip(row[starts].tolist(), columns[starts].tolist(), clash.tolist(), moves.tolist())
    for r, first, clashes, moving in per_row:
        # ascending candidate lists: product walks the matchings in lexicographic order
        for matched in product(*([b for b, c in enumerate(anti) if not c] for anti in clashes)):
            if len(set(matched)) == sig.m and not any(moving[b] for b in range(sig.n) if b not in matched):
                break
        else:
            continue
        offsets = tuple(first[a] ^ first[sig.m + b] for a, b in enumerate(matched))
        tail = tuple((bit_labels[b], first[sig.m + b]) for b in range(sig.n) if b not in matched)
        pairing = tuple((anti_labels[a], bit_labels[b]) for a, b in enumerate(matched))
        results[r] = (True, PairingCertificate(pairing, offsets, tail))
    return results if states.ndim == 2 else results[0]


def swap_bits(sig: SystemSignature, b1: str, b2: str, indices: np.ndarray) -> np.ndarray:
    """The basis indices ``indices`` with the slots of two bits exchanged.

    The swap moves the amplitude at each index to the returned one, so it
    maps a state's support to the new support with the same amplitudes.
    On ``np.arange(sig.dim)`` it gives the swap as a permutation ``perm``,
    and ``state[perm]`` applies it to a dense state: a swap is an
    involution, so the permutation is its own inverse.  Only bits may be
    swapped; the mediation protocol never moves anti-bits.
    """
    for label in (b1, b2):
        if label not in sig.ordering:
            raise ValueError(f"bad-signature: unknown slot {label!r}")
        if not sig.is_bit(label):
            raise ValueError(f"swap-on-antibit: {label!r} is an anti-bit")
    if b1 == b2:
        raise ValueError("bad-swap: swap slots must differ")
    bits = sig.slots
    p1 = bits - 1 - sig.slot_of(b1)
    p2 = bits - 1 - sig.slot_of(b2)
    differ = ((indices >> p1) ^ (indices >> p2)) & 1
    return indices ^ (differ << p1) ^ (differ << p2)


# ---------------------------------------------------------------------------
# the mediation protocol


@cache
def protocol_signature(mediator_bits: int = 2) -> SystemSignature:
    """(2, 2 + k) system ordered A1 B1 [B2 .. B_{k+1}] B_{k+2} A2, built once
    per process for each k."""
    if mediator_bits < 2:
        raise ValueError("bad-signature: need at least 2 mediator bits")
    k = mediator_bits
    ordering = ("A1", "B1") + tuple(f"B{i}" for i in range(2, k + 2)) + (f"B{k + 2}", "A2")
    return SystemSignature(2, k + 2, ordering)


def swap_chain(mediator_bits: int = 2) -> list[tuple[str, str]]:
    """Palindromic nearest-neighbour chain carrying B1 out to the far end."""
    k = mediator_bits
    up = [(f"B{i}", f"B{i + 1}") for i in range(1, k + 2)]
    return up + up[-2::-1]


def pair_flip_observable() -> np.ndarray:
    """|00><11| + |11><00| on one bit/anti-bit pair."""
    x = np.zeros((4, 4), dtype=complex)
    x[0, 3] = x[3, 0] = 1.0
    return x


@cache
def pair_observable_sets() -> tuple[LocalObservableSet, LocalObservableSet]:
    """Q1 and Q2 on the matter slots (A1, B1 | B_{k+2}, A2), the same for every
    k: the Hermitian basis h of one pair as h (x) 1 and 1 (x) h, built for the
    whole basis by one broadcast product with the entries of ``tensor``.  The
    stacks are read-only, so every run shares them."""
    basis = np.array(hermitian_basis(4))
    eye = np.eye(4)
    return (
        LocalObservableSet("Q1", (basis[:, :, None, :, None] * eye[:, None, :]).reshape(16, 16, 16)),
        LocalObservableSet("Q2", (eye[:, None, :, None] * basis[:, None, :, None, :]).reshape(16, 16, 16)),
    )


@cache
def _initial_support(mediator_bits: int) -> tuple[np.ndarray, np.ndarray]:
    """The protocol's initial state on its support, ``(indices, amplitudes)``:
    both pair qubits in the even superposition and the mediator bits zero.
    Built once per process for each k; read-only."""
    bell = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2.0)
    zeros = np.zeros(1 << mediator_bits, dtype=complex)
    zeros[0] = 1.0
    initial = tensor(bell, zeros, bell)
    support = np.flatnonzero(initial)
    return read_only(support, initial[support])


def run_bit_antibit_protocol(mediator_bits: int = 2, eps: float = EPS) -> ProtocolTrace:
    """Swap-mediated entanglement between the two bit/anti-bit pair qubits.

    Both pair qubits start in the even superposition (pairing parity q = 0)
    and the mediator bits in the all-zero state.  The palindromic swap chain
    ferries the matter bits through the mediator, and the mediator bits
    return to zero.  The final matter state is recorded on the slots
    (A1, B1, B_{k+2}, A2).  ``acceptance`` checks that every checkpoint stays
    inside the allowed state set, in one ``validate_state`` call on their stack.
    """
    sig = protocol_signature(mediator_bits)
    k = mediator_bits
    # a swap moves amplitudes between indices, so every checkpoint has these
    support, amplitudes = _initial_support(k)

    mediator_slots = [sig.slot_of(f"B{i}") for i in range(2, k + 2)]
    matter_slots = [sig.slot_of(s) for s in ("A1", "B1", f"B{k + 2}", "A2")]

    def swap(b1: str, b2: str):
        return f"swap({b1},{b2})", lambda indices: swap_bits(sig, b1, b2, indices)

    def reduce(supports: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        indices = np.stack(supports)
        amps = np.broadcast_to(amplitudes, indices.shape)
        return (
            support_states(indices, amps, sig.slots),
            reduce_support(indices, amps, sig.slots, mediator_slots),
            reduce_support(indices, amps, sig.slots, matter_slots),
        )

    return run_protocol(
        "bitantibit",
        support,
        (swap(b1, b2) for b1, b2 in swap_chain(k)),
        reduce,
        lambda matter: (partial_trace(matter, [4, 4], [0]), partial_trace(matter, [4, 4], [1])),
        pair_observable_sets(),
        eps=eps,
    )
