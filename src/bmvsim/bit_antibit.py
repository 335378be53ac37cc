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
from itertools import permutations

import numpy as np

from .statecore import EPS, hermitian_basis, partial_trace, reduce_pure, tensor
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

    def slot_values(self, index: int) -> dict[str, int]:
        """Computational values of every slot for one basis index."""
        bits = self.slots
        return {label: (index >> (bits - 1 - pos)) & 1 for pos, label in enumerate(self.ordering)}


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

    def admits(self, values: dict[str, int]) -> bool:
        for (anti, bit), q in zip(self.pairing, self.offsets):
            if values[bit] != values[anti] ^ q:
                return False
        return all(values[bit] == v for bit, v in self.tail)


def validate_state(sig: SystemSignature, vec: np.ndarray, eps: float = EPS) -> tuple[bool, PairingCertificate | None]:
    """Search for a pairing certificate whose pattern contains the support.

    Support containment (not equality) defines validity, so sub-normalized
    basis states validate.  The search is exhaustive over injective matchings
    (trivial for m <= 3) and deterministic: the first certificate in
    lexicographic matching order wins.
    """
    vec = np.asarray(vec, dtype=complex).reshape(-1)
    if vec.shape != (sig.dim,):
        raise ValueError("bad-partition: vector length does not match the signature")
    support = [sig.slot_values(int(i)) for i in np.nonzero(np.abs(vec) > eps)[0]]
    if not support:
        return False, None
    anti_labels = [f"A{i}" for i in range(1, sig.m + 1)]
    bit_labels = [f"B{i}" for i in range(1, sig.n + 1)]
    first = support[0]
    for matched in permutations(bit_labels, sig.m):
        offsets = tuple(int(first[bit] ^ first[anti]) for anti, bit in zip(anti_labels, matched))
        tail = tuple((bit, int(first[bit])) for bit in bit_labels if bit not in matched)
        cert = PairingCertificate(tuple(zip(anti_labels, matched)), offsets, tail)
        if all(cert.admits(values) for values in support):
            return True, cert
    return False, None


def swap_bits(sig: SystemSignature, b1: str, b2: str) -> np.ndarray:
    """Basis-index permutation exchanging the slots of two bits.

    ``state[swap_bits(sig, b1, b2)]`` applies the swap; a swap is an
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
    idx = np.arange(sig.dim)
    differ = ((idx >> p1) ^ (idx >> p2)) & 1
    return idx ^ (differ << p1) ^ (differ << p2)


# ---------------------------------------------------------------------------
# the mediation protocol


def protocol_signature(mediator_bits: int = 2) -> SystemSignature:
    """(2, 2 + k) system ordered A1 B1 [B2 .. B_{k+1}] B_{k+2} A2."""
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


def tensor_product_composition(a_embedded: np.ndarray, b_embedded: np.ndarray) -> np.ndarray:
    """Joint observable of one pair observable per side.

    This theory composes subsystems by the ordinary tensor product, and for
    embedded operators of the form a (x) 1 and 1 (x) b the matrix product is
    exactly the tensor composition a (x) b (the tests pin this reduction).
    """
    return a_embedded @ b_embedded


def run_bit_antibit_protocol(mediator_bits: int = 2, eps: float = EPS) -> ProtocolTrace:
    """Swap-mediated entanglement between the two bit/anti-bit pair qubits.

    Both pair qubits start in the even superposition (pairing parity q = 0)
    and the mediator bits in the all-zero state.  The palindromic swap chain
    ferries the matter bits through the mediator; every intermediate state
    stays inside the allowed state set, and the mediator bits return to zero.
    The final matter state is recorded on the slots (A1, B1, B_{k+2}, A2).
    """
    sig = protocol_signature(mediator_bits)
    k = mediator_bits
    bell = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2.0)
    zeros = np.zeros(1 << k, dtype=complex)
    zeros[0] = 1.0

    dims = [2] * sig.slots
    mediator_slots = [sig.slot_of(f"B{i}") for i in range(2, k + 2)]
    matter_slots = [sig.slot_of(s) for s in ("A1", "B1", f"B{k + 2}", "A2")]

    def swap(b1: str, b2: str):
        return f"swap({b1},{b2})", lambda state: state[swap_bits(sig, b1, b2)]

    def reduce(state: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return reduce_pure(state, dims, mediator_slots), reduce_pure(state, dims, matter_slots)

    x_pair = pair_flip_observable()
    eye = np.eye(4)
    trace = run_protocol(
        "bitantibit",
        tensor(bell, zeros, bell),
        (swap(b1, b2) for b1, b2 in swap_chain(k)),
        reduce,
        lambda matter: (partial_trace(matter, [4, 4], [0]), partial_trace(matter, [4, 4], [1])),
        (x_pair, tensor(x_pair, eye), tensor(eye, x_pair)),
        (
            LocalObservableSet("Q1", tuple(tensor(h, eye) for h in hermitian_basis(4))),
            LocalObservableSet("Q2", tuple(tensor(eye, h) for h in hermitian_basis(4))),
        ),
        product=tensor_product_composition,
        eps=eps,
    )
    validities = [validate_state(sig, step.state, eps) for step in trace.steps]
    trace.summary["mediator_bits"] = k
    trace.summary["validities"] = [flag for flag, _ in validities]
    trace.summary["certificates"] = [cert for _, cert in validities]
    return trace
