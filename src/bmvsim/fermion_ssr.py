"""Parity-superselected fermionic Fock space for n spinless modes.

Basis and sign conventions
--------------------------
Basis states are mode-ordered creation words on the vacuum,

    |s_1 ... s_n>  =  (c_1^dag)^{s_1} ... (c_n^dag)^{s_n} |vac>,

indexed by  sum_j s_j * 2^(n-j),  so mode 1 is the most significant bit and
the vacuum has index 0.  With this ordering the annihilator of mode j carries
the sign string (-1)^(s_1 + ... + s_{j-1}) over the lower-indexed modes; that
is the unique matrix representation consistent with the anticommutation
relations and c_j|vac> = 0.

The parity superselection rule admits as physical observables only the
Hermitian operators whose every monomial in creators/annihilators has even
degree.  For a full k-mode register the space of such observables has real
dimension 2^(2k-1), half of the unconstrained 2^(2k).

Discarding a mode uses the fermionic partial trace: a dyad
|s_1..s_n><r_1..r_n| survives the trace of mode j only when s_j == r_j, picks
up the reordering sign (-1)^(sum_{k>j} s_j s_k + r_j r_k), and drops slot j.
Tracing several modes is performed highest index first so no re-indexing of
the remaining trace targets is needed; on parity-even operators the result is
order independent (covered by the test suite).  The sign is a product of a
ket sign and a bra sign, and ``_trace_signs`` gives that sign for every basis
index; it is the one place the rule is written.  The protocol uses the
pure-state form of the trace, ``statecore.reduce_pure`` of the state vector
times those signs, and forms no dyad.  Its swap gates are signed basis-index
permutations applied to the state vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .statecore import EPS, dagger, reduce_pure
from .witness import LocalObservableSet, ProtocolTrace, run_protocol

# Tolerance for linear-independence decisions while enumerating observables.
# A candidate is kept iff its component orthogonal to the earlier kept ones
# has norm above this.  Candidates are integer-entried matrices, so the
# residuals split far apart: over every enumeration the package runs (full
# registers k = 1..5 and the protocol subsets) the offset-split sweep keeps
# residuals of 0.177 (k = 5) and up, and rejects residuals of 3.9e-17 and
# below.
_RANK_TOL = 1e-8

# Candidates projected together, with matrix-matrix products, against the
# kept rows in the sweep of one offset class.  At k <= 5 no class has more than
# 64 candidates, so each class is one block; on a 2-vCPU Xeon blocks of 16, 64
# and 128 run the k = 1..5 counts equally fast, within noise.
_SWEEP_BLOCK = 64


# ---------------------------------------------------------------------------
# basis bookkeeping


def vacuum_state(n: int) -> np.ndarray:
    v = np.zeros(1 << n, dtype=complex)
    v[0] = 1.0
    return v


# (-1)^(number of set bits) of every byte value.
_BYTE_SIGNS = np.array([(-1.0) ** bin(b).count("1") for b in range(256)])


def _parity_signs(values: np.ndarray) -> np.ndarray:
    """(-1)^(number of set bits) of each nonnegative integer, byte by byte."""
    signs = _BYTE_SIGNS[values & 0xFF]
    values = values >> 8
    while values.any():
        signs = signs * _BYTE_SIGNS[values & 0xFF]
        values = values >> 8
    return signs


def _word_actions(n: int, words) -> tuple[np.ndarray, np.ndarray]:
    """Operator words as ``(offsets, values)``: word w maps |s> to
    values[w, s] |s ^ offsets[w]>.

    The factors act rightmost first, on all words together, and each flips
    its mode's bit: a creator needs the mode empty, an annihilator needs it
    occupied, and both carry the sign (-1)^(occupied modes before theirs).
    The signs multiply, so the occupations they count are XORed and their
    parity taken once.  Shorter words are padded on the left with bit 0.
    """
    # (bit, its required value, mask of the modes before) per factor, rightmost first
    slots = np.zeros((max(map(len, words), default=0), 3, len(words), 1), dtype=np.int64)
    for w, word in enumerate(words):
        for p, (mode, creation) in enumerate(reversed(word)):
            if not 1 <= mode <= n:
                raise ValueError(f"bad-mode: mode {mode} outside 1..{n}")
            bit = 1 << (n - mode)
            slots[p, :, w, 0] = bit, 0 if creation else bit, (1 << n) - 2 * bit
    idx = np.arange(1 << n)
    offsets = np.zeros((len(words), 1), dtype=np.int64)
    counted = np.zeros((len(words), 1 << n), dtype=np.int64)
    alive = np.ones((len(words), 1 << n), dtype=bool)
    for bit, need, before in slots:
        current = idx ^ offsets
        alive &= (current & bit) == need
        counted ^= current & before
        offsets ^= bit
    return offsets[:, 0], np.where(alive, _parity_signs(counted), 0.0)


def _scatter(n: int, offsets: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Matrices w with values[w, s] at (s ^ offsets[w], s) and zeros elsewhere."""
    idx = np.arange(1 << n)
    m = np.zeros((len(values), 1 << n, 1 << n), dtype=complex)
    m[np.arange(len(values))[:, None], idx ^ offsets[:, None], idx] = values
    return m


def word_matrix(n: int, word) -> np.ndarray:
    """Matrix of an operator word, leftmost factor applied last (operator order)."""
    return _scatter(n, *_word_actions(n, (word,)))[0]


def annihilator_matrix(n: int, j: int) -> np.ndarray:
    """Matrix of the annihilator of mode j on n modes.

    Sends |..s_j=1..> to (-1)^(s_1+...+s_{j-1}) |..s_j=0..> and kills states
    with s_j = 0.  Satisfies c_j^2 = 0 and the canonical anticommutators as
    exact matrix identities.
    """
    return word_matrix(n, ((j, False),))


def creator_matrix(n: int, j: int) -> np.ndarray:
    return dagger(annihilator_matrix(n, j))


# ---------------------------------------------------------------------------
# physical (parity-even) observables


@dataclass(frozen=True)
class FermionObservableBasis:
    """Maximal independent set of parity-even Hermitian observables on a mode subset."""

    n_modes: int
    modes: tuple[int, ...]
    matrices: tuple[np.ndarray, ...]

    def __len__(self) -> int:
        return len(self.matrices)


def _even_words(modes: tuple[int, ...]):
    """Normal-ordered even-degree words built from the given modes.

    Per mode the factor is one of {1, c^dag, c, c^dag c}; the word lists all
    creators ascending, then all annihilators descending.
    """
    options = ((False, False), (True, False), (False, True), (True, True))
    for choice in product(options, repeat=len(modes)):
        dag_modes = [m for m, (d, _) in zip(modes, choice) if d]
        ann_modes = [m for m, (_, a) in zip(modes, choice) if a]
        if (len(dag_modes) + len(ann_modes)) % 2:
            continue
        yield tuple((m, True) for m in dag_modes) + tuple((m, False) for m in reversed(ann_modes))


def _independent_subset(rows: np.ndarray) -> list[int]:
    """Indices of the rows, in order, that are independent of the earlier kept ones.

    Blocked classical Gram-Schmidt with one re-orthogonalisation pass: each
    block of _SWEEP_BLOCK rows is projected twice against the kept
    orthonormal rows with matrix-matrix products, then its rows are accepted
    one at a time, each projected twice against the rows kept earlier in the
    same block.
    """
    kept: list[int] = []
    ortho = np.empty((min(rows.shape), rows.shape[1]), dtype=complex)
    rank = 0
    for start in range(0, len(rows), _SWEEP_BLOCK):
        block = np.array(rows[start : start + _SWEEP_BLOCK], dtype=complex)
        done = ortho[:rank]
        for _ in range(2):
            block -= (block @ done.conj().T) @ done
        first = rank
        for index, v in enumerate(block, start):
            new = ortho[first:rank]
            for _ in range(2):
                v -= (new.conj() @ v) @ new
            norm = np.vdot(v, v).real ** 0.5
            if norm > _RANK_TOL:
                ortho[rank] = v / norm
                rank += 1
                kept.append(index)
                if rank == len(ortho):
                    return kept  # the kept rows span every row; the rest are dependent
    return kept


def enumerate_physical_observables(n: int, modes) -> FermionObservableBasis:
    """Independent Hermitian parity-even observables supported on ``modes``.

    The candidates are the even monomials in the subset's creators and
    annihilators, Hermitized as m + m^dag and i(m - m^dag).  A deterministic
    sweep keeps, in candidate order, each candidate whose component
    orthogonal to the span of the earlier kept ones has norm above
    _RANK_TOL.  For a full k-mode subset the count is 2^(2k-1).

    The sweep is split by offset.  A normal-ordered word c^dag_A c_B has all
    its entries at (s ^ d, s), d the bit mask of the modes in exactly one of
    A and B, and so do its Hermitized candidates.  Matrices of different
    offsets are Frobenius-orthogonal, so a candidate's residual against the
    earlier kept ones is its residual against those of its own offset: the
    sweep runs once per offset on rows of length 2^n, the values on the
    offset, with the same decisions, and only kept candidates become matrices.
    """
    modes = tuple(sorted(set(int(m) for m in modes)))
    if not modes:
        raise ValueError("bad-mode: subset must be nonempty")
    if modes[0] < 1 or modes[-1] > n:
        raise ValueError(f"bad-mode: subset {modes} outside 1..{n}")

    words = list(_even_words(modes))
    offsets, values = _word_actions(n, words)
    m = values.astype(complex)
    # m^dag maps |s ^ d> to conj(m[s]) |s>: on the offset d its values are conj(m[s ^ d])
    m_dag = np.take_along_axis(m, np.arange(1 << n) ^ offsets[:, None], axis=1).conj()
    hermitian = offsets == 0  # c^dag_A c_A; other words give m + m^dag and i(m - m^dag)
    rows = np.stack((np.where(hermitian[:, None], m, m + m_dag), 1j * (m - m_dag)), axis=1)
    present = np.stack((np.ones_like(hermitian), ~hermitian), axis=1).reshape(-1)
    rows, offsets = rows.reshape(-1, 1 << n)[present], np.repeat(offsets, 2)[present]
    kept = []
    for offset in np.unique(offsets):
        positions = np.flatnonzero(offsets == offset)
        kept += positions[_independent_subset(rows[positions])].tolist()
    kept.sort()
    return FermionObservableBasis(n, modes, tuple(_scatter(n, offsets[kept], rows[kept])))


def count_scaling_check(k_max: int) -> list[tuple[int, int, int, bool]]:
    """Rows (k, observable count, 2^(2k-1), match) for full registers k=1..k_max."""
    if k_max > 5:
        raise ValueError("bad-mode: k_max above 5 is out of scope")
    rows = []
    for k in range(1, k_max + 1):
        count = len(enumerate_physical_observables(k, range(1, k + 1)))
        expected = 1 << (2 * k - 1)
        rows.append((k, count, expected, count == expected))
    return rows


def parity_matrix(n: int) -> np.ndarray:
    """(-1)^(total occupation), the superselection grading operator."""
    return np.diag(_parity_signs(np.arange(1 << n)).astype(complex))


# ---------------------------------------------------------------------------
# fermionic partial trace


def _trace_signs(n: int, traced) -> np.ndarray:
    """Reordering sign of every basis ket when the ``traced`` modes are
    discarded highest index first: dropping mode j multiplies by
    (-1)^(s_j * number of occupied modes above j that are still present)."""
    traced = set(int(j) for j in traced)
    idx = np.arange(1 << n)
    signs = np.ones(1 << n)
    for j in traced:
        later = sum(1 << (n - k) for k in range(j + 1, n + 1) if k not in traced)
        signs *= np.where((idx >> (n - j)) & 1, _parity_signs(idx & later), 1.0)
    return signs


def fermionic_partial_trace(m: np.ndarray, n: int, traced_mode: int) -> np.ndarray:
    """Discard one fermionic mode of an n-mode operator.

    Dyads with s_j != r_j vanish; surviving dyads acquire the sign
    (-1)^(sum_{k>j} (s_j s_k + r_j r_k)) and lose slot j.  The trace of the
    result equals the trace of the input.
    """
    j = int(traced_mode)
    if not 1 <= j <= n:
        raise ValueError(f"bad-mode: mode {j} outside 1..{n}")
    dim = 1 << n
    m = np.asarray(m, dtype=complex)
    if m.shape != (dim, dim):
        raise ValueError("bad-partition: operator dimension does not match mode count")
    low_bits = n - j
    low_mask = (1 << low_bits) - 1
    idx = np.arange(dim)
    occ = (idx >> low_bits) & 1
    signs = _trace_signs(n, (j,))
    dropped = ((idx >> (low_bits + 1)) << low_bits) | (idx & low_mask)
    out = np.zeros((dim // 2, dim // 2), dtype=complex)
    for b in (0, 1):
        sel = np.where(occ == b)[0]
        block = m[np.ix_(sel, sel)] * np.outer(signs[sel], signs[sel])
        out[np.ix_(dropped[sel], dropped[sel])] += block
    return out


def fermionic_partial_trace_modes(m: np.ndarray, n: int, modes) -> np.ndarray:
    """Discard several modes, highest index first (the fixed iteration order)."""
    remaining = n
    out = np.asarray(m, dtype=complex)
    for j in sorted(set(int(x) for x in modes), reverse=True):
        out = fermionic_partial_trace(out, remaining, j)
        remaining -= 1
    return out


# ---------------------------------------------------------------------------
# fermionic swap gates


def fermionic_swap(n: int, i: int, j: int) -> tuple[np.ndarray, np.ndarray]:
    """Unitary exchanging modes i and j, fixing the vacuum, as a signed basis
    permutation ``(perm, signs)``: ``signs * state[perm]`` applies it.

    ``perm`` exchanges the occupations s_i and s_j; the sign is that of
    reordering the permuted creation word: -1 when both modes are occupied,
    (-1)^(occupied modes strictly between i and j) when exactly one is, and +1
    when neither is.  The gate is an involution: ``perm[perm]`` is the
    identity and ``signs[perm] == signs``.
    """
    if i == j:
        raise ValueError("bad-swap: swap modes must differ")
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"bad-mode: swap modes outside 1..{n}")
    high, low = n - min(i, j), n - max(i, j)  # bit positions of the two modes
    idx = np.arange(1 << n)
    both = (idx >> high) & (idx >> low) & 1
    differ = ((idx >> high) ^ (idx >> low)) & 1
    between = ((1 << high) - 1) ^ ((2 << low) - 1)
    signs = np.where(both, -1.0, np.where(differ, _parity_signs(idx & between), 1.0))
    return idx ^ (differ << high) ^ (differ << low), signs


# ---------------------------------------------------------------------------
# the five-mode mediation protocol


def hopping_observable(n: int, i: int, j: int) -> np.ndarray:
    """c_i^dag c_j + c_j^dag c_i, the embedded Pauli-x analogue of a mode pair."""
    return word_matrix(n, ((i, True), (j, False))) + word_matrix(n, ((j, True), (i, False)))


def run_fermion_protocol(eps: float = EPS) -> ProtocolTrace:
    """Mediate entanglement between two mode-pair qubits via one middle mode.

    Five modes: the pair (1, 2) is the first qubit, mode 3 the mediator, the
    pair (4, 5) the second qubit.  The initial state places both qubits in
    the even superposition and the mediator in its occupied state; the
    protocol applies the swaps (2,3), (3,4), (2,3).  Each step records the
    full state, the mediator reduction (trace of modes 1, 2, 4, 5), and the
    matter reduction (trace of mode 3, re-indexed onto 4 modes).
    """
    n = 5
    c = {j: creator_matrix(n, j) for j in range(1, 6)}
    psi = 0.5 * ((c[1] + c[2]) @ c[3] @ (c[4] + c[5]) @ vacuum_state(n))
    dims = [2] * n
    mediator_signs = _trace_signs(n, (1, 2, 4, 5))
    matter_signs = _trace_signs(n, (3,))

    def reduce(state: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return reduce_pure(mediator_signs * state, dims, [2]), reduce_pure(matter_signs * state, dims, [0, 1, 3, 4])

    def swap(a: int, b: int):
        def gate(state: np.ndarray) -> np.ndarray:
            perm, signs = fermionic_swap(n, a, b)
            # (-1) * 0.0 is -0.0, which reports print as "-0.0"; adding 0.0
            # keeps every zero amplitude +0.0
            return signs * state[perm] + 0.0

        return f"swap({a},{b})", gate

    return run_protocol(
        "fermion",
        psi,
        (swap(a, b) for a, b in ((2, 3), (3, 4), (2, 3))),
        reduce,
        lambda matter: (
            fermionic_partial_trace_modes(matter, 4, (3, 4)),
            fermionic_partial_trace_modes(matter, 4, (1, 2)),
        ),
        (hopping_observable(2, 1, 2), hopping_observable(4, 1, 2), hopping_observable(4, 3, 4)),
        (
            LocalObservableSet("Q1", enumerate_physical_observables(4, (1, 2)).matrices),
            LocalObservableSet("Q2", enumerate_physical_observables(4, (3, 4)).matrices),
        ),
        eps=eps,
    )
