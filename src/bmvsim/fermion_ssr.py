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
order independent (covered by the test suite).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice, product

import numpy as np

from .statecore import EPS, dagger, dyad, mat_close
from .witness import LocalObservableSet, ProtocolStep, ProtocolTrace, purity, uncorrelated_test

#: word entry: (mode index, is_creation)
WordAtom = tuple[int, bool]
Word = tuple[WordAtom, ...]

# Tolerance for linear-independence decisions while enumerating observables.
# A candidate is kept iff its component orthogonal to the earlier kept ones
# has norm above this.  Candidates are integer-entried matrices, so the
# residuals split far apart: over every enumeration the package runs (full
# registers k = 1..5 and the protocol subsets) the smallest kept residual is
# 0.177 (k = 5) and the largest rejected one 6.3e-16 (1.1e-16 in the blocked
# sweep below).
_RANK_TOL = 1e-8

# Tolerance of the Hermiticity test on candidate words.  Word matrices have
# entries in {0, +1, -1}, so m and m^dag are either equal or differ by at
# least 1 in some entry; any threshold in (0, 1) decides exactly.
_HERMITIAN_TOL = 1e-12

# Candidates projected together, with matrix-matrix products, against the
# kept rows in the independence sweep: about 32 words, as most words give two
# candidates.  On a 2-vCPU Xeon with OpenBLAS, blocks of 32 to 64 run the
# k = 5 count equally fast and 128 a third slower.
_SWEEP_BLOCK = 64


# ---------------------------------------------------------------------------
# basis bookkeeping


def occupations(index: int, n: int) -> tuple[int, ...]:
    """Occupation bits (s_1, ..., s_n) of a basis index, mode 1 first."""
    return tuple((index >> (n - j)) & 1 for j in range(1, n + 1))


def basis_index(occ) -> int:
    occ = tuple(occ)
    n = len(occ)
    return sum(s << (n - j) for j, s in enumerate(occ, start=1))


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


def annihilator_matrix(n: int, j: int) -> np.ndarray:
    """Matrix of the annihilator of mode j on n modes.

    Sends |..s_j=1..> to (-1)^(s_1+...+s_{j-1}) |..s_j=0..> and kills states
    with s_j = 0.  Satisfies c_j^2 = 0 and the canonical anticommutators as
    exact matrix identities.
    """
    if not 1 <= j <= n:
        raise ValueError(f"bad-mode: mode {j} outside 1..{n}")
    dim = 1 << n
    bit = 1 << (n - j)
    idx = np.arange(dim)
    occupied = idx[(idx & bit) != 0]
    m = np.zeros((dim, dim), dtype=complex)
    m[occupied ^ bit, occupied] = _parity_signs(occupied >> (n - j + 1))
    return m


def creator_matrix(n: int, j: int) -> np.ndarray:
    return dagger(annihilator_matrix(n, j))


def word_matrix(n: int, word) -> np.ndarray:
    """Matrix of an operator word, leftmost factor applied last (operator order)."""
    m = np.eye(1 << n, dtype=complex)
    for mode, creation in word:
        factor = creator_matrix(n, mode) if creation else annihilator_matrix(n, mode)
        m = m @ factor
    return m


# ---------------------------------------------------------------------------
# symbolic monomials (independent normal-ordering oracle)


@dataclass(frozen=True)
class FermionMonomial:
    """A coefficient times an ordered word of creators/annihilators.

    Normal ordering rewrites the word, via the anticommutation relations,
    into the canonical form "creators ascending by mode, then annihilators
    descending by mode"; repeated operators annihilate the monomial.
    """

    coefficient: complex
    word: Word

    @property
    def parity(self) -> int:
        return len(self.word) % 2

    def normal_ordered(self) -> tuple["FermionMonomial", ...]:
        terms: dict[Word, complex] = {}
        stack: list[tuple[complex, Word]] = [(complex(self.coefficient), tuple(self.word))]
        while stack:
            coeff, word = stack.pop()
            action = None
            for i in range(len(word) - 1):
                (m1, d1), (m2, d2) = word[i], word[i + 1]
                if (not d1) and d2:
                    action = ("contract", i)
                    break
                if d1 == d2 and m1 == m2:
                    action = ("zero", i)
                    break
                if d1 and d2 and m1 > m2:
                    action = ("swap", i)
                    break
                if (not d1) and (not d2) and m1 < m2:
                    action = ("swap", i)
                    break
            if action is None:
                terms[word] = terms.get(word, 0.0) + coeff
                continue
            kind, i = action
            if kind == "zero":
                continue
            swapped = word[:i] + (word[i + 1], word[i]) + word[i + 2 :]
            stack.append((-coeff, swapped))
            if kind == "contract" and word[i][0] == word[i + 1][0]:
                stack.append((coeff, word[:i] + word[i + 2 :]))
        out = [FermionMonomial(c, w) for w, c in sorted(terms.items()) if abs(c) > 1e-14]
        return tuple(out)

    def matrix(self, n: int) -> np.ndarray:
        return self.coefficient * word_matrix(n, self.word)


def apply_monomials_to_vacuum(n: int, monomials) -> np.ndarray:
    """State vector of (sum of normal-ordered monomials)|vac>."""
    state = np.zeros(1 << n, dtype=complex)
    for mono in monomials:
        for term in mono.normal_ordered():
            if any(not creation for _, creation in term.word):
                continue
            modes = [mode for mode, _ in term.word]
            occ = [0] * n
            for mode in modes:
                occ[mode - 1] = 1
            state[basis_index(occ)] += term.coefficient
    return state


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


def _hermitized(n: int, words):
    """Candidate observables: each word m if Hermitian, else m + m^dag and i(m - m^dag)."""
    for word in words:
        m = word_matrix(n, word)
        m_dag = dagger(m)
        if mat_close(m, m_dag, _HERMITIAN_TOL):
            yield m
        else:
            yield m + m_dag
            yield 1j * (m - m_dag)


def _independent_subset(candidates, max_rank: int) -> list[np.ndarray]:
    """The candidates, in order, that are independent of the earlier kept ones.

    Blocked classical Gram-Schmidt with one re-orthogonalisation pass: each
    block of _SWEEP_BLOCK candidates is projected twice against the kept
    orthonormal rows with matrix-matrix products, then its candidates are
    accepted one at a time, each projected twice against the rows kept
    earlier in the same block.  ``max_rank`` bounds the number kept.
    """
    kept: list[np.ndarray] = []
    ortho = None
    rank = 0
    candidates = iter(candidates)
    while block := list(islice(candidates, _SWEEP_BLOCK)):
        rows = np.array([m.reshape(-1) for m in block], dtype=complex)
        if ortho is None:
            # rows never written are never touched, so cost no memory
            ortho = np.empty((max_rank, rows.shape[1]), dtype=complex)
        done = ortho[:rank]
        for _ in range(2):
            rows -= (rows.conj() @ done.T).conj() @ done
        start = rank
        for m, v in zip(block, rows):
            new = ortho[start:rank]
            for _ in range(2):
                v -= (v.conj() @ new.T).conj() @ new
            norm = np.linalg.norm(v)
            if norm > _RANK_TOL:
                ortho[rank] = v / norm
                rank += 1
                kept.append(m)
    return kept


def enumerate_physical_observables(n: int, modes) -> FermionObservableBasis:
    """Independent Hermitian parity-even observables supported on ``modes``.

    The candidates are the even monomials in the subset's creators and
    annihilators, Hermitized as m + m^dag and i(m - m^dag).  A deterministic
    sweep keeps, in candidate order, each candidate whose component
    orthogonal to the span of the earlier kept ones has norm above
    _RANK_TOL.  The sweep is a blocked Gram-Schmidt: candidates are built
    and projected a block at a time with matrix products, so rejected ones
    are freed as it goes.  For a full k-mode subset the count is 2^(2k-1).
    """
    modes = tuple(sorted(set(int(m) for m in modes)))
    if not modes:
        raise ValueError("bad-mode: subset must be nonempty")
    if modes[0] < 1 or modes[-1] > n:
        raise ValueError(f"bad-mode: subset {modes} outside 1..{n}")

    words = list(_even_words(modes))
    max_rank = min(2 * len(words), 1 << (2 * n))
    kept = _independent_subset(_hermitized(n, words), max_rank)
    return FermionObservableBasis(n, modes, tuple(kept))


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


def is_parity_even(m: np.ndarray, n: int, eps: float = EPS) -> bool:
    p = parity_matrix(n)
    return mat_close(p @ m @ p, m, eps * max(1.0, float(np.max(np.abs(m)))))


# ---------------------------------------------------------------------------
# fermionic partial trace


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
    signs = np.where(occ == 1, _parity_signs(idx & low_mask), 1.0)
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


def _inversion_sign(seq) -> int:
    sign = 1
    seq = list(seq)
    for i in range(len(seq)):
        for k in range(i + 1, len(seq)):
            if seq[i] > seq[k]:
                sign = -sign
    return sign


def fermionic_swap(n: int, i: int, j: int) -> np.ndarray:
    """Unitary exchanging modes i and j, fixing the vacuum.

    Built on basis states: exchange the occupations s_i <-> s_j and multiply
    by the reordering sign of the permuted creation word (computed by explicit
    normal ordering rather than a closed-form sign string).
    """
    if i == j:
        raise ValueError("bad-swap: swap modes must differ")
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"bad-mode: swap modes outside 1..{n}")
    dim = 1 << n
    s = np.zeros((dim, dim), dtype=complex)
    swap = {i: j, j: i}
    for idx in range(dim):
        occ = occupations(idx, n)
        word = [swap.get(mode, mode) for mode in range(1, n + 1) if occ[mode - 1]]
        new_occ = [0] * n
        for mode in word:
            new_occ[mode - 1] = 1
        s[basis_index(new_occ), idx] = _inversion_sign(word)
    return s


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

    def checkpoint(label: str, state: np.ndarray) -> ProtocolStep:
        rho = dyad(state)
        mediator = fermionic_partial_trace_modes(rho, n, (1, 2, 4, 5))
        matter = fermionic_partial_trace(rho, n, 3)
        return ProtocolStep(label, state, mediator, matter)

    steps = [checkpoint("initial", psi)]
    for label, (a, b) in (("swap(2,3)", (2, 3)), ("swap(3,4)", (3, 4)), ("swap(2,3)", (2, 3))):
        psi = fermionic_swap(n, a, b) @ psi
        steps.append(checkpoint(label, psi))

    matter_final = steps[-1].matter
    rho_q1 = fermionic_partial_trace_modes(matter_final, 4, (3, 4))
    rho_q2 = fermionic_partial_trace_modes(matter_final, 4, (1, 2))
    x1 = hopping_observable(4, 1, 2)
    x2 = hopping_observable(4, 3, 4)
    x_local = hopping_observable(2, 1, 2)

    obs_q1 = LocalObservableSet("Q1", enumerate_physical_observables(4, (1, 2)).matrices)
    obs_q2 = LocalObservableSet("Q2", enumerate_physical_observables(4, (3, 4)).matrices)
    report = uncorrelated_test(matter_final, obs_q1, obs_q2, eps=eps)

    summary = {
        "mediator_sequence": [step.mediator for step in steps],
        "rho_q1": rho_q1,
        "rho_q2": rho_q2,
        "x1_expect": float(np.real(np.trace(x_local @ rho_q1))),
        "x2_expect": float(np.real(np.trace(x_local @ rho_q2))),
        "x1x2_expect": float(np.real(np.trace(x1 @ x2 @ matter_final))),
        "matter_purity": purity(matter_final, eps),
        "initial_report": uncorrelated_test(steps[0].matter, obs_q1, obs_q2, eps=eps),
    }
    return ProtocolTrace("fermion", steps, report, summary)
