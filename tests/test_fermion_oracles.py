"""Reference code for the fermionic kernels: the fast kernels are checked
against it here, and the symbolic normal-ordering oracle and the swap
matrices are shared with test_fermion_ssr."""

from dataclasses import dataclass
from functools import cache
from itertools import combinations, product

import numpy as np
import pytest

from bmvsim.fermion_ssr import (
    _RANK_TOL,
    _SWEEP_BLOCK,
    _even_words,
    _independent_subset,
    _parity_signs,
    _trace_signs,
    annihilator_matrix,
    creator_matrix,
    enumerate_physical_observables,
    fermionic_partial_trace,
    fermionic_partial_trace_modes,
    fermionic_swap,
    run_fermion_protocol,
    vacuum_state,
    word_matrix,
)
from bmvsim.statecore import dagger, dyad, mat_close, random_state, reduce_pure

#: word entry: (mode index, is_creation)
WordAtom = tuple[int, bool]
Word = tuple[WordAtom, ...]


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


def occupations(index: int, n: int) -> tuple[int, ...]:
    """Occupation bits (s_1, ..., s_n) of a basis index, mode 1 first."""
    return tuple((index >> (n - j)) & 1 for j in range(1, n + 1))


def basis_index(occ) -> int:
    occ = tuple(occ)
    n = len(occ)
    return sum(s << (n - j) for j, s in enumerate(occ, start=1))


def inversion_sign(seq) -> int:
    sign = 1
    seq = list(seq)
    for i in range(len(seq)):
        for k in range(i + 1, len(seq)):
            if seq[i] > seq[k]:
                sign = -sign
    return sign


def reference_swap(n: int, i: int, j: int) -> np.ndarray:
    """Dense swap of modes i and j: exchange the occupations and multiply by
    the reordering sign of the permuted creation word, by explicit normal
    ordering."""
    dim = 1 << n
    s = np.zeros((dim, dim), dtype=complex)
    swap = {i: j, j: i}
    for idx in range(dim):
        occ = occupations(idx, n)
        word = [swap.get(mode, mode) for mode in range(1, n + 1) if occ[mode - 1]]
        new_occ = [0] * n
        for mode in word:
            new_occ[mode - 1] = 1
        s[basis_index(new_occ), idx] = inversion_sign(word)
    return s


def swap_matrix(n: int, i: int, j: int) -> np.ndarray:
    """The matrix of ``fermionic_swap``'s signed permutation: row r holds
    signs[r] in column perm[r], so it maps a state to signs * state[perm]."""
    perm, signs = fermionic_swap(n, i, j)
    m = np.zeros((1 << n, 1 << n), dtype=complex)
    m[np.arange(1 << n), perm] = signs
    return m


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


# (n, modes) of every enumeration the package runs: full registers for the
# tomography count, and the subsets of the protocol and the acceptance suite;
# then subsets with gaps, on six modes, that the package does not run.
ENUMERATIONS = [(k, tuple(range(1, k + 1))) for k in range(1, 6)] + [
    (4, (1, 2)),
    (4, (3, 4)),
    (5, (1, 2)),
    (5, (2,)),
    (5, (3,)),
    (5, (4, 5)),
    (6, (1, 3, 5)),
    (6, (2, 4, 6)),
    (6, (1, 6)),
]


@cache
def reference_annihilator(n, j):
    """Annihilator built basis state by basis state."""
    dim = 1 << n
    bit = 1 << (n - j)
    m = np.zeros((dim, dim), dtype=complex)
    for idx in range(dim):
        if idx & bit:
            m[idx ^ bit, idx] = (-1) ** bin(idx >> (n - j + 1)).count("1")
    return m


def reference_word_matrix(n, word):
    """Dense product of reference annihilators and their daggers, leftmost
    factor applied last.  The factors are real, so the product is taken in
    real arithmetic."""
    m = np.eye(1 << n)
    for mode, creation in word:
        a = reference_annihilator(n, mode).real
        m = m @ (a.T if creation else a)
    return m.astype(complex)


def normal_ordered_words(modes):
    """Every normal-ordered word on the modes, even and odd: per mode one of
    {1, c^dag, c, c^dag c}, creators ascending, then annihilators descending."""
    for choice in product(((False, False), (True, False), (False, True), (True, True)), repeat=len(modes)):
        dag_modes = [m for m, (d, _) in zip(modes, choice) if d]
        ann_modes = [m for m, (_, a) in zip(modes, choice) if a]
        yield tuple((m, True) for m in dag_modes) + tuple((m, False) for m in reversed(ann_modes))


def word_offset(n, word):
    """XOR of the occupation bits the word's factors flip."""
    offset = 0
    for mode, _ in word:
        offset ^= 1 << (n - mode)
    return offset


def reference_candidates(n, modes):
    """(offset, candidate) pairs: each even word m if Hermitian, else
    m + m^dag and i(m - m^dag), in word order, with the word's offset."""
    candidates = []
    for word in _even_words(modes):
        m = reference_word_matrix(n, word)
        d = word_offset(n, word)
        if mat_close(m, dagger(m), 1e-12):
            candidates.append((d, m))
        else:
            candidates.append((d, m + dagger(m)))
            candidates.append((d, 1j * (m - dagger(m))))
    return candidates


def sequential_kept_indices(candidates):
    """Indices kept by a candidate-at-a-time modified Gram-Schmidt sweep."""
    kept, ortho = [], []
    for index, m in enumerate(candidates):
        v = np.array(m, dtype=complex).reshape(-1)
        for q in ortho:
            v -= (q.conj() @ v) * q
        norm = np.linalg.norm(v)
        if norm > _RANK_TOL:
            kept.append(index)
            ortho.append(v / norm)
    return kept


def test_parity_signs_match_bit_counts():
    rng = np.random.default_rng(7)
    values = np.concatenate([np.arange(1 << 10), rng.integers(0, 1 << 40, size=500)])
    expected = [(-1.0) ** bin(int(v)).count("1") for v in values]
    assert np.array_equal(_parity_signs(values), expected)


@pytest.mark.parametrize("n", range(1, 8))
def test_annihilator_matches_reference(n):
    for j in range(1, n + 1):
        assert np.array_equal(annihilator_matrix(n, j), reference_annihilator(n, j))


@pytest.mark.parametrize("n", range(1, 7))
def test_word_matrix_matches_dense_reference_product(n):
    modes = tuple(range(1, n + 1))
    words = list(normal_ordered_words(modes))
    assert list(_even_words(modes)) == [w for w in words if len(w) % 2 == 0]
    # words with repeated modes, such as c_3 c_3^dag, which are not normal-ordered
    atoms = [(mode, creation) for mode in modes for creation in (False, True)]
    words += [(a, b) for a in atoms for b in atoms]
    rng = np.random.default_rng(500 + n)
    words += [tuple(atoms[i] for i in rng.integers(len(atoms), size=rng.integers(3, 7))) for _ in range(50)]
    for word in words:
        assert np.array_equal(word_matrix(n, word), reference_word_matrix(n, word)), word


@pytest.mark.parametrize("n, modes", ENUMERATIONS)
def test_candidates_lie_on_their_word_offset(n, modes):
    idx = np.arange(1 << n)
    for d, m in reference_candidates(n, modes):
        on_offset = np.zeros(m.shape, dtype=bool)
        on_offset[idx ^ d, idx] = True
        assert m[on_offset].any() and not m[~on_offset].any()


@pytest.mark.parametrize("n, modes", ENUMERATIONS)
def test_enumeration_matches_sequential_sweep(n, modes):
    candidates = [m for _, m in reference_candidates(n, modes)]
    expected = [candidates[i] for i in sequential_kept_indices(candidates)]
    got = enumerate_physical_observables(n, modes).matrices
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("seed, dim, count", [(101, 24, 220), (102, 60, 240), (103, 200, 300)])
def test_blocked_sweep_matches_sequential_on_planted_dependencies(seed, dim, count):
    rng = np.random.default_rng(seed)
    assert count > 3 * _SWEEP_BLOCK
    candidates = []
    for _ in range(count):
        kind = rng.integers(4) if candidates else 0
        if kind <= 1:
            v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        elif kind == 2:
            # a scaled combination of up to three earlier candidates
            picks = rng.choice(len(candidates), size=min(3, len(candidates)), replace=False)
            weights = rng.standard_normal(len(picks)) + 1j * rng.standard_normal(len(picks))
            v = sum(w * candidates[p] for w, p in zip(weights, picks))
        else:
            v = candidates[rng.integers(len(candidates))].copy()
        candidates.append(v)
    expected = sequential_kept_indices(candidates)
    assert len(expected) < count
    assert _independent_subset(np.array(candidates)) == expected


@pytest.mark.parametrize("n", range(2, 8))
def test_closed_form_swap_matches_normal_ordering(n):
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j:
                assert np.array_equal(swap_matrix(n, i, j), reference_swap(n, i, j)), (i, j)


def _parity_states(n, rng):
    """A random state of even parity, one of odd parity and one of mixed parity."""
    even = _parity_signs(np.arange(1 << n)) > 0
    mixed = random_state(1 << n, rng)
    return [np.where(sector, mixed, 0) / np.linalg.norm(mixed[sector]) for sector in (even, ~even)] + [mixed]


@pytest.mark.parametrize("n", range(2, 7))
def test_pure_trace_matches_dense_fermionic_trace(n):
    rng = np.random.default_rng(200 + n)
    modes = range(1, n + 1)
    for psi in _parity_states(n, rng):
        for size in range(1, n):
            for traced in combinations(modes, size):
                keep = [m - 1 for m in modes if m not in traced]
                pure = reduce_pure(_trace_signs(n, traced) * psi, [2] * n, keep)
                dense = fermionic_partial_trace_modes(dyad(psi), n, traced)
                assert mat_close(pure, dense, 1e-14), traced


def _assert_same_bits(a, b):
    for part in (np.real, np.imag):
        x, y = part(np.asarray(a)), part(np.asarray(b))
        assert x.shape == y.shape
        assert np.array_equal(x, y) and np.array_equal(np.signbit(x), np.signbit(y))


def test_protocol_checkpoints_match_dense_oracle_bit_for_bit():
    n = 5
    c = {j: creator_matrix(n, j) for j in range(1, n + 1)}
    psi = 0.5 * ((c[1] + c[2]) @ c[3] @ (c[4] + c[5]) @ vacuum_state(n))
    states = [psi]
    for a, b in ((2, 3), (3, 4), (2, 3)):
        states.append(reference_swap(n, a, b) @ states[-1])
    steps = run_fermion_protocol().steps
    assert len(steps) == len(states)
    for step, state in zip(steps, states):
        rho = dyad(state)
        _assert_same_bits(step.state, state)
        _assert_same_bits(step.mediator, fermionic_partial_trace_modes(rho, n, (1, 2, 4, 5)))
        _assert_same_bits(step.matter, fermionic_partial_trace(rho, n, 3))
