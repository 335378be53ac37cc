"""Reference code for the fermionic kernels: the fast kernels are checked
against it here, and the symbolic normal-ordering oracle, the swap matrices
and the parity operator are shared with test_fermion_ssr."""

from dataclasses import dataclass
from functools import cache
from itertools import combinations, product

import numpy as np
import pytest

from bmvsim import fermion_ssr
from bmvsim.fermion_ssr import (
    MAX_COUNT_MODES,
    _LOGDET_TOL,
    _adjoint_words,
    _candidate_rows,
    _even_word_actions,
    _parity_signs,
    _register_classes,
    _trace_signs,
    annihilator_matrix,
    count_scaling_check,
    creator_matrix,
    enumerate_physical_observables,
    fermionic_partial_trace,
    fermionic_swap,
    run_fermion_protocol,
    vacuum_state,
    word_matrix,
)
from bmvsim.statecore import dagger, dyad, mat_close
from test_statecore import random_state, reduce_pure

#: Rank tolerance of the oracles below, compared with singular values and
#: Gram-Schmidt norms.  Every offset class of a full register up to
#: MAX_COUNT_MODES has full rank, and its smallest singular value falls about
#: 1.6x per mode, from 0.62 at k = 1 to 0.034 at k = 7 and 0.021 at k = 8, so
#: none lies within six orders of it.
RANK_TOL = 1e-8

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
    perm, signs = fermionic_swap(n, i, j, np.arange(1 << n))
    m = np.zeros((1 << n, 1 << n), dtype=complex)
    m[np.arange(1 << n), perm] = signs
    return m


def parity_matrix(n: int) -> np.ndarray:
    """(-1)^(total occupation), the superselection grading operator."""
    return np.diag(_parity_signs(np.arange(1 << n)).astype(complex))


def reference_partial_trace(m, n, traced):
    """Fermionic partial trace by the rule of the fermion_ssr docstring, one
    mode at a time, highest index first: a dyad |s><r| with s_j != r_j
    vanishes, one with s_j == r_j takes the sign (-1)^(s_j s_k + r_j r_k)
    summed over the modes k > j still present, and loses slot j."""
    out = np.asarray(m, dtype=complex)
    for j in sorted(set(traced), reverse=True):
        low = n - j  # the modes after j are the low bits
        idx = np.arange(1 << n)
        occupied = (idx >> low) & 1
        signs = np.array([(-1.0) ** (((i >> low) & 1) * bin(i % (1 << low)).count("1")) for i in idx])
        dropped = ((idx >> (low + 1)) << low) | (idx % (1 << low))
        traced_out = np.zeros((1 << (n - 1), 1 << (n - 1)), dtype=complex)
        for b in (0, 1):
            sel = np.flatnonzero(occupied == b)
            traced_out[np.ix_(dropped[sel], dropped[sel])] += out[np.ix_(sel, sel)] * np.outer(signs[sel], signs[sel])
        out, n = traced_out, n - 1
    return out


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


def _word_actions_matrix(n: int, word) -> np.ndarray:
    """The matrix of one word from ``_word_actions``: its values at (s ^ offset, s)
    and zeros elsewhere."""
    (offset,), (values,) = _word_actions(n, (word,))
    idx = np.arange(1 << n)
    m = np.zeros((1 << n, 1 << n), dtype=complex)
    m[idx ^ offset, idx] = values
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


def even_words(modes):
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
    for word in even_words(modes):
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
        if norm > RANK_TOL:
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
        # tobytes, not array_equal: a -0.0 entry, which a report prints as "-0", differs
        assert annihilator_matrix(n, j).tobytes() == _word_actions_matrix(n, ((j, False),)).tobytes()


@pytest.mark.parametrize("n", range(1, 7))
def test_word_matrix_matches_dense_reference_product(n):
    modes = tuple(range(1, n + 1))
    words = list(normal_ordered_words(modes))
    assert list(even_words(modes)) == [w for w in words if len(w) % 2 == 0]
    # words with repeated modes, such as c_3 c_3^dag, which are not normal-ordered
    atoms = [(mode, creation) for mode in modes for creation in (False, True)]
    words += [(a, b) for a in atoms for b in atoms]
    rng = np.random.default_rng(500 + n)
    words += [tuple(atoms[i] for i in rng.integers(len(atoms), size=rng.integers(3, 7))) for _ in range(50)]
    for word in words:
        assert np.array_equal(word_matrix(n, word), reference_word_matrix(n, word)), word
        assert word_matrix(n, word).tobytes() == _word_actions_matrix(n, word).tobytes(), word


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
    got = enumerate_physical_observables(n, modes)
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("n, modes", ENUMERATIONS + [(6, tuple(range(1, 7))), (7, tuple(range(1, 8)))])
def test_mask_word_actions_match_word_actions(n, modes):
    want = _word_actions(n, list(even_words(modes)))
    words = np.arange(1 << 2 * len(modes))
    got = _even_word_actions(n, modes, words[_parity_signs(words) > 0])
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and np.array_equal(a, b)
        assert np.array_equal(np.signbit(a), np.signbit(b))


def three_mask_word_actions(n, modes, words):
    """The even words' ``(offsets, values)`` by the earlier mask rule: alive
    when B is occupied and D empty in s & ~B, with the sign
    parity(s & X(B)) parity((s & ~B) & X(D)) (-1)^(q(q-1)/2), q = |B|."""
    creators = annihilators = x_creators = x_annihilators = q = 0
    for place, mode in enumerate(reversed(modes)):
        bit, before = 1 << (n - mode), (1 << n) - (2 << (n - mode))
        dag, ann = (words >> 2 * place) & 1, (words >> 2 * place + 1) & 1
        creators, annihilators, q = creators | dag * bit, annihilators | ann * bit, q + ann
        x_creators, x_annihilators = x_creators ^ dag * before, x_annihilators ^ ann * before
    d, b, xd, xb, q = (a[:, None] for a in (creators, annihilators, x_creators, x_annihilators, q))
    s = np.arange(1 << n)
    rest = s & ~b
    signs = _parity_signs((s & xb) ^ (rest & xd)) * np.where(q & 2, -1.0, 1.0)
    return (d ^ b)[:, 0], np.where(((s & b) == b) & ((rest & d) == 0), signs, 0.0)


@pytest.mark.parametrize(
    "n, modes", [(k, tuple(range(1, k + 1))) for k in range(1, 8)] + [(5, (2,)), (5, (2, 3)), (6, (1, 3, 6))]
)
def test_two_mask_word_actions_match_the_three_mask_rule(n, modes):
    words = np.arange(1 << 2 * len(modes))
    even = words[_parity_signs(words) > 0]
    for got, want in zip(_even_word_actions(n, modes, even), three_mask_word_actions(n, modes, even)):
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def symbolic_adjoint(word):
    """The normal-ordered adjoint of a normal-ordered word: its creators become
    annihilators and its annihilators creators, each run reversed."""
    return tuple((mode, not creation) for mode, creation in reversed(word))


@pytest.mark.parametrize("n, modes", ENUMERATIONS + [(k, tuple(range(1, k + 1))) for k in (6, 7)])
def test_dropped_words_repeat_their_adjoints_observables(n, modes):
    words = np.arange(1 << 2 * len(modes))
    adjoint = _adjoint_words(words, len(modes))
    assert np.array_equal(_adjoint_words(adjoint, len(modes)), words)
    even = words[_parity_signs(words) > 0]
    symbolic = list(even_words(modes))
    position = {word: index for index, word in enumerate(symbolic)}
    partner = np.array([position[symbolic_adjoint(word)] for word in symbolic])
    assert np.array_equal(even[partner], adjoint[even])
    offsets, values = _even_word_actions(n, modes, even)
    on_offset = np.take_along_axis(values, np.arange(1 << n) ^ offsets[:, None], axis=1)
    plus, minus = values + on_offset, values - on_offset
    dropped = np.flatnonzero(even > adjoint[even])
    assert len(dropped) == np.count_nonzero(offsets) // 2
    assert np.array_equal(offsets[dropped], offsets[partner[dropped]])
    assert np.array_equal(plus[dropped], plus[partner[dropped]])
    assert np.array_equal(minus[dropped], -minus[partner[dropped]])


def register_table(k):
    """The offset classes of a full k-mode register, built on k modes alone."""
    return _candidate_rows(k, tuple(range(1, k + 1)))[0]


def test_counts_match_the_enumeration():
    # each offset class's rank is the number of enumerated observables on that
    # offset, and the classes are in ascending offset order
    for k, count, _, _ in count_scaling_check(6):
        observables = enumerate_physical_observables(k, range(1, k + 1))
        assert count == len(observables)
        if k <= 5:
            row, column = np.divmod(np.argmax(observables.reshape(count, -1) != 0, axis=1), 1 << k)
            _, per_offset = np.unique(row ^ column, return_counts=True)
            ranks = np.linalg.matrix_rank(register_table(k), tol=RANK_TOL)
            assert ranks.tolist() == per_offset.tolist()


@pytest.mark.parametrize("k", range(1, MAX_COUNT_MODES + 1))
def test_count_rank_tolerance_sits_in_a_wide_gap(k):
    # every singular value is a rounding-size zero or far above RANK_TOL, so
    # the oracles' ranks do not hang on the tolerance's exact value
    values = np.linalg.svd(register_table(k), compute_uv=False)
    nonzero = values[values > RANK_TOL]
    assert not (values[values <= RANK_TOL] > 1e-12).any(), f"k = {k}: a dropped singular value is not a rounding-size zero"
    assert nonzero.min() > 1e6 * RANK_TOL, (
        f"k = {k}: smallest kept singular value {nonzero.min():.3g} is within six orders of RANK_TOL"
    )
    assert len(nonzero) == 1 << (2 * k - 1)


#: A prime below 2^31, so a product of two residues fits in int64.
PRIME = (1 << 31) - 19


def rank_and_det_mod_prime(matrix):
    """Exact rank and determinant modulo PRIME of an integer matrix, by
    Gaussian elimination over the field of residues; no tolerance."""
    a = np.asarray(matrix, dtype=np.int64) % PRIME
    size = len(a)
    rank, det = 0, 1
    for column in range(a.shape[1]):
        pivots = np.flatnonzero(a[rank:, column])
        if not len(pivots):
            det = 0
            continue
        pivot = rank + pivots[0]
        if pivot != rank:
            a[[rank, pivot]] = a[[pivot, rank]]
            det = -det
        value = int(a[rank, column])
        det = det * value % PRIME
        a[rank] = a[rank] * pow(value, PRIME - 2, PRIME) % PRIME
        a[rank + 1 :] = (a[rank + 1 :] - a[rank + 1 :, column, None] * a[rank]) % PRIME
        rank += 1
        if rank == size:
            break
    return rank, det % PRIME


def closed_form_log2_det(k):
    """log2|det| of the offset classes of a k-mode register, offsets
    ascending: 0 on offset 0, 2^(k-1) on each of the other 2^(k-1) - 1."""
    return np.array([0] + [1 << (k - 1)] * ((1 << (k - 1)) - 1))


def test_mod_prime_elimination_on_known_matrices():
    assert rank_and_det_mod_prime(np.eye(3, dtype=int)) == (3, 1)
    assert rank_and_det_mod_prime([[0, 1], [1, 0]]) == (2, PRIME - 1)
    assert rank_and_det_mod_prime([[1, 1], [1, -1]]) == (2, PRIME - 2)
    assert rank_and_det_mod_prime([[1, 2, 3], [2, 4, 6], [1, 0, 1]]) == (2, 0)


@pytest.mark.parametrize("k", range(1, 7))
def test_every_class_has_full_rank_mod_a_prime(k):
    # exact arithmetic: the entries are integers in {-1, 0, 1}, and a class of
    # full rank modulo a prime has a nonzero integer determinant; the
    # determinant is also the closed form's +-2^(2^(k-1)) modulo the prime
    classes = register_table(k)
    assert np.isin(classes, (-1.0, 0.0, 1.0)).all()
    for offset, (cls, log2_det) in enumerate(zip(classes.astype(np.int64), closed_form_log2_det(k))):
        rank, det = rank_and_det_mod_prime(cls)
        closed_form = pow(2, int(log2_det), PRIME)
        assert rank == 1 << k, f"k = {k}, class {offset}: rank {rank}"
        assert det in {closed_form, PRIME - closed_form}, f"k = {k}, class {offset}"


def _planted(k_planted, plant):
    """``_register_classes`` with ``plant`` applied to the classes of k_planted modes."""
    classes = fermion_ssr._register_classes

    def register_classes(table, k):
        out = classes(table, k)
        if k == k_planted:
            plant(out)
        return out

    return register_classes


def _duplicate_a_row(classes):
    classes[1, 0] = classes[1, 2]


def _double_a_row(classes):
    classes[-1, 0] *= 2


@pytest.mark.parametrize("plant", [_duplicate_a_row, _double_a_row], ids=["singular", "other-determinant"])
def test_a_class_missing_its_closed_form_counts_nothing(monkeypatch, plant):
    # a singular class and a full-rank class of another determinant alike
    # miss the certificate: the register loses that class's 2^k and its match
    monkeypatch.setattr(fermion_ssr, "_register_classes", _planted(3, plant))
    rows = count_scaling_check(4)
    assert rows[2] == (3, 32 - 8, 32, False)
    assert [row[3] for row in rows] == [True, True, False, True]


@pytest.mark.parametrize("k_max", range(1, 8))
def test_smaller_registers_are_sub_blocks_of_one_table(k_max):
    table = register_table(k_max)
    for k in range(1, k_max + 1):
        got, want = _register_classes(table, k), register_table(k)
        assert got.shape == want.shape == (1 << (k - 1), 1 << k, 1 << k)
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want)), (k_max, k)


def test_counts_from_one_table_match_each_register_alone():
    rows = count_scaling_check(MAX_COUNT_MODES)
    for k in range(1, MAX_COUNT_MODES + 1):
        assert rows[:k] == count_scaling_check(k)


def _worst_log2_det_deviation(k):
    _, logdet = np.linalg.slogdet(register_table(k))
    return np.abs(logdet / np.log(2) - closed_form_log2_det(k)).max()


def test_working_classes_run_no_svd(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an SVD ran")

    monkeypatch.setattr(np.linalg, "matrix_rank", refuse)
    monkeypatch.setattr(np.linalg, "svd", refuse)
    # every class of every register up to the cap meets its closed form
    rows = count_scaling_check(MAX_COUNT_MODES)
    assert [row[0] for row in rows] == list(range(1, MAX_COUNT_MODES + 1))
    for k, count, expected, match in rows:
        assert (count, match) == (expected, True), (
            f"k = {k}: count {count} of {expected}, log2|det| off by up to {_worst_log2_det_deviation(k):.3g}"
            f" (_LOGDET_TOL {_LOGDET_TOL:g})"
        )
        assert expected == 1 << (2 * k - 1)


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
                dense = reference_partial_trace(dyad(psi), n, traced)
                assert mat_close(pure, dense, 1e-14), traced


def assert_same_bits(a, b):
    for part in (np.real, np.imag):
        x, y = part(np.asarray(a)), part(np.asarray(b))
        assert x.shape == y.shape
        assert np.array_equal(x, y) and np.array_equal(np.signbit(x), np.signbit(y))


@pytest.mark.parametrize("n", range(1, 7))
def test_partial_trace_matches_reference_bit_for_bit(n):
    # arbitrary operators, parity-odd parts included, with half their entries
    # zeros of either sign, on every traced subset down to all the modes
    rng = np.random.default_rng(700 + n)
    dim = 1 << n
    for _ in range(10):
        m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        zeros = rng.random((dim, dim)) < 0.5
        m[zeros] = rng.choice([0.0, -0.0], size=zeros.sum()) + rng.choice([0.0, -0.0], size=zeros.sum()) * 1j
        for size in range(1, n + 1):
            for traced in combinations(range(1, n + 1), size):
                assert_same_bits(fermionic_partial_trace(m, n, traced), reference_partial_trace(m, n, traced))


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
        assert_same_bits(step.state, state)
        assert_same_bits(step.mediator, reference_partial_trace(rho, n, (1, 2, 4, 5)))
        assert_same_bits(step.matter, reference_partial_trace(rho, n, (3,)))
        # and the dense reduction of the signed state vector that the support kernel replaced
        assert_same_bits(step.mediator, reduce_pure(_trace_signs(n, (1, 2, 4, 5)) * state, [2] * n, [2]))
        assert_same_bits(step.matter, reduce_pure(_trace_signs(n, (3,)) * state, [2] * n, [0, 1, 3, 4]))
