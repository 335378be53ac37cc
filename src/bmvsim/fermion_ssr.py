"""Parity-superselected fermionic Fock space for n spinless modes.

Basis and sign conventions
--------------------------
Basis states are mode-ordered creation words on the vacuum,

    |s_1 ... s_n>  =  (c_1^dag)^{s_1} ... (c_n^dag)^{s_n} |vac>,

indexed by  sum_j s_j * 2^(n-j),  so mode 1 is the most significant bit and
the vacuum has index 0.  With this ordering the annihilator of mode j carries
the sign string (-1)^(s_1 + ... + s_{j-1}) over the lower-indexed modes; that
is the unique matrix representation consistent with the anticommutation
relations and c_j|vac> = 0.  ``annihilator_matrix`` writes it in closed form,
and the matrix of any operator word is the product of those annihilators and
their transposes, the creators (``word_matrix``).

The parity superselection rule admits as physical observables only the
Hermitian operators whose every monomial in creators/annihilators has even
degree.  For a full k-mode register the space of such observables has real
dimension 2^(2k-1), half of the unconstrained 2^(2k).  The observables are
picked by exact index arithmetic, one normal-ordered word per adjoint pair
(``_candidate_rows``, which writes their rows grouped by XOR offset):
``enumerate_physical_observables`` scatters them into matrices in word order,
for the protocol's observable sets.  ``count_scaling_check`` counts them
without building a matrix: the rows of one offset form a square (2^k, 2^k)
real matrix, and one stacked ``slogdet`` over the 2^(k-1) offsets, compared
with the closed-form determinant of each class, certifies that every class is
nonsingular, so the picked words are independent and the count is 2^k per
class.  Every smaller register's classes are sub-blocks of the largest one's
(``_register_classes``), so one table serves the whole count.

Discarding modes uses the fermionic partial trace: a dyad
|s_1..s_n><r_1..r_n| survives the trace of mode j only when s_j == r_j, picks
up the reordering sign (-1)^(sum_{k>j} s_j s_k + r_j r_k), and drops slot j.
Modes are traced highest index first, so k runs over the modes still present;
on parity-even operators the order does not matter (covered by the test
suite).  The sign is a ket sign times a bra sign, and ``_trace_signs`` gives
it for every basis index; it is the one place the rule is written.  The trace
is thus ``statecore.partial_trace`` of the signed operator, or for the
protocol's pure states, held on their support, ``statecore.reduce_support``
of the amplitudes times the signs at the support.  The swap gates are signed
basis-index permutations, evaluated at the support.
"""

from __future__ import annotations

from functools import cache, lru_cache

import numpy as np

from .statecore import EPS, dagger, partial_trace, read_only, reduce_support, support_states
from .witness import LocalObservableSet, ProtocolTrace, run_protocol

# Bound on |log2|det| - closed form| of ``count_scaling_check``'s classes.
# slogdet's LU rounding moves log2|det| by at most 2.1e-14 up to k = 7 and by
# 1.7e-13 at k = 8 (the worst class of each register, measured); 1e-9 lies
# nearly four orders above that.  A class that misses its closed form is
# either singular, where a zero or rounding-size pivot puts log2|det| at -inf
# or some 50 below it, or of another determinant, where one doubled row moves
# it by 1; either way it counts nothing, and criterion 4 fails.
_LOGDET_TOL = 1e-9

# `tomography --k-max k` counts full registers of up to k modes.  Wall time
# and peak RSS per command, json / text, fresh process, median of 5, on a
# 2-vCPU Xeon whose speed drifts between runs: k = 7 0.16-0.33 s at 47 MiB;
# k = 8 0.34-0.55 s at 161 MiB, of which the k = 8 classes are 64 MiB.  The
# count holds the actions of 2^(2k-1) words of 2^k values each, 8x more per
# k: the k = 9 classes alone would be 512 MiB, so k = 9 is rejected before it
# allocates.
MAX_COUNT_MODES = 8


# ---------------------------------------------------------------------------
# basis bookkeeping


def vacuum_state(n: int) -> np.ndarray:
    v = np.zeros(1 << n, dtype=complex)
    v[0] = 1.0
    return v


def _parity_signs(values: np.ndarray) -> np.ndarray:
    """(-1)^(number of set bits) of each nonnegative integer, as float64."""
    return 1.0 - 2.0 * (np.bitwise_count(values) & 1)


def annihilator_matrix(n: int, j: int) -> np.ndarray:
    """Matrix of the annihilator of mode j on n modes.

    Sends |..s_j=1..> to (-1)^(s_1+...+s_{j-1}) |..s_j=0..> and kills states
    with s_j = 0.  Satisfies c_j^2 = 0 and the canonical anticommutators as
    exact matrix identities.
    """
    if not 1 <= j <= n:
        raise ValueError(f"bad-mode: mode {j} outside 1..{n}")
    bit = 1 << (n - j)
    occupied = np.flatnonzero(np.arange(1 << n) & bit)
    m = np.zeros((1 << n, 1 << n), dtype=complex)
    m[occupied ^ bit, occupied] = _parity_signs(occupied >> (n - j + 1))
    return m


def word_matrix(n: int, word) -> np.ndarray:
    """Matrix of an operator word, leftmost factor applied last (operator order):
    the product of its annihilators and their transposes, the creators, taken
    in real arithmetic."""
    m = np.eye(1 << n)
    for mode, creation in word:
        a = annihilator_matrix(n, mode).real
        m = m @ (a.T if creation else a)
    return m.astype(complex)


def creator_matrix(n: int, j: int) -> np.ndarray:
    return dagger(annihilator_matrix(n, j))


# ---------------------------------------------------------------------------
# physical (parity-even) observables


def _even_word_actions(n: int, modes: tuple[int, ...], words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The even normal-ordered ``words`` on ``modes`` as ``(offsets, values)``,
    from bit masks: the i-th word maps |s> to values[i, s] |s ^ offsets[i]>.

    Word w has one base-4 digit dag + 2 ann per mode, modes[0] most significant:
    c^dag over the modes D ascending, then c over B descending, flipping D ^ B.
    Two masks per word give its action.  It is alive on |s> iff
    s & (B | D) == B: B occupied, and D empty once B is emptied.  With X(M) the
    modes before an odd number of modes of M, its sign is parity(s & S) with
    S = (X(B) ^ X(D)) & ~B.  The annihilators, lowest first, each count the
    occupied modes before their own, parity(s & X(B)), less the modes of B
    they have already emptied, (-1)^(q(q-1)/2) for q = |B|; the creators count
    those of s & ~B, parity(s & ~B & X(D)).  A live s holds B, and
    parity(B & X(B)) is that same (-1)^(q(q-1)/2), so B drops out of S.
    """
    creators = annihilators = x_creators = x_annihilators = 0
    for place, mode in enumerate(reversed(modes)):
        bit, before = 1 << (n - mode), (1 << n) - (2 << (n - mode))
        dag, ann = (words >> 2 * place) & 1, (words >> 2 * place + 1) & 1
        creators, annihilators = creators | dag * bit, annihilators | ann * bit
        x_creators, x_annihilators = x_creators ^ dag * before, x_annihilators ^ ann * before
    s = np.arange(1 << n)
    alive = (s & (creators | annihilators)[:, None]) == annihilators[:, None]
    signs = _parity_signs(s & ((x_annihilators ^ x_creators) & ~annihilators)[:, None])
    return creators ^ annihilators, np.where(alive, signs, 0.0)


def _adjoint_words(words: np.ndarray, k: int) -> np.ndarray:
    """Base-4 indices, on k modes, of the adjoints of the normal-ordered words
    ``words``: (c^dag_A c_B)^dag = c^dag_B c_A, so every mode's creator and
    annihilator digit are exchanged."""
    creators = words & ((1 << 2 * k) - 1) // 3
    return creators << 1 | (words ^ creators) >> 1


def _candidate_rows(n: int, modes: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(rows, offsets, position)``: one real row per observable on ``modes``,
    its values on its offset, grouped into offset classes, offsets ascending.

    For m = len(modes), ``rows`` is (2^(m-1), 2^m, 2^n), ``offsets`` holds the
    classes' offsets and ``position`` each row's index in word order, where a
    word's rows come after those of every smaller word.  The words are the even
    ones whose base-4 index is at most that of their adjoint
    (``_adjoint_words``), and only they get actions.  The rule is exact: a
    dropped word has its adjoint's m + m^dag and the negated m - m^dag, and the
    normal-ordered words are independent, so the kept rows are too.

    A word c^dag_A c_B lies on the offset A ^ B, and an offset's words, in word
    order, are its 2^m annihilator sets B ascending.  On offset 0, where A = B,
    every word is kept and gives the row (m + m^dag)/2 = m: class 0 is one row
    per word.  On any other offset d half are kept, those whose B lacks d's
    first mode, and the class is their rows m + m^dag, then their rows
    m - m^dag, which stand for i times themselves.  Every row is a nonzero
    multiple of its observable, so a class's rank is the number of independent
    observables on its offset.  The values are real, so m^dag maps |s ^ d> to
    m[s] |s>: on the offset d its values are m[s ^ d].
    """
    m, size = len(modes), 1 << n
    half = 1 << (m - 1)
    words = np.arange(1 << 2 * m)
    words = words[(_parity_signs(words) > 0) & (words <= _adjoint_words(words, m))]
    # the bits of the digits whose creator and annihilator bits differ, one
    # per mode of the offset in mode order, order the words as offsets do
    spread = (words ^ words >> 1) & ((1 << 2 * m) - 1) // 3
    slots = np.where(spread == 0, 1, 2)
    order = np.argsort(spread, kind="stable")
    start = (np.cumsum(slots) - slots)[order]
    offsets, values = _even_word_actions(n, modes, words[order])
    # class 0 holds 2^m words and every other class half as many: one offset
    # per class (np.unique would import numpy.ma, a resident MiB)
    offsets = offsets[half::half]

    rows = np.empty((half, 1 << m, size))
    rows[0] = values[: 1 << m]
    values = values[1 << m :].reshape(half - 1, half, size)
    adjoint = np.take_along_axis(values, np.arange(size) ^ offsets[1:, None, None], axis=2)
    pairs = rows[1:].reshape(half - 1, 2, half, size)
    np.add(values, adjoint, out=pairs[:, 0])
    np.subtract(values, adjoint, out=pairs[:, 1])
    first = start[1 << m :].reshape(half - 1, 1, half)
    position = np.concatenate((start[None, : 1 << m], (first + [[0], [1]]).reshape(half - 1, 1 << m)))
    return rows, offsets, position


def enumerate_physical_observables(n: int, modes) -> np.ndarray:
    """Independent Hermitian parity-even observables on ``modes``, as a (count, 2^n, 2^n) stack.

    The candidates are the even monomials in the subset's creators and
    annihilators, Hermitized as m + m^dag and i(m - m^dag), of one word per
    adjoint pair (``_candidate_rows``), in word order.  A normal-ordered word
    c^dag_A c_B has all its entries at (s ^ d, s), d the bit mask of the modes
    in exactly one of A and B, so each row is scattered onto its offset.  For
    a full k-mode subset the count is 2^(2k-1).
    """
    modes = tuple(sorted(set(int(m) for m in modes)))
    if not modes:
        raise ValueError("bad-mode: subset must be nonempty")
    if modes[0] < 1 or modes[-1] > n:
        raise ValueError(f"bad-mode: subset {modes} outside 1..{n}")

    rows, offsets, position = _candidate_rows(n, modes)
    imaginary = np.zeros(position.shape, dtype=bool)
    imaginary[1:, 1 << (len(modes) - 1) :] = True
    idx = np.arange(1 << n)
    matrices = np.zeros((position.size, 1 << n, 1 << n), dtype=complex)
    matrices[position[..., None], idx ^ offsets[:, None, None], idx] = np.where(imaginary[..., None], 1j * rows, rows)
    return matrices


def _register_classes(table: np.ndarray, k: int) -> np.ndarray:
    """The offset classes of a full k-mode register, (2^(k-1), 2^k, 2^k), taken
    from ``table``, the rows of ``_candidate_rows`` on a full register of
    n >= k modes.

    Register k is the rows whose words have zero digits on modes k+1..n, at
    the columns whose kets leave those modes empty (every 2^(n-k)-th).  Shift
    every mode mask by n - k bits: word w' on k modes becomes w' followed by
    n - k zero digits, ket s' becomes s' << (n-k), and with them the creator
    and annihilator masks, the offset d and B.  The sign masks X(M) of
    ``_even_word_actions`` hold only modes before one of M, so for M within
    modes 1..k they shift too: a shifted word has the k-mode values at the
    shifted kets, and so does its adjoint, since s ^ d = (s' ^ d') << (n-k).
    The adjoint rule and the word order compare the same digits, so register
    k's rows are the k-mode rows, value for value.

    Where they sit.  The even offsets ascending are indexed by all their bits
    but the last, so d' << (n-k) is class (d' << (n-k)) >> 1.  Split a class's
    rows into two halves of 2^(n-1): class 0 holds word B at row B, and any
    other class holds its kept words, those whose B lacks d's first mode, at B
    with that bit taken out, once per half.  That bit lies at or above bit
    n - k, so either way the shifted B' lie at every 2^(n-k)-th row of a half,
    ascending.
    """
    n = len(table).bit_length()
    if k == n:
        return table
    step = 1 << (n - k)
    even = np.flatnonzero(_parity_signs(np.arange(1 << k)) > 0)
    halves = table.reshape(len(table), 2, -1, 1 << n)
    return halves[(even << (n - k)) >> 1, :, ::step, ::step].reshape(-1, 1 << k, 1 << k)


def count_scaling_check(k_max: int) -> list[tuple[int, int, int, bool]]:
    """Rows (k, observable count, 2^(2k-1), match) for full registers k=1..k_max.

    The classes of every register come from one table, that of k_max modes
    (``_register_classes``).  A register's count is 2^k per offset class whose
    log2|det|, from one stacked ``slogdet`` call, is its closed form within
    ``_LOGDET_TOL``: 0 on offset 0 and 2^(k-1) on every other offset.  A class
    that misses counts nothing, so a singular class and a wrong closed form
    alike break the match.  No observable matrix is built.

    The closed form.  The words on offset d are c^dag_A c_B with A = C + A'
    and B = C + B' (+ a disjoint union), C outside d and d = A' + B': 2^k of
    them, and even since d is.  c^dag_A c_B is alive on |s> iff s meets d in exactly
    B' and holds C, with an entry of +-1.  So the matrix W_d of the raw word
    actions, one row per word, is a permutation on the bits of d (B' = s & d
    fixes A') times the subset zeta matrix [C <= s] on the other bits, up to
    signs; ordered by popcount that is triangular with +-1 on its diagonal,
    and |det W_d| = 1.  On d = 0 every word c^dag_C c_C is self-adjoint and
    the class is W_0.  On d != 0 the 2^k words form 2^(k-1) adjoint pairs
    (A' != B'), the adjoint's row in W_d is the values of m^dag on the
    offset, and the class takes each pair to m + m^dag and m - m^dag: up to
    row order, 2^(k-1) blocks [[1, 1], [1, -1]] of |det| 2 times W_d.
    """
    if not 1 <= k_max <= MAX_COUNT_MODES:
        raise ValueError(f"bad-mode: k_max {k_max} outside 1..{MAX_COUNT_MODES}")
    table, _, _ = _candidate_rows(k_max, tuple(range(1, k_max + 1)))
    rows = []
    for k in range(1, k_max + 1):
        classes = _register_classes(table, k)
        closed_form = np.full(len(classes), float(1 << (k - 1)))
        closed_form[0] = 0.0
        _, logdet = np.linalg.slogdet(classes)
        hit = np.abs(logdet / np.log(2) - closed_form) <= _LOGDET_TOL
        count = int(hit.sum()) << k
        expected = 1 << (2 * k - 1)
        rows.append((k, count, expected, count == expected))
    return rows


# ---------------------------------------------------------------------------
# fermionic partial trace


def _trace_signs(n: int, traced) -> np.ndarray:
    """Reordering sign of every basis ket when the ``traced`` modes are
    discarded highest index first: dropping mode j multiplies by
    (-1)^(s_j * number of occupied modes above j that are not traced)."""
    traced = set(int(j) for j in traced)
    idx = np.arange(1 << n)
    signs = np.ones(1 << n)
    for j in traced:
        later = sum(1 << (n - k) for k in range(j + 1, n + 1) if k not in traced)
        signs *= np.where((idx >> (n - j)) & 1, _parity_signs(idx & later), 1.0)
    return signs


@lru_cache(maxsize=16)
def _shared_trace_signs(n: int, traced: frozenset[int]) -> np.ndarray:
    """``_trace_signs`` of one register and traced set, computed once per
    process and read-only: every protocol run reduces with the same four."""
    return read_only(_trace_signs(n, traced))[0]


def fermionic_partial_trace(m: np.ndarray, n: int, traced) -> np.ndarray:
    """Discard the ``traced`` modes of an n-mode operator: the plain partial
    trace of ``m`` with each row and column multiplied by its ``_trace_signs``
    sign.  A leading factor of dimension 1 is always kept, so tracing every
    mode leaves the 1 x 1 trace."""
    traced = set(int(j) for j in traced)
    if not traced <= set(range(1, n + 1)):
        raise ValueError(f"bad-mode: traced modes {sorted(traced)} outside 1..{n}")
    m = np.asarray(m, dtype=complex)
    if m.shape != (1 << n, 1 << n):
        raise ValueError("bad-partition: operator dimension does not match mode count")
    s = _shared_trace_signs(n, frozenset(traced))
    keep = [0] + [j for j in range(1, n + 1) if j not in traced]
    return partial_trace(s[:, None] * m * s, [1] + [2] * n, keep)


# ---------------------------------------------------------------------------
# fermionic swap gates


def fermionic_swap(n: int, i: int, j: int, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unitary exchanging modes i and j, fixing the vacuum, as a signed basis
    permutation evaluated at the basis indices ``indices``: ``(perm, signs)``.

    ``perm`` exchanges the occupations s_i and s_j; the sign is that of
    reordering the permuted creation word: -1 when both modes are occupied,
    (-1)^(occupied modes strictly between i and j) when exactly one is, and +1
    when neither is.  The gate is an involution: on ``np.arange(1 << n)``,
    ``perm[perm]`` is the identity and ``signs[perm] == signs``, and
    ``signs * state[perm]`` applies it to a dense state.  So a state held on
    its support moves to ``perm`` with its amplitudes times ``signs``.
    """
    if i == j:
        raise ValueError("bad-swap: swap modes must differ")
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"bad-mode: swap modes outside 1..{n}")
    high, low = n - min(i, j), n - max(i, j)  # bit positions of the two modes
    both = (indices >> high) & (indices >> low) & 1
    differ = ((indices >> high) ^ (indices >> low)) & 1
    between = ((1 << high) - 1) ^ ((2 << low) - 1)
    signs = np.where(both, -1.0, np.where(differ, _parity_signs(indices & between), 1.0))
    return indices ^ (differ << high) ^ (differ << low), signs


# ---------------------------------------------------------------------------
# the five-mode mediation protocol


def hopping_observable(n: int, i: int, j: int) -> np.ndarray:
    """c_i^dag c_j + c_j^dag c_i, the embedded Pauli-x analogue of a mode pair."""
    return word_matrix(n, ((i, True), (j, False))) + word_matrix(n, ((j, True), (i, False)))


@cache
def pair_observable_sets() -> tuple[LocalObservableSet, LocalObservableSet]:
    """Q1 on modes (1, 2) and Q2 on modes (3, 4) of the 4-mode matter space,
    enumerated once per process.  The stacks are read-only, so every run
    shares them."""
    return (
        LocalObservableSet("Q1", enumerate_physical_observables(4, (1, 2))),
        LocalObservableSet("Q2", enumerate_physical_observables(4, (3, 4))),
    )


@cache
def _initial_state() -> tuple[np.ndarray, np.ndarray]:
    """The protocol's initial state on its support, ``(indices, amplitudes)``:
    both qubits in the even superposition and the mediator occupied.  Built
    from the creator matrices once per process; read-only."""
    n = 5
    c = {j: creator_matrix(n, j) for j in range(1, 6)}
    psi = 0.5 * ((c[1] + c[2]) @ c[3] @ (c[4] + c[5]) @ vacuum_state(n))
    support = np.flatnonzero(psi)
    return read_only(support, psi[support])


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
    mediator_signs = _shared_trace_signs(n, frozenset((1, 2, 4, 5)))
    matter_signs = _shared_trace_signs(n, frozenset((3,)))

    def reduce(states: list[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        indices, amps = (np.stack(part) for part in zip(*states))
        return (
            support_states(indices, amps, n),
            reduce_support(indices, mediator_signs[indices] * amps, n, [2]),
            reduce_support(indices, matter_signs[indices] * amps, n, [0, 1, 3, 4]),
        )

    def swap(a: int, b: int):
        def gate(state: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
            indices, amps = state
            perm, signs = fermionic_swap(n, a, b, indices)
            # (-1) * 0.0 is -0.0, which reports print as "-0.0"; adding 0.0
            # keeps every zero part of an amplitude +0.0
            return perm, signs * amps + 0.0

        return f"swap({a},{b})", gate

    return run_protocol(
        "fermion",
        _initial_state(),
        (swap(a, b) for a, b in ((2, 3), (3, 4), (2, 3))),
        reduce,
        lambda matter: (
            fermionic_partial_trace(matter, 4, (3, 4)),
            fermionic_partial_trace(matter, 4, (1, 2)),
        ),
        pair_observable_sets(),
        eps=eps,
    )
