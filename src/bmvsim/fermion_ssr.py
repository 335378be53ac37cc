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
(``_candidate_rows``): ``enumerate_physical_observables`` builds them, for the
protocol's observable sets.  ``count_scaling_check`` counts them without
building a matrix: the rows of one XOR offset form a square (2^k, 2^k) real
matrix, and one stacked ``matrix_rank`` over the 2^(k-1) offsets gives the
count and certifies that the picked words are independent.

Discarding modes uses the fermionic partial trace: a dyad
|s_1..s_n><r_1..r_n| survives the trace of mode j only when s_j == r_j, picks
up the reordering sign (-1)^(sum_{k>j} s_j s_k + r_j r_k), and drops slot j.
Modes are traced highest index first, so k runs over the modes still present;
on parity-even operators the order does not matter (covered by the test
suite).  The sign is a ket sign times a bra sign, and ``_trace_signs`` gives
it for every basis index; it is the one place the rule is written.  The trace
is thus ``statecore.partial_trace`` of the signed operator, or for the
protocol's pure states ``statecore.reduce_pure`` of the signed state vector.
The swap gates are signed basis-index permutations of the state vector.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from .statecore import EPS, dagger, partial_trace, reduce_pure
from .witness import LocalObservableSet, ProtocolTrace, run_protocol

# Tolerance of ``count_scaling_check``'s rank, compared with singular values:
# every offset class of a full register up to MAX_COUNT_MODES is square with
# full rank 2^k, and its smallest singular value falls about 1.6x per mode, from
# 0.62 at k = 1 to 0.090 at k = 5 and 0.034 at k = 7, so no singular value lies
# within six orders of it.
_RANK_TOL = 1e-8

# `tomography --k-max k` counts full registers of up to k modes.  Peak RSS and
# wall time per command, json / text, fresh process, median of 5 in each of two
# runs, on a 2-vCPU Xeon: k = 5 33 / 33 MiB, 0.34 / 0.34 s; k = 6 36 / 36 MiB,
# 0.31 / 0.27 s; k = 7 65 / 65 MiB, 0.47-0.74 / 0.43-0.75 s, of which the k = 7
# count alone is about 0.22 s.
# The count holds the actions of 2^(2k-1) words of 2^k values each, 8x more per
# k, and its SVDs cost 16x more per k: k = 8 is rejected before it allocates.
MAX_COUNT_MODES = 7


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
    c^dag over the modes D ascending, then c over B descending, flipping D ^ B
    and alive on |s> when B is occupied and D empty in s & ~B.  With X(M) the
    modes before an odd number of modes of M, its sign is parity(s & X(B))
    parity((s & ~B) & X(D)) (-1)^(q(q-1)/2), q = |B|: the last factor takes back
    the modes of B that the annihilators, lowest first, have already emptied.
    """
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


def _adjoint_words(words: np.ndarray, k: int) -> np.ndarray:
    """Base-4 indices, on k modes, of the adjoints of the normal-ordered words
    ``words``: (c^dag_A c_B)^dag = c^dag_B c_A, so every mode's creator and
    annihilator digit are exchanged."""
    creators = words & ((1 << 2 * k) - 1) // 3
    return creators << 1 | (words ^ creators) >> 1


def _candidate_rows(n: int, modes: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(offsets, rows, imaginary)``: one real row per observable on ``modes``,
    its values on its offset, with ``imaginary`` marking the rows that stand
    for i times themselves.

    The words are the even ones whose base-4 index is at most that of their
    adjoint (``_adjoint_words``), and only they get actions.  The rule is
    exact: a dropped word has its adjoint's m + m^dag and the negated
    m - m^dag, and the normal-ordered words are independent, so the kept rows
    are too.  A kept word m gives the row (m + m^dag)/2 = m on offset 0, where
    A = B, and the rows m + m^dag and m - m^dag on any other offset.  The
    values are real, so m^dag maps |s ^ d> to m[s] |s>: on the offset d its
    values are m[s ^ d].
    """
    words = np.arange(1 << 2 * len(modes))
    words = words[(_parity_signs(words) > 0) & (words <= _adjoint_words(words, len(modes)))]
    offsets, values = _even_word_actions(n, modes, words)
    adjoint = np.take_along_axis(values, np.arange(1 << n) ^ offsets[:, None], axis=1)
    hermitian = offsets == 0
    rows = np.stack((np.where(hermitian[:, None], values, values + adjoint), values - adjoint), axis=1)
    present = np.stack((np.ones_like(hermitian), ~hermitian), axis=1).reshape(-1)
    imaginary = np.tile([False, True], len(offsets))[present]
    return np.repeat(offsets, 2)[present], rows.reshape(-1, 1 << n)[present], imaginary


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

    offsets, rows, imaginary = _candidate_rows(n, modes)
    idx = np.arange(1 << n)
    matrices = np.zeros((len(rows), 1 << n, 1 << n), dtype=complex)
    matrices[np.arange(len(rows))[:, None], idx ^ offsets[:, None], idx] = np.where(imaginary[:, None], 1j * rows, rows)
    return matrices


def _offset_classes(k: int) -> np.ndarray:
    """The rows of ``_candidate_rows`` on a full k-mode register, grouped by
    offset: one square (2^k, 2^k) real matrix per offset class, offsets
    ascending.

    Each of the 2^(k-1) even offsets d is the offset of the 2^k words
    c^dag_A c_B with A ^ B = d: on d = 0 all are kept and give one row each,
    on any other d half are kept and give two.  A row m - m^dag is -i times
    its observable, which leaves the rank unchanged, so the rank of a class
    is the number of independent observables on its offset.
    """
    offsets, rows, _ = _candidate_rows(k, tuple(range(1, k + 1)))
    return rows[np.argsort(offsets, kind="stable")].reshape(1 << (k - 1), 1 << k, 1 << k)


def count_scaling_check(k_max: int) -> list[tuple[int, int, int, bool]]:
    """Rows (k, observable count, 2^(2k-1), match) for full registers k=1..k_max.

    A count is the summed rank of the register's offset classes, one stacked
    ``matrix_rank`` call; no observable matrix is built.
    """
    if k_max > MAX_COUNT_MODES:
        raise ValueError(f"bad-mode: k_max above {MAX_COUNT_MODES} is out of scope")
    rows = []
    for k in range(1, k_max + 1):
        count = int(np.linalg.matrix_rank(_offset_classes(k), tol=_RANK_TOL).sum())
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
    s = _trace_signs(n, traced)
    keep = [0] + [j for j in range(1, n + 1) if j not in traced]
    return partial_trace(s[:, None] * m * s, [1] + [2] * n, keep)


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


@cache
def pair_observable_sets() -> tuple[LocalObservableSet, LocalObservableSet]:
    """Q1 on modes (1, 2) and Q2 on modes (3, 4) of the 4-mode matter space,
    enumerated once per process.  The stacks are read-only, so every run
    shares them."""
    return (
        LocalObservableSet("Q1", enumerate_physical_observables(4, (1, 2))),
        LocalObservableSet("Q2", enumerate_physical_observables(4, (3, 4))),
    )


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
            fermionic_partial_trace(matter, 4, (3, 4)),
            fermionic_partial_trace(matter, 4, (1, 2)),
        ),
        (hopping_observable(2, 1, 2), hopping_observable(4, 1, 2), hopping_observable(4, 3, 4)),
        pair_observable_sets(),
        eps=eps,
    )
