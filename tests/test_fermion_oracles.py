"""Fast fermionic kernels checked against the straightforward reference code."""

import numpy as np
import pytest

from bmvsim.fermion_ssr import (
    _RANK_TOL,
    _SWEEP_BLOCK,
    _even_words,
    _independent_subset,
    _parity_signs,
    annihilator_matrix,
    enumerate_physical_observables,
    word_matrix,
)
from bmvsim.statecore import dagger, mat_close

# (n, modes) of every enumeration the package runs: full registers for the
# tomography count, and the subsets of the protocol and the acceptance suite.
ENUMERATIONS = [(k, tuple(range(1, k + 1))) for k in range(1, 6)] + [
    (4, (1, 2)),
    (4, (3, 4)),
    (5, (1, 2)),
    (5, (2,)),
    (5, (3,)),
    (5, (4, 5)),
]


def reference_annihilator(n, j):
    """Annihilator built basis state by basis state."""
    dim = 1 << n
    bit = 1 << (n - j)
    m = np.zeros((dim, dim), dtype=complex)
    for idx in range(dim):
        if idx & bit:
            m[idx ^ bit, idx] = (-1) ** bin(idx >> (n - j + 1)).count("1")
    return m


def reference_candidates(n, modes):
    """Each even word m if Hermitian, else m + m^dag and i(m - m^dag), in word order."""
    candidates = []
    for word in _even_words(modes):
        m = word_matrix(n, word)
        if mat_close(m, dagger(m), 1e-12):
            candidates.append(m)
        else:
            candidates.append(m + dagger(m))
            candidates.append(1j * (m - dagger(m)))
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


def blocked_kept_indices(candidates):
    position = {id(m): index for index, m in enumerate(candidates)}
    max_rank = min(len(candidates), candidates[0].size)
    return [position[id(m)] for m in _independent_subset(candidates, max_rank)]


def test_parity_signs_match_bit_counts():
    rng = np.random.default_rng(7)
    values = np.concatenate([np.arange(1 << 10), rng.integers(0, 1 << 40, size=500)])
    expected = [(-1.0) ** bin(int(v)).count("1") for v in values]
    assert np.array_equal(_parity_signs(values), expected)


@pytest.mark.parametrize("n", range(1, 8))
def test_annihilator_matches_reference(n):
    for j in range(1, n + 1):
        assert np.array_equal(annihilator_matrix(n, j), reference_annihilator(n, j))


@pytest.mark.parametrize("n, modes", ENUMERATIONS)
def test_enumeration_matches_sequential_sweep(n, modes):
    candidates = reference_candidates(n, modes)
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
    assert blocked_kept_indices(candidates) == expected
