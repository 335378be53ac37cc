from itertools import combinations

import numpy as np
import pytest

from bmvsim.statecore import (
    EPS,
    commutator,
    dagger,
    dyad,
    hermitian_basis,
    in_span,
    is_density,
    is_hermitian,
    mat_close,
    partial_trace,
    reduce_support,
    support_states,
    tensor,
)

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)


def is_unitary(m: np.ndarray, eps: float = EPS) -> bool:
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    return mat_close(m @ dagger(m), np.eye(m.shape[0]), eps)


def random_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random unit vector."""
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + dagger(g)) / 2


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def reduce_pure(psi: np.ndarray, dims: list[int], keep) -> np.ndarray:
    """Test oracle, the dense path ``reduce_support`` replaced:
    ``partial_trace(dyad(psi), dims, keep)`` without forming the dyad, the
    state as a (kept, rest) matrix M giving M M^dagger, kept subsystems in
    their original relative order."""
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (int(np.prod(dims)),):
        raise ValueError("bad-partition: vector length does not match subsystem dims")
    keep = sorted(set(int(k) for k in keep))
    if not keep or keep[0] < 0 or keep[-1] >= len(dims):
        raise ValueError("bad-partition: keep must be a nonempty subset of subsystem indices")
    rest = [i for i in range(len(dims)) if i not in keep]
    m = psi.reshape(dims).transpose(keep + rest).reshape(int(np.prod([dims[i] for i in keep])), -1)
    return m @ m.conj().T


def test_tensor_identity():
    assert mat_close(tensor(I2, I2), np.eye(4))


def test_tensor_diagonal_ordering():
    assert mat_close(tensor(Z, I2), np.diag([1.0, 1.0, -1.0, -1.0]))


def test_tensor_xx_on_bell_state():
    # oracle: direct 4x4 matrix-vector multiply
    bell = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    xx = tensor(X, X)
    applied = xx @ bell
    assert mat_close(applied, bell)
    assert abs(np.vdot(bell, applied) - 1.0) <= EPS


def test_tensor_index_convention():
    # (i, j) -> i * dim_b + j: entry of tensor at (i*db+j, k*db+l) is a[i,k] b[j,l]
    rng = np.random.default_rng(7)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    t = tensor(a, b)
    for i, j, k, l in [(0, 1, 1, 2), (1, 0, 0, 0), (1, 2, 0, 1)]:
        assert abs(t[i * 3 + j, k * 3 + l] - a[i, k] * b[j, l]) <= 1e-12


def test_tensor_associative_property():
    rng = np.random.default_rng(11)
    for _ in range(100):
        dims = rng.integers(2, 4, size=3)
        ops = [random_hermitian(int(d), rng) for d in dims]
        assert mat_close(tensor(tensor(ops[0], ops[1]), ops[2]), tensor(ops[0], tensor(ops[1], ops[2])), 1e-9)


def test_partial_trace_product_state_property():
    rng = np.random.default_rng(13)
    for _ in range(100):
        da, db = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        a, b = random_hermitian(da, rng), random_hermitian(db, rng)
        assert mat_close(partial_trace(tensor(a, b), [da, db], [0]), a * np.trace(b), 1e-9)
        assert mat_close(partial_trace(tensor(a, b), [da, db], [1]), b * np.trace(a), 1e-9)


def test_partial_trace_bell_marginal():
    bell = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    assert mat_close(partial_trace(dyad(bell), [2, 2], [0]), I2 / 2)
    assert mat_close(partial_trace(dyad(bell), [2, 2], [1]), I2 / 2)


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(17)
    for _ in range(20):
        m = random_hermitian(12, rng)
        for keep in ([0], [1], [2], [0, 2], [1, 2]):
            reduced = partial_trace(m, [2, 3, 2], keep)
            assert abs(np.trace(reduced) - np.trace(m)) <= 1e-9


def test_partial_trace_middle_subsystem():
    rng = np.random.default_rng(19)
    a, b, c = (random_hermitian(2, rng) for _ in range(3))
    got = partial_trace(tensor(a, b, c), [2, 2, 2], [0, 2])
    assert mat_close(got, tensor(a, c) * np.trace(b), 1e-9)


def test_partial_trace_errors():
    with pytest.raises(ValueError, match="bad-partition"):
        partial_trace(np.eye(4), [2, 3], [0])
    with pytest.raises(ValueError, match="bad-partition"):
        partial_trace(np.eye(4), [2, 2], [])
    with pytest.raises(ValueError, match="bad-partition"):
        partial_trace(np.eye(4), [2, 2], [5])
    psi = np.ones(4, dtype=complex) / 2
    for bad in ((psi, [2, 3], [0]), (np.eye(2), [2, 2], [0]), (psi, [2, 2], []), (psi, [2, 2], [5])):
        with pytest.raises(ValueError, match="bad-partition"):
            reduce_pure(*bad)


def test_reduce_pure_matches_dense_partial_trace():
    # the dense dyad-then-trace path is the oracle, for every nonempty keep
    # set (non-contiguous ones included) given in any order
    rng = np.random.default_rng(41)
    for dims in ([2, 3, 2], [2] * 6):
        for _ in range(3):
            psi = random_state(int(np.prod(dims)), rng)
            rho = dyad(psi)
            for size in range(1, len(dims) + 1):
                for keep in combinations(range(len(dims)), size):
                    want = partial_trace(rho, dims, keep)
                    assert mat_close(reduce_pure(psi, dims, keep), want, 1e-14), (dims, keep)
                    assert mat_close(reduce_pure(psi, dims, keep[::-1]), want, 1e-14), (dims, keep)


def test_reduce_support_matches_dense_oracle_on_random_sparse_states():
    # seeded supports in random order, three states per call, on every keep
    # set; small traced spaces put several terms in one traced group
    rng = np.random.default_rng(43)
    most_terms = 0
    for bits in (1, 2, 3, 5, 7):
        for size in sorted(s for s in {1, 2, 5, 1 << (bits - 1), 1 << bits} if s <= 1 << bits):
            indices = np.array([rng.choice(1 << bits, size, replace=False) for _ in range(3)])
            amps = rng.standard_normal(indices.shape) + 1j * rng.standard_normal(indices.shape)
            amps /= np.linalg.norm(amps, axis=1, keepdims=True)
            dense = support_states(indices, amps, bits)
            assert np.array_equal(dense[np.arange(3)[:, None], indices], amps)
            assert np.count_nonzero(dense) == indices.size
            for count in range(1, bits + 1):
                for keep in combinations(range(bits), count):
                    got = reduce_support(indices, amps, bits, keep[::-1])
                    assert got.shape == (3, 1 << count, 1 << count)
                    for state, psi in zip(got, dense):
                        assert mat_close(state, reduce_pure(psi, [2] * bits, keep), 1e-14), (bits, size, keep)
                    mask = sum(1 << (bits - 1 - q) for q in keep)
                    groups = np.unique(indices[0] & ~mask, return_counts=True)[1]
                    most_terms = max(most_terms, int(groups.max()))
    assert most_terms >= 3


def test_reduce_support_sums_each_entry_in_ascending_traced_index():
    # a Python loop in the order of the dense product M M^dagger: from 0j,
    # one a_p conj(a_q) per traced index, ascending.  The parts of each
    # amplitude are small integers times powers of two far apart, so every
    # product of two parts is exact (numpy's complex product, with or without
    # fused multiply-adds, and Python's then round alike) and only the order
    # of the sums decides the last bits
    rng = np.random.default_rng(47)
    bits, keep = 6, (4, 1)
    indices = np.array([rng.permutation(1 << bits)[:40] for _ in range(2)])
    parts = rng.integers(-(1 << 20), 1 << 20, size=(2, *indices.shape)) * np.exp2(rng.integers(-20, 21, size=(2, *indices.shape)))
    amps = parts[0] + 1j * parts[1]
    got = reduce_support(indices, amps, bits, keep)
    shifts = [bits - 1 - q for q in sorted(keep)]
    for state, row, amp in zip(got, indices, amps):
        want = np.zeros_like(state)
        entries = {}
        for index, a in zip(row.tolist(), amp.tolist()):
            kept = sum(((index >> shift) & 1) << place for place, shift in enumerate(reversed(shifts)))
            traced = index & ~sum(1 << shift for shift in shifts)
            entries.setdefault(traced, []).append((kept, a))
        for traced in sorted(entries):
            for k1, a in entries[traced]:
                for k2, b in entries[traced]:
                    want[k1, k2] = complex(want[k1, k2]) + a * b.conjugate()
        assert np.array_equal(state, want)
        assert max(len(group) for group in entries.values()) >= 3


def test_reduce_support_errors():
    indices, amps = np.array([[0, 3]]), np.array([[0.6, 0.8]], dtype=complex)
    for bad in (
        (indices[0], amps[0], 2, [0]),  # one state, not a stack of them
        (indices, amps[:, :1], 2, [0]),
        (indices + 1, amps, 2, [0]),
        (indices - 1, amps, 2, [0]),
        (indices, amps, 2, []),
        (indices, amps, 2, [2]),
    ):
        with pytest.raises(ValueError, match="bad-partition"):
            reduce_support(*bad)


def test_in_span_identity():
    ok, residual = in_span(np.eye(4), [tensor(I2, I2)])
    assert ok and residual <= EPS


def test_in_span_full_pauli_product_basis():
    paulis = [I2, X, Y, Z]
    basis = [tensor(a, b) for a in paulis for b in paulis]
    ok, residual = in_span(tensor(X, X), basis)
    assert ok and residual <= 1e-12


def test_in_span_empty_basis():
    ok, residual = in_span(X, [])
    assert not ok
    assert abs(residual - np.linalg.norm(X)) <= 1e-12


def test_in_span_reflexive():
    rng = np.random.default_rng(23)
    basis = [random_hermitian(3, rng) for _ in range(5)]
    for b in basis:
        ok, residual = in_span(b, basis)
        assert ok and residual <= EPS * np.linalg.norm(b)


def test_in_span_monotone():
    rng = np.random.default_rng(29)
    target = random_hermitian(4, rng)
    basis = [random_hermitian(4, rng) for _ in range(3)]
    _, r1 = in_span(target, basis)
    for _ in range(10):
        basis.append(random_hermitian(4, rng))
        _, r2 = in_span(target, basis)
        assert r2 <= r1 + 1e-9
        r1 = r2


def full_row_in_span(target, basis, eps=EPS):
    """``in_span`` as a least-squares solve on every dim^2 row, zero rows
    included, with lstsq's default cutoff."""
    tvec = np.asarray(target, dtype=complex).reshape(-1)
    tnorm = float(np.linalg.norm(tvec))
    if not basis:
        return False, tnorm
    cols = np.column_stack([np.asarray(b, dtype=complex).reshape(-1) for b in basis])
    coeffs, *_ = np.linalg.lstsq(cols, tvec, rcond=None)
    residual = float(np.linalg.norm(tvec - cols @ coeffs))
    return residual <= eps * tnorm, residual


def sparse_operator(dim, rows, rng):
    """A random complex dim x dim operator, nonzero only on the vectorized
    entries ``rows``."""
    m = np.zeros(dim * dim, dtype=complex)
    m[rows] = rng.standard_normal(len(rows)) + 1j * rng.standard_normal(len(rows))
    return m.reshape(dim, dim)


@pytest.mark.parametrize("seed", range(12))
def test_live_row_in_span_matches_the_full_row_solve(seed):
    # operators that share few nonzero rows, on an 8 x 8 space whose 64 rows
    # are mostly zero in every one of them; bases empty (seeds 0, 4, 8),
    # independent, or rank-deficient through repeated and combined members
    # (odd seeds), and targets in, out of and partly in their span
    rng = np.random.default_rng(900 + seed)
    dim = 8
    rows = rng.choice(dim * dim, size=12, replace=False)
    basis = [sparse_operator(dim, rng.choice(rows, size=rng.integers(1, 6), replace=False), rng) for _ in range(seed % 4)]
    if basis and seed % 2:
        basis += [basis[0], 2.0 * basis[-1] - 1j * basis[0]]
    outside = sparse_operator(dim, rng.choice(rows, size=4, replace=False), rng)
    targets = [outside, np.zeros((dim, dim), dtype=complex)]
    if basis:
        inside = sum(complex(c) * b for c, b in zip(rng.standard_normal(len(basis)), basis))
        targets += [inside, inside + 1e-3 * outside]
    for target in targets:
        want = full_row_in_span(target, basis)
        got = in_span(target, basis)
        assert got[0] == want[0]
        assert abs(got[1] - want[1]) <= 1e-12 * np.linalg.norm(target)


def test_in_span_keeps_the_full_matrix_rank_cutoff():
    # singular values sqrt(2) and 3.5e-15: under the default cutoff of the
    # full 64-row matrix (1.4e-14 relative) but over that of its 2 live rows
    # (4.4e-16), so solving on those rows must not see a second direction
    v, w = np.zeros((8, 8), dtype=complex), np.zeros((8, 8), dtype=complex)
    v[0, 0], w[3, 5] = 1.0, 1.0
    basis = [v, v + 5e-15 * w]
    assert in_span(w, basis) == full_row_in_span(w, basis)
    assert in_span(w, basis)[0] is False


def test_in_span_with_no_live_row():
    # a zero target against zero operators leaves no row to solve on
    zero = np.zeros((4, 4), dtype=complex)
    assert in_span(zero, [zero, zero]) == full_row_in_span(zero, [zero, zero]) == (True, 0.0)
    ok, residual = in_span(np.eye(4), [zero])
    assert not ok and residual == 2.0


def test_predicates():
    assert is_hermitian(X) and is_hermitian(Y)
    assert not is_hermitian(X + 1j * I2)
    assert is_unitary(X) and is_unitary((X + Y) / np.sqrt(2) @ Z)
    assert not is_unitary(2 * X)
    assert is_density(I2 / 2)
    assert is_density(dyad(np.array([1, 0], dtype=complex)))
    assert not is_density(X)
    assert not is_density(I2)


def test_commutator_and_dagger():
    assert mat_close(commutator(X, Z), X @ Z - Z @ X)
    assert mat_close(dagger(1j * X), -1j * X)


def test_hermitian_basis_spans():
    basis = hermitian_basis(3)
    assert len(basis) == 9
    assert all(is_hermitian(b) for b in basis)
    rng = np.random.default_rng(31)
    target = random_hermitian(3, rng)
    ok, residual = in_span(target, basis)
    assert ok, residual


def test_random_helpers():
    rng = np.random.default_rng(37)
    v = random_state(6, rng)
    assert abs(np.linalg.norm(v) - 1.0) <= 1e-12
    u = random_unitary(4, rng)
    assert is_unitary(u, 1e-9)
