from itertools import combinations

import numpy as np
import pytest

from bmvsim.statecore import (
    EPS,
    commutator,
    dagger,
    dyad,
    frobenius,
    hermitian_basis,
    in_span,
    is_density,
    is_hermitian,
    is_unitary,
    mat_close,
    partial_trace,
    random_hermitian,
    random_state,
    random_unitary,
    reduce_pure,
    tensor,
)

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)


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
    assert abs(residual - frobenius(X)) <= 1e-12


def test_in_span_reflexive():
    rng = np.random.default_rng(23)
    basis = [random_hermitian(3, rng) for _ in range(5)]
    for b in basis:
        ok, residual = in_span(b, basis)
        assert ok and residual <= EPS * frobenius(b)


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
