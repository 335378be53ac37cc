"""Shared exact-tolerance complex linear algebra.

All equality decisions in this package are tolerance based: scalars, vectors
and matrices compare equal when the largest entrywise deviation is at most
``EPS``.  The protocols simulated here produce values that are exact rationals
or multiples of 1/sqrt(2), so the default of 1e-10 is loose by several orders
of magnitude relative to float64 rounding while still rejecting any genuine
mismatch.

Index convention (used by every module): Kronecker products are row major,
``tensor(a, b)`` sends the basis pair (i, j) to index ``i * dim_b + j``.  The
first tensor factor is therefore the most significant "digit" of a basis
index.  Partial traces and operator embeddings rely on this bit-exactly.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

#: Global numeric tolerance for equality tests and verdicts.
EPS = 1e-10

#: The smallest tolerance a verdict may be asked for.  The largest rounding
#: deviation any check meets is 1.6e-15 (a purity); the anyon rows pass at
#: eps 1e-14 and fail at 1e-15, and every pinned command passes at 1e-12.
EPS_MIN = 1e-12


def close(a: complex, b: complex, eps: float = EPS) -> bool:
    """Tolerance-based scalar equality: |a - b| <= eps."""
    return abs(a - b) <= eps


def mat_close(a: np.ndarray, b: np.ndarray, eps: float = EPS) -> bool:
    """Entrywise tolerance equality of two arrays of the same shape."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        return False
    return bool(np.max(np.abs(a - b)) <= eps) if a.size else True


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(m).conj().T


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


def is_hermitian(m: np.ndarray, eps: float = EPS) -> bool:
    m = np.asarray(m)
    return m.ndim == 2 and m.shape[0] == m.shape[1] and mat_close(m, dagger(m), eps)


def is_density(m: np.ndarray, eps: float = EPS) -> bool:
    """Hermitian, unit trace, and no eigenvalue below -eps."""
    m = np.asarray(m)
    if not is_hermitian(m, eps):
        return False
    if not close(np.trace(m), 1.0, eps):
        return False
    return bool(np.min(np.linalg.eigvalsh(m)) >= -eps)


def dyad(v: np.ndarray) -> np.ndarray:
    """|v><v| as a matrix."""
    v = np.asarray(v, dtype=complex)
    return np.outer(v, v.conj())


def tensor(*ops: np.ndarray) -> np.ndarray:
    """Kronecker product of one or more operators, row-major convention."""
    if not ops:
        raise ValueError("tensor requires at least one operator")
    return reduce(np.kron, (np.asarray(o, dtype=complex) for o in ops))


def _split(dims: list[int], keep) -> tuple[list[int], list[int]]:
    """Sorted kept and traced subsystem indices; ``keep`` must be a nonempty subset."""
    keep = sorted(set(int(k) for k in keep))
    if not keep or keep[0] < 0 or keep[-1] >= len(dims):
        raise ValueError("bad-partition: keep must be a nonempty subset of subsystem indices")
    return keep, [i for i in range(len(dims)) if i not in keep]


def partial_trace(m: np.ndarray, dims: list[int], keep) -> np.ndarray:
    """Trace out the subsystems not listed in ``keep``.

    ``dims`` lists the subsystem dimensions in tensor order and must multiply
    to the matrix dimension; ``keep`` is a nonempty set of 0-based subsystem
    indices.  Kept subsystems retain their original relative order.  The trace
    of the result equals the trace of ``m``.
    """
    m = np.asarray(m, dtype=complex)
    dims = [int(d) for d in dims]
    total = int(np.prod(dims))
    if m.ndim != 2 or m.shape != (total, total):
        raise ValueError("bad-partition: matrix dimension does not match subsystem dims")
    keep, traced = _split(dims, keep)
    t = m.reshape(dims + dims)
    for ax in sorted(traced, reverse=True):
        half = t.ndim // 2
        t = np.trace(t, axis1=ax, axis2=ax + half)
    kept_dim = int(np.prod([dims[i] for i in keep]))
    return t.reshape(kept_dim, kept_dim)


def reduce_pure(psi: np.ndarray, dims: list[int], keep) -> np.ndarray:
    """``partial_trace(dyad(psi), dims, keep)`` without forming the dyad: the
    state as a (kept, rest) matrix M gives M M^dagger, kept subsystems in
    their original relative order."""
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (int(np.prod(dims)),):
        raise ValueError("bad-partition: vector length does not match subsystem dims")
    keep, rest = _split(dims, keep)
    m = psi.reshape(dims).transpose(keep + rest).reshape(int(np.prod([dims[i] for i in keep])), -1)
    return m @ m.conj().T


def in_span(target: np.ndarray, basis, eps: float = EPS) -> tuple[bool, float]:
    """Least-squares membership of ``target`` in the span of ``basis``.

    Each operator is vectorized into a dim^2 column; the returned residual is
    the Euclidean distance from the target to the column space.  The target is
    decomposable iff residual <= eps * ||target||_F.  An empty basis yields
    (False, ||target||_F).
    """
    target = np.asarray(target, dtype=complex)
    tvec = target.reshape(-1)
    tnorm = float(np.linalg.norm(tvec))
    basis = list(basis)
    if not basis:
        return False, tnorm
    cols = np.column_stack([np.asarray(b, dtype=complex).reshape(-1) for b in basis])
    if cols.shape[0] != tvec.shape[0]:
        raise ValueError("bad-partition: basis operators must match the target dimension")
    coeffs, *_ = np.linalg.lstsq(cols, tvec, rcond=None)
    residual = float(np.linalg.norm(tvec - cols @ coeffs))
    return residual <= eps * tnorm, residual


def hermitian_basis(dim: int) -> list[np.ndarray]:
    """A real-linear basis of the dim x dim Hermitian matrices (dim^2 elements)."""
    out = []
    for i in range(dim):
        e = np.zeros((dim, dim), dtype=complex)
        e[i, i] = 1.0
        out.append(e)
    for i in range(dim):
        for j in range(i + 1, dim):
            s = np.zeros((dim, dim), dtype=complex)
            s[i, j] = s[j, i] = 1.0
            out.append(s)
            a = np.zeros((dim, dim), dtype=complex)
            a[i, j] = -1.0j
            a[j, i] = 1.0j
            out.append(a)
    return out


def random_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random unit vector."""
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + dagger(g)) / 2

