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


def read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays, each made read-only in place: constants of a model that
    every run shares, so no caller can write them."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


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


def support_states(indices: np.ndarray, amplitudes: np.ndarray, bits: int) -> np.ndarray:
    """The dense vectors of pure states on ``bits`` qubits held on their
    support: row c holds ``amplitudes[c]`` at ``indices[c]`` and +0.0 elsewhere."""
    states = np.zeros((len(indices), 1 << bits), dtype=complex)
    states[np.arange(len(indices))[:, None], indices] = amplitudes
    return states


def reduce_support(indices: np.ndarray, amplitudes: np.ndarray, bits: int, keep) -> np.ndarray:
    """``partial_trace(dyad(psi), [2] * bits, keep)`` of many pure states at
    once, each given on its support: row c of the (states, support) arrays
    ``indices`` and ``amplitudes`` is one state, with distinct indices.
    Returns the (states, 2^len(keep), 2^len(keep)) stack, kept qubits in
    their original relative order.

    Two support entries add a_p conj(a_q) to the entry of their kept bits when
    their traced bits agree, so only those pairs are formed.  Each entry is
    accumulated from +0.0 in ascending traced index, as the dense product
    M M^dagger of the state as a (kept, traced) matrix sums it: the product of
    a zero amplitude changes no nonzero sum, so the two agree bit for bit
    where that product rounds as numpy's complex product does."""
    indices = np.asarray(indices, dtype=np.int64)
    amplitudes = np.asarray(amplitudes, dtype=complex)
    if indices.ndim != 2 or indices.shape != amplitudes.shape:
        raise ValueError("bad-partition: indices and amplitudes must be (states, support) arrays of one shape")
    if indices.size and not 0 <= indices.min() <= indices.max() < 1 << bits:
        raise ValueError(f"bad-partition: basis index outside the {bits}-qubit space")
    keep, _ = _split([2] * bits, keep)
    kept = np.zeros_like(indices)
    for shift in (bits - 1 - q for q in keep):
        kept = kept << 1 | (indices >> shift) & 1
    traced = indices & ~sum(1 << (bits - 1 - q) for q in keep)  # traced bits in place: the same order
    count, dim = len(indices), 1 << len(keep)
    state, p, q = np.nonzero(traced[:, :, None] == traced[:, None, :])
    order = np.argsort(traced[state, p], kind="stable")
    state, p, q = state[order], p[order], q[order]
    out = np.zeros((count, dim, dim), dtype=complex)
    np.add.at(out, (state, kept[state, p], kept[state, q]), amplitudes[state, p] * amplitudes[state, q].conj())
    return out


def in_span(target: np.ndarray, basis, eps: float = EPS) -> tuple[bool, float]:
    """Least-squares membership of ``target`` in the span of ``basis``.

    Each operator is vectorized into a dim^2 column; the returned residual is
    the Euclidean distance from the target to the column space.  The fit is
    solved on the live rows only, where the target or some basis operator is
    nonzero: a row that is zero throughout adds nothing to the fit or to the
    residual.  The target is decomposable iff residual <= eps * ||target||_F.
    An empty basis yields (False, ||target||_F).
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
    # lstsq's default cutoff for the full matrix: zero rows leave its singular
    # values, and so the rank it finds, as they were
    rcond = np.finfo(float).eps * max(cols.shape)
    live = np.flatnonzero((tvec != 0) | cols.any(axis=1))
    cols, tvec = cols[live], tvec[live]
    coeffs, *_ = np.linalg.lstsq(cols, tvec, rcond=rcond)
    # not cols @ coeffs: that tall-thin product can stall on two BLAS threads
    residual = float(np.linalg.norm(tvec - (cols * coeffs).sum(axis=1)))
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
