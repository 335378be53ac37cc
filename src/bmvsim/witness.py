"""Model-agnostic entanglement certification for pure bipartite states.

A pure state of a bipartite system is *uncorrelated* when every product of
local observables has a factorizing expectation value,

    Tr(A rho) * Tr(B rho) == Tr(A B rho)

for all local observables A of the first sector and B of the second.  A pure
state that is not uncorrelated is entangled.  Quantifying over "all" local
observables reduces, by linearity of the trace, to checking a spanning set of
each local observable algebra; the protocol modules supply those spanning
sets, and the tests exercise the reduction by adding random span elements.
All three models compose local observables by the matrix product of their
embeddings, which for a (x) 1 and 1 (x) b is the tensor composition a (x) b.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable

import numpy as np

from .statecore import EPS, EPS_MIN, close, is_density, mat_close

# Tr(A rho) of Hermitian A and rho is real (its imaginary part is exactly 0
# on every protocol); a larger relative imaginary part means a non-Hermitian
# input, an error rather than a verdict, so this does not follow eps.
_IMAG_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class LocalObservableSet:
    """Hermitian observables of one subsystem, embedded in the joint space.

    ``matrices`` may be given as any sequence of square matrices of one shape;
    the set holds them as one read-only (count, d, d) complex stack, which
    protocols may therefore share between runs.  A set compares and hashes
    by identity, so the products of a pair of sets can be cached.
    """

    subsystem: str
    matrices: np.ndarray

    def __post_init__(self):
        stack = np.array(self.matrices, dtype=complex)
        if stack.ndim == 1 and not stack.size:  # no observables
            stack = stack.reshape(0, 0, 0)
        square = stack.ndim == 3 and stack.shape[1] == stack.shape[2]
        if not (square and mat_close(stack, stack.conj().swapaxes(1, 2))):
            raise ValueError(f"observable set {self.subsystem!r} contains a non-Hermitian matrix")
        stack.flags.writeable = False
        object.__setattr__(self, "matrices", stack)

    def __len__(self) -> int:
        return len(self.matrices)


@dataclass(frozen=True)
class CorrelationTable:
    """Tr(A_i rho), Tr(B_j rho) and Tr(A_i B_j rho) of every observable pair,
    as float64 arrays of shapes (na,), (nb,) and (na, nb); its length is the
    number of pairs."""

    expect_a: np.ndarray
    expect_b: np.ndarray
    expect_product: np.ndarray

    def __len__(self) -> int:
        return self.expect_product.size


@dataclass
class WitnessReport:
    purity: float
    uncorrelated: bool
    violating_pair: tuple[int, int] | None
    lhs: float
    rhs: float
    max_violation: float
    correlations: CorrelationTable

    @property
    def entangled(self) -> bool:
        """Not uncorrelated: a report exists only for a pure state."""
        return not self.uncorrelated


@dataclass(frozen=True)
class ProtocolStep:
    """One checkpoint of a mediation protocol."""

    label: str
    state: object
    mediator: np.ndarray
    matter: np.ndarray


@dataclass(frozen=True)
class ProtocolTrace:
    """What one protocol run computed: its checkpoints, the witness reports of the
    final and the initial matter, the final matter's marginals (rho_Q1, rho_Q2),
    and the steps' states as ``reduce`` returned them: for a register model,
    one (checkpoints, 2^n) stack."""

    model: str
    steps: tuple[ProtocolStep, ...]
    report: WitnessReport
    initial_report: WitnessReport
    marginals: tuple[np.ndarray, np.ndarray]
    states: object


def _real(vals: np.ndarray) -> np.ndarray:
    """The real parts of expectation values, each checked to be real."""
    unreal = np.abs(vals.imag) > _IMAG_TOL * np.maximum(1.0, np.abs(vals))
    if unreal.any():
        raise ValueError(f"expectation value is not real: {complex(vals.flat[np.argmax(unreal)])}")
    return vals.real


def purity(rho: np.ndarray, eps: float = EPS) -> float:
    """Tr(rho^2) of a density operator; lies in [1/dim, 1]."""
    rho = np.asarray(rho, dtype=complex)
    if not is_density(rho, eps):
        raise ValueError("not-density: purity requires a density operator")
    p = float(np.real(np.trace(rho @ rho)))
    dim = rho.shape[0]
    if not (1.0 / dim - eps <= p <= 1.0 + eps):
        raise ValueError(f"not-density: purity {p} outside [1/{dim}, 1]")
    return p


@lru_cache(maxsize=4)
def _joint_products(set_a: LocalObservableSet, set_b: LocalObservableSet, dim: int) -> np.ndarray:
    """The joint observables A_i B_j of every pair of d x d observables, d =
    ``dim``, as one read-only (na, nb, d, d) stack.  Protocols share their
    sets between runs, so each pair of sets is multiplied once per process."""
    stack_a, stack_b = (s.matrices.reshape(-1, dim, dim) for s in (set_a, set_b))
    joint = stack_a[:, None] @ stack_b
    joint.flags.writeable = False
    return joint


def uncorrelated_test(
    rho: np.ndarray,
    set_a: LocalObservableSet,
    set_b: LocalObservableSet,
    eps: float = EPS,
) -> WitnessReport:
    """Check the factorization of expectations over all observable pairs.

    ``rho`` is the density operator of a pure state: an input that is not a
    density operator raises ``not-density``, one with purity other than 1
    (within eps) ``not-pure``, observables of another dimension
    ``bad-partition`` and an eps below ``EPS_MIN``, where rounding decides
    the verdict, ``bad-eps``.
    The joint observable of a pair is the matrix product A B, formed once
    per pair of sets (``_joint_products``).  Each expectation Tr(X rho) is
    computed from only the diagonal it sums: row x of X times column x of
    rho, summed over x, each stack of them in one stacked product of
    length-d dot products, which OpenBLAS runs on one thread.  The table
    takes na nb d^2 complex multiply-adds, where forming every (A B) rho
    would take na nb d^3, and is held as float64 arrays.  The report flags
    the state as uncorrelated iff every pair satisfies the factorization equality
    within eps; otherwise the maximal-violation pair is recorded, ties (within
    eps) broken by lowest index pair.
    """
    if not eps >= EPS_MIN:
        raise ValueError(f"bad-eps: eps {eps:g} is below the rounding bound {EPS_MIN:g}")
    rho = np.asarray(rho, dtype=complex)
    p = purity(rho, eps)
    if not close(p, 1.0, eps):
        raise ValueError(f"not-pure: purity {p} differs from 1")

    dim = rho.shape[0]
    if any(len(s) and s.matrices.shape[1:] != (dim, dim) for s in (set_a, set_b)):
        raise ValueError(f"bad-partition: observable matrices must be {dim} x {dim}, as the state")
    columns = rho.T[:, :, None]

    def traces(stack: np.ndarray) -> np.ndarray:
        return (stack[..., None, :] @ columns)[..., 0, 0].sum(axis=-1)

    stack_a, stack_b = (s.matrices.reshape(-1, dim, dim) for s in (set_a, set_b))
    expect_a, expect_b = _real(traces(stack_a)), _real(traces(stack_b))
    table = CorrelationTable(expect_a, expect_b, _real(traces(_joint_products(set_a, set_b, dim))))

    # The same IEEE operations as |ea * eb - eab| on Python floats.  A pair
    # that exceeds the record by more than eps becomes the record, as in a
    # scan in pair order; the loop jumps from one record to the next.
    violations = np.abs(expect_a[:, None] * expect_b - table.expect_product).ravel()
    best = 0
    while best + 1 < violations.size:
        later = violations[best + 1 :] > violations[best] + eps
        if not later.any():
            break
        best += 1 + int(np.argmax(later))
    max_violation = float(violations[best]) if violations.size else 0.0
    if max_violation <= eps:
        return WitnessReport(p, True, None, 0.0, 0.0, max_violation, table)
    i, j = divmod(best, len(expect_b))
    return WitnessReport(
        purity=p,
        uncorrelated=False,
        violating_pair=(i, j),
        lhs=float(expect_a[i] * expect_b[j]),
        rhs=float(table.expect_product[i, j]),
        max_violation=max_violation,
        correlations=table,
    )


def schmidt_rank(state: np.ndarray, dim_a: int, dim_b: int, eps: float = EPS) -> int:
    """Number of nonzero Schmidt coefficients across the dim_a | dim_b cut."""
    state = np.asarray(state, dtype=complex)
    if state.size != dim_a * dim_b:
        raise ValueError("bad-partition: state length must equal dim_a * dim_b")
    sv = np.linalg.svd(state.reshape(dim_a, dim_b), compute_uv=False)
    return int(np.sum(sv > eps))


def run_protocol(
    model: str,
    initial,
    gates: Iterable[tuple[str, Callable]],
    reduce: Callable,
    marginals: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    observable_sets: tuple[LocalObservableSet, LocalObservableSet],
    eps: float = EPS,
) -> ProtocolTrace:
    """Apply ``gates`` to ``initial``, reduce every checkpoint in one call,
    and certify the initial and the final matter state.

    ``gates`` yields (label, state -> state) pairs; a gate acts on the
    state's own form (a pure state's support, or an anyon state in one
    partition) and builds no matrix.  ``reduce`` maps the list of checkpoint
    states to the sequences of their recorded states, mediators and matters,
    ``marginals`` the final matter to (rho_Q1, rho_Q2).
    """
    labels, states = ["initial"], [initial]
    for label, gate in gates:
        labels.append(label)
        states.append(gate(states[-1]))
    recorded, mediators, matters = reduce(states)
    steps = tuple(ProtocolStep(*fields) for fields in zip(labels, recorded, mediators, matters, strict=True))

    matter_final = steps[-1].matter
    set_q1, set_q2 = observable_sets
    report = uncorrelated_test(matter_final, set_q1, set_q2, eps=eps)
    initial_report = uncorrelated_test(steps[0].matter, set_q1, set_q2, eps=eps)
    return ProtocolTrace(model, steps, report, initial_report, marginals(matter_final), recorded)
