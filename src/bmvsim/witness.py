"""Model-agnostic entanglement certification for pure bipartite states.

A pure state of a bipartite system is *uncorrelated* when every product of
local observables has a factorizing expectation value,

    Tr(A rho) * Tr(B rho) == Tr(product(A, B) rho)

for all local observables A of the first sector and B of the second.  A pure
state that is not uncorrelated is entangled.  Quantifying over "all" local
observables reduces, by linearity of the trace, to checking a spanning set of
each local observable algebra; the protocol modules supply those spanning
sets, and the tests exercise the reduction by adding random span elements.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from .statecore import EPS, close, is_density, is_hermitian

MatrixProduct = Callable[[np.ndarray, np.ndarray], np.ndarray]

# Tr(A rho) of Hermitian A and rho is real (its imaginary part is exactly 0
# on every protocol); a larger relative imaginary part means a non-Hermitian
# input, an error rather than a verdict, so this does not follow eps.
_IMAG_TOL = 1e-8

# Floors under eps for the input guards of uncorrelated_test and purity, and
# for the singular values schmidt_rank counts.  They check inputs, not
# verdicts, which may be asked for at an eps below float64 rounding (the CLI
# accepts 1e-30).  On the protocols' matter states and mediators the trace
# is off by at most 7.8e-16, the lowest eigenvalue is -1.4e-16, the purity is
# off by 1.6e-15 and a zero Schmidt coefficient reads 2.5e-16.
_ROUNDING_FLOOR = 1e-12
_PURITY_FLOOR = 1e-9


def matmul_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Default composition of two embedded local observables."""
    return a @ b


@dataclass(frozen=True)
class LocalObservableSet:
    """Hermitian observables of one subsystem, embedded in the joint space."""

    subsystem: str
    matrices: tuple[np.ndarray, ...]

    def __post_init__(self):
        for m in self.matrices:
            if not is_hermitian(m):
                raise ValueError(f"observable set {self.subsystem!r} contains a non-Hermitian matrix")

    def __len__(self) -> int:
        return len(self.matrices)


@dataclass
class CorrelationRow:
    """Expectation data for one observable pair."""

    index_a: int
    index_b: int
    expect_a: float
    expect_b: float
    expect_product: float

    @property
    def violation(self) -> float:
        return abs(self.expect_a * self.expect_b - self.expect_product)


@dataclass
class WitnessReport:
    purity: float
    uncorrelated: bool
    violating_pair: tuple[int, int] | None
    lhs: float
    rhs: float
    max_violation: float
    correlations: list[CorrelationRow]
    eps: float

    @property
    def entangled(self) -> bool:
        """Pure and not uncorrelated, at the tolerance the report was made with."""
        return close(self.purity, 1.0, self.eps * max(1.0, abs(self.purity))) and not self.uncorrelated


@dataclass
class ProtocolStep:
    """One checkpoint of a mediation protocol."""

    label: str
    state: object
    mediator: np.ndarray
    matter: np.ndarray


@dataclass
class ProtocolTrace:
    model: str
    steps: list[ProtocolStep]
    report: WitnessReport
    summary: dict = field(default_factory=dict)


def _expectation(op: np.ndarray, rho: np.ndarray) -> float:
    val = complex(np.trace(op @ rho))
    if abs(val.imag) > _IMAG_TOL * max(1.0, abs(val)):
        raise ValueError(f"expectation value is not real: {val}")
    return float(val.real)


def purity(rho: np.ndarray, eps: float = EPS) -> float:
    """Tr(rho^2) of a density operator; lies in [1/dim, 1]."""
    rho = np.asarray(rho, dtype=complex)
    tol = max(eps, _ROUNDING_FLOOR)
    if not is_density(rho, tol):
        raise ValueError("not-density: purity requires a density operator")
    p = float(np.real(np.trace(rho @ rho)))
    dim = rho.shape[0]
    if not (1.0 / dim - tol <= p <= 1.0 + tol):
        raise ValueError(f"not-density: purity {p} outside [1/{dim}, 1]")
    return p


def uncorrelated_test(
    state: np.ndarray,
    set_a: LocalObservableSet,
    set_b: LocalObservableSet,
    product: MatrixProduct = matmul_product,
    eps: float = EPS,
) -> WitnessReport:
    """Check the factorization of expectations over all observable pairs.

    ``state`` is a pure state, given either as a vector or as a density
    operator with purity 1 (within eps); mixed inputs raise ``not-pure``.
    ``product`` composes one observable from each set into a joint observable
    (matrix product by default).  The report flags the state as uncorrelated
    iff every pair satisfies the factorization equality within eps; otherwise
    the maximal-violation pair is recorded, ties broken by lowest index pair.
    """
    state = np.asarray(state, dtype=complex)
    if state.ndim == 1:
        nrm = np.linalg.norm(state)
        if not close(nrm, 1.0, eps):
            raise ValueError("not-pure: state vector is not normalized")
        rho = np.outer(state, state.conj())
    else:
        rho = state
    if not is_density(rho, max(eps, _ROUNDING_FLOOR)):
        raise ValueError("not-pure: input is not a density operator")
    p = float(np.real(np.trace(rho @ rho)))
    if not close(p, 1.0, max(eps, _PURITY_FLOOR)):
        raise ValueError(f"not-pure: purity {p} differs from 1")

    expect_b = [_expectation(b, rho) for b in set_b.matrices]
    rows: list[CorrelationRow] = []
    best: CorrelationRow | None = None
    for i, a in enumerate(set_a.matrices):
        ea = _expectation(a, rho)
        for j, (b, eb) in enumerate(zip(set_b.matrices, expect_b)):
            eab = _expectation(product(a, b), rho)
            row = CorrelationRow(i, j, ea, eb, eab)
            rows.append(row)
            if best is None or row.violation > best.violation + eps:
                best = row

    max_violation = best.violation if best is not None else 0.0
    uncorrelated = max_violation <= eps
    if uncorrelated or best is None:
        return WitnessReport(p, True, None, 0.0, 0.0, max_violation, rows, eps)
    return WitnessReport(
        purity=p,
        uncorrelated=False,
        violating_pair=(best.index_a, best.index_b),
        lhs=best.expect_a * best.expect_b,
        rhs=best.expect_product,
        max_violation=max_violation,
        correlations=rows,
        eps=eps,
    )


def schmidt_rank(state: np.ndarray, dim_a: int, dim_b: int, eps: float = EPS) -> int:
    """Number of nonzero Schmidt coefficients across the dim_a | dim_b cut."""
    state = np.asarray(state, dtype=complex)
    if state.size != dim_a * dim_b:
        raise ValueError("bad-partition: state length must equal dim_a * dim_b")
    sv = np.linalg.svd(state.reshape(dim_a, dim_b), compute_uv=False)
    return int(np.sum(sv > max(eps, _ROUNDING_FLOOR)))


def run_protocol(
    model: str,
    initial,
    gates: Iterable[tuple[str, Callable]],
    reduce: Callable,
    marginals: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    x_observables: tuple[np.ndarray, np.ndarray, np.ndarray],
    observable_sets: tuple[LocalObservableSet, LocalObservableSet],
    product: MatrixProduct = matmul_product,
    eps: float = EPS,
) -> ProtocolTrace:
    """Apply ``gates`` to ``initial``, reducing each checkpoint, and certify
    the final matter state.

    ``gates`` yields (label, state -> state) pairs one at a time, so a gate
    matrix built inside a call is freed before the next.  ``reduce`` maps a
    state to (mediator, matter), ``marginals`` the final matter to (rho_Q1,
    rho_Q2); ``x_observables`` is (X of one qubit, X1, X2 embedded in the
    matter space).  Models add their own entries to the summary.
    """
    steps = [ProtocolStep("initial", initial, *reduce(initial))]
    state = initial
    for label, gate in gates:
        state = gate(state)
        steps.append(ProtocolStep(label, state, *reduce(state)))

    matter_final = steps[-1].matter
    rho_q1, rho_q2 = marginals(matter_final)
    x_local, x1, x2 = x_observables
    set_q1, set_q2 = observable_sets
    report = uncorrelated_test(matter_final, set_q1, set_q2, product=product, eps=eps)
    summary = {
        "mediator_sequence": [step.mediator for step in steps],
        "rho_q1": rho_q1,
        "rho_q2": rho_q2,
        "x1_expect": float(np.real(np.trace(x_local @ rho_q1))),
        "x2_expect": float(np.real(np.trace(x_local @ rho_q2))),
        "x1x2_expect": float(np.real(np.trace(x1 @ x2 @ matter_final))),
        "matter_purity": purity(matter_final, eps),
        "initial_report": uncorrelated_test(steps[0].matter, set_q1, set_q2, product=product, eps=eps),
    }
    return ProtocolTrace(model, steps, report, summary)
