"""Acceptance checks: every headline claim of the three protocols, runnable
as one deterministic suite (also exposed through ``bmvsim verify-all``).

Each criterion compares computed values against pinned expectations at the
caller's tolerance.  A criterion that raises is a fault of the program, not a
failed expectation: the exception reaches the caller and no report is made.
"""

from __future__ import annotations

import math
import random
from functools import cache
from itertools import permutations, product
from typing import Iterator, NamedTuple

import numpy as np

from . import bit_antibit as bab
from . import fermion_ssr as fer
from . import ising_anyon as ia
from .statecore import (
    EPS,
    commutator,
    dyad,
    in_span,
    mat_close,
    partial_trace,
    read_only,
    tensor,
)
from .witness import ProtocolTrace, purity, schmidt_rank

#: The non-decomposable observable's span residual.  The target sits on the
#: offset of modes 2 and 3, with an entry of +-1 at each of the 16 kets that
#: hold both modes or neither, and the local products sit on offset 0: no
#: entry of one meets an entry of the others, so the fit is zero and the
#: residual is ||T||_F = sqrt(16) = 4.
EXPECTED_SPAN_RESIDUAL = 4.0

# Fixed bounds of criteria 5 and 11, which check identities on fixed or seeded
# inputs rather than protocol values: a loose caller eps must not pass a broken
# identity, and one below rounding must not fail a sound one.
# Criterion 5: the target lies at a distance of order one from the local
# product span, not of rounding size, and at the pinned one (off it by 0.0).
_SPAN_GAP_MIN = 0.1
_SPAN_PIN_TOL = 1e-9
# Criterion 11: the Kronecker identities on its seeded random Hermitian factors
# (entries up to 3.4 in modulus) are off by at most 1.9e-15.
_KRON_IDENTITY_TOL = 1e-9

_SQ2 = np.sqrt(2.0)


# ---------------------------------------------------------------------------
# pinned expected values


def fermion_expected_mediator_sequence() -> list[np.ndarray]:
    occupied = np.diag([0.0, 1.0]).astype(complex)
    mixed = np.diag([0.5, 0.5]).astype(complex)
    return [occupied, mixed, mixed, occupied]


def fermion_expected_matter_state() -> np.ndarray:
    """Final 4-mode matter state: (c1+c3)(c2+c4)|vac>/2 on the re-indexed modes."""
    c = {j: fer.creator_matrix(4, j) for j in range(1, 5)}
    return 0.5 * ((c[1] + c[3]) @ (c[2] + c[4]) @ fer.vacuum_state(4))


def _sector_vector(entries: dict[tuple[int, int, int], complex]) -> np.ndarray:
    v = np.zeros(ia.SECTOR_DIM, dtype=complex)
    for (x1, x2, u), a in entries.items():
        v[ia.sector_index(x1, x2, u)] = a
    return v


_H = 1.0 / _SQ2
_CENTER, _LEFT, _RIGHT = ia.Partition.CENTER, ia.Partition.LEFT, ia.Partition.RIGHT

#: The anyon protocol states shown for comparison, by name: (checkpoint, the
#: partition it is shown in, its pinned amplitudes there).
ANYON_DISPLAYS = {
    "initial_center": (0, _CENTER, _sector_vector({(1, 1, 0): _H, (1, 0, 0): _H})),
    "initial_right": (0, _RIGHT, _sector_vector({(1, 1, 0): 0.5, (1, 1, 2): -0.5j, (1, 0, 0): 0.5, (1, 0, 2): -0.5j})),
    "after_u_right": (1, _RIGHT, _sector_vector({(1, 1, 0): 0.5, (1, 1, 2): 0.5, (1, 0, 0): 0.5, (1, 0, 2): -0.5})),
    "after_u_left": (1, _LEFT, _sector_vector({(1, 1, 0): _H, (1, 0, 2): _H})),
    "after_v_left": (2, _LEFT, _sector_vector({(1, 1, 0): _H, (0, 0, 2): _H})),
    "after_v_right": (2, _RIGHT, _sector_vector({(1, 1, 0): 0.5, (1, 1, 2): 0.5, (0, 0, 0): 0.5, (0, 0, 2): -0.5})),
    "after_w_right": (3, _RIGHT, _sector_vector({(1, 1, 0): 0.5, (1, 1, 2): -0.5j, (0, 0, 0): 0.5, (0, 0, 2): -0.5j})),
    "final_center": (3, _CENTER, _sector_vector({(1, 1, 0): _H, (0, 0, 0): _H})),
}


def bab_expected_matter_state() -> np.ndarray:
    """Final matter state on (A1, B1, B_last, A2): four equal basis terms."""
    v = np.zeros(16, dtype=complex)
    for idx in (0b0000, 0b1010, 0b0101, 0b1111):
        v[idx] = 0.5
    return v


def _projector(dim: int, index: int) -> np.ndarray:
    m = np.zeros((dim, dim), dtype=complex)
    m[index, index] = 1.0
    return m


# ---------------------------------------------------------------------------
# per-model expectation tables: the rows of the ``run`` report, and what
# criteria 1-3 and 7-10 read


#: The protocol runner of each model, in report order (shared with the CLI).
RUNNERS = {
    "fermion": fer.run_fermion_protocol,
    "anyon": ia.run_anyon_protocol,
    "bitantibit": bab.run_bit_antibit_protocol,
}


class Row(NamedTuple):
    """A value computed by a protocol run and the value pinned for it: a bool
    pin must match exactly, a number or array pin within eps in every entry."""

    name: str
    computed: object
    pinned: object

    def deviation(self) -> float:
        return float(np.max(np.abs(np.asarray(self.computed) - np.asarray(self.pinned))))

    def passes(self, eps: float) -> bool:
        return self.computed == self.pinned if isinstance(self.pinned, bool) else self.deviation() <= eps


@cache
def _model_pins(model: str) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(x_local, x1, x2, final_matter)`` of ``model``: X of one matter qubit,
    X embedded on each qubit of the matter, and the pinned final matter.  They
    are constants of the model, built once per process and read-only, so the
    rows of every run share them."""
    if model == "fermion":
        hop = fer.hopping_observable
        pins = hop(2, 1, 2), hop(4, 1, 2), hop(4, 3, 4), dyad(fermion_expected_matter_state())
    elif model == "anyon":
        x = ia.QUBIT_X
        pins = x, ia.embed(x, 1), ia.embed(x, 2), dyad(ANYON_DISPLAYS["final_center"][2])
    else:
        x, eye = bab.pair_flip_observable(), np.eye(4)
        pins = x, tensor(x, eye), tensor(eye, x), dyad(bab_expected_matter_state())
    return read_only(*pins)


def _x_expectations(trace: ProtocolTrace) -> tuple[float, float, float]:
    """<X1>, <X2> from X of one qubit on each marginal, and <X1 X2> from X embedded on each qubit."""
    x_local, x1, x2, _ = _model_pins(trace.model)
    rho_q1, rho_q2 = trace.marginals
    return (
        float(np.real(np.trace(x_local @ rho_q1))),
        float(np.real(np.trace(x_local @ rho_q2))),
        float(np.real(np.trace(x1 @ x2 @ trace.steps[-1].matter))),
    )


def _fermion_rows(trace: ProtocolTrace, eps: float) -> Iterator[Row]:
    sequence = zip(trace.steps, fermion_expected_mediator_sequence(), strict=True)
    marginal = np.eye(4) / 4
    x1, x2, x1x2 = _x_expectations(trace)
    yield from (Row(f"mediator[{step.label}]", step.mediator, exp) for step, exp in sequence)
    yield Row("rho_q1", trace.marginals[0], marginal)
    yield Row("rho_q2", trace.marginals[1], marginal)
    yield Row("x1_expect", x1, 0.0)
    yield Row("x2_expect", x2, 0.0)
    yield Row("x1x2_expect", x1x2, -0.5)
    yield Row("final_matter", trace.steps[-1].matter, _model_pins("fermion")[3])


def _anyon_rows(trace: ProtocolTrace, eps: float) -> Iterator[Row]:
    marginal = np.eye(2) / 2
    for name, (index, shape, pinned) in ANYON_DISPLAYS.items():
        yield Row(f"display[{name}]", ia.change_partition(trace.steps[index].state, shape).amps, pinned)
    yield from (Row(f"mediator[{step.label}]", step.mediator, _projector(3, 1)) for step in trace.steps)
    yield from (Row(f"mediator_purity[{step.label}]", purity(step.mediator, eps), 1.0) for step in trace.steps)
    yield Row("final_matter", trace.steps[-1].matter, _model_pins("anyon")[3])
    x1, x2, x1x2 = _x_expectations(trace)
    yield Row("rho_q1", trace.marginals[0], marginal)
    yield Row("rho_q2", trace.marginals[1], marginal)
    yield Row("x1_expect", x1, 0.0)
    yield Row("x2_expect", x2, 0.0)
    yield Row("x1x2_expect", x1x2, 1.0)


def _bab_rows(trace: ProtocolTrace, eps: float) -> Iterator[Row]:
    start, end = trace.steps[0].mediator, trace.steps[-1].mediator
    # the mediator of k bits is 2^k x 2^k
    sig = bab.protocol_signature(len(start).bit_length() - 1)
    marginal = np.eye(4) / 4
    x1, x2, x1x2 = _x_expectations(trace)
    yield Row("final_matter", trace.steps[-1].matter, _model_pins("bitantibit")[3])
    yield Row("mediator_start", start, _projector(len(start), 0))
    yield Row("mediator_end", end, _projector(len(end), 0))
    checks = bab.validate_state(sig, trace.states, eps)
    yield Row("all_steps_valid", all(flag for flag, _ in checks), True)
    yield Row("rho_q1", trace.marginals[0], marginal)
    yield Row("rho_q2", trace.marginals[1], marginal)
    yield Row("x1_expect*x2_expect", x1 * x2, 0.0)
    yield Row("x1x2_expect", x1x2, 0.5)


_MODEL_ROWS = {"fermion": _fermion_rows, "anyon": _anyon_rows, "bitantibit": _bab_rows}


def model_rows(trace: ProtocolTrace, eps: float) -> Iterator[Row]:
    """The model's own rows, then the witness and purity rows of every model.  The
    values only the pins read (X correlations, purities, validity) are computed here."""
    yield from _MODEL_ROWS[trace.model](trace, eps)
    yield Row("initial_uncorrelated", trace.initial_report.uncorrelated, True)
    yield Row("final_entangled", trace.report.entangled, True)
    yield Row("matter_purity", trace.report.purity, 1.0)


def model_checks(trace: ProtocolTrace, eps: float = EPS) -> list[dict]:
    """The ``expected`` rows of the run report: each pinned value of one
    protocol run, as it is shown, and whether the run meets it."""
    checks = []
    for row in model_rows(trace, eps):
        if isinstance(row.pinned, np.ndarray):
            # the deviation is shown and decides the row: computed once
            deviation = row.deviation()
            expected, actual, ok = "deviation 0", f"deviation {deviation:.3g}", deviation <= eps
        elif isinstance(row.pinned, bool):
            expected, actual, ok = str(row.pinned), str(row.computed), row.passes(eps)
        else:
            expected, actual, ok = f"{row.pinned:g}", f"{row.computed:.12g}", row.passes(eps)
        checks.append({"name": row.name, "expected": expected, "actual": actual, "pass": ok})
    return checks


# ---------------------------------------------------------------------------
# the eleven acceptance criteria


def _group(rows: dict[str, Row], prefix: str) -> list[Row]:
    """The rows named ``prefix[...]``, one per checkpoint or display."""
    return [row for name, row in rows.items() if name.startswith(prefix + "[")]


def _passes(eps: float, *rows: Row) -> bool:
    return all(row.passes(eps) for row in rows)


def _crit_fermion_correlations(eps, tables, traces):
    rows = tables["fermion"]
    x1, x2, x1x2 = rows["x1_expect"], rows["x2_expect"], rows["x1x2_expect"]
    detail = f"<X1>={x1.computed:.3g} <X2>={x2.computed:.3g} <X1.X2>={x1x2.computed:.12g}"
    return _passes(eps, x1, x2, x1x2), detail


def _crit_fermion_mediator(eps, tables, traces):
    mediator = _group(tables["fermion"], "mediator")
    return _passes(eps, *mediator), f"max deviation {max(row.deviation() for row in mediator):.3g}"


def _crit_fermion_marginals(eps, tables, traces):
    rows = tables["fermion"]
    ok = _passes(eps, rows["rho_q1"], rows["rho_q2"])
    return ok, "rho_Q1 = rho_Q2 = I/4" if ok else "marginal deviates from I/4"


def _crit_observable_counting(eps, tables, traces):
    rows = fer.count_scaling_check(4)
    counts_ok = all(match for *_, match in rows)
    sets = {
        "Q1": fer.enumerate_physical_observables(5, (1, 2)),
        "M": fer.enumerate_physical_observables(5, (3,)),
        "Q2": fer.enumerate_physical_observables(5, (4, 5)),
    }
    worst = 0.0
    for a, b in (("Q1", "M"), ("Q1", "Q2"), ("M", "Q2")):
        for ma in sets[a]:
            for mb in sets[b]:
                worst = max(worst, float(np.max(np.abs(commutator(ma, mb)))))
    ok = counts_ok and worst <= eps
    return ok, f"counts {[r[1] for r in rows]}, max cross commutator {worst:.3g}"


def _span_operators() -> tuple[np.ndarray, np.ndarray]:
    """``(target, products)`` of the span check, 32 x 32 operators on modes 2
    and 3 of 5, from their word table (``fer._candidate_rows``).

    The products of the single-mode observables, I, n3, n2 and n2 n3 in that
    order, are the table's offset-0 class.  The target, the pair annihilator +
    pair creator c2 c3 + c3^dag c2^dag, lies on the offset of modes 2 and 3,
    and the first row there is m + m^dag of the pair creator m = c2^dag c3^dag,
    which is the target negated.
    """
    rows, offsets, _ = fer._candidate_rows(5, (2, 3))
    idx = np.arange(32)
    products = np.zeros((4, 32, 32), dtype=complex)
    products[:, idx, idx] = rows[0]
    target = np.zeros((32, 32), dtype=complex)
    target[idx ^ offsets[1], idx] = 0.0 - rows[1, 0]  # 0.0 - x keeps zeros +0.0
    return target, products


def span_check(eps: float = EPS) -> tuple[bool, float, bool]:
    """``(decomposable, residual, passed)`` of the non-decomposable target
    against the local product span: it passes when the target is out of the
    span, by more than ``_SPAN_GAP_MIN`` and at the pinned residual.  The
    verdict of criterion 5 and of the ``tomography`` command."""
    decomposable, residual = in_span(*_span_operators(), eps)
    pinned = abs(residual - EXPECTED_SPAN_RESIDUAL) <= _SPAN_PIN_TOL
    return decomposable, residual, (not decomposable) and residual > _SPAN_GAP_MIN and pinned


def _crit_nondecomposability(eps, tables, traces):
    _, residual, ok = span_check(eps)
    return ok, f"residual {residual:.12g} (pinned {EXPECTED_SPAN_RESIDUAL})"


def _crit_anyon_recoupling(eps, tables, traces):
    # the displays show each checkpoint twice, in two partitions, one after the other
    shown = list(ANYON_DISPLAYS.values())
    pairs = list(zip(shown[::2], shown[1::2], strict=True))
    display = max(
        float(np.max(np.abs(ia.change_partition(ia.AnyonState(src, amps), dst).amps - pinned)))
        for (_, src, amps), (_, dst, pinned) in pairs
    )
    match = display <= eps and all(i == j for (i, _, _), (j, _, _) in pairs)
    shapes = (ia.Partition.CENTER, ia.Partition.LEFT, ia.Partition.RIGHT)
    worst = 0.0
    for loop in list(permutations(shapes, 2)) + list(permutations(shapes, 3)):
        cycle = list(loop) + [loop[0]]
        m = np.eye(2, dtype=complex)
        for src, dst in zip(cycle, cycle[1:]):
            m = ia.partition_matrix(src, dst) @ m
        worst = max(worst, float(np.max(np.abs(m - np.eye(2)))))
    if not match:
        return False, f"matrices differ, worst display deviation {display:.3g}, worst loop deviation {worst:.3g}"
    return worst <= eps, f"matrices match, worst loop deviation {worst:.3g}"


def _crit_anyon_protocol(eps, tables, traces):
    rows = tables["anyon"]
    displays = _group(rows, "display")
    names = ("final_matter", "x1_expect", "x2_expect", "x1x2_expect")
    ok = _passes(eps, *displays, *(rows[name] for name in names))
    dev = max(row.deviation() for row in displays)
    return ok, f"display deviation {dev:.3g}, <X1.X2>={rows['x1x2_expect'].computed:.12g}"


def _crit_anyon_mediator_purity(eps, tables, traces):
    rows = tables["anyon"]
    purities = _group(rows, "mediator_purity")
    ok = _passes(eps, *_group(rows, "mediator"), *purities)
    return ok, f"purities {[f'{row.computed:.12g}' for row in purities]}"


def _crit_bit_antibit(eps, tables, traces):
    rows = tables["bitantibit"]
    names = ("final_matter", "mediator_end", "all_steps_valid", "x1_expect*x2_expect", "x1x2_expect")
    ok = _passes(eps, *(rows[name] for name in names))
    for k in (3, 4):
        bigger = {row.name: row for row in model_rows(RUNNERS["bitantibit"](k, eps=eps), eps)}
        ok = ok and _passes(eps, bigger["final_matter"], bigger["all_steps_valid"])
    x1_x2, x1x2 = rows["x1_expect*x2_expect"].computed, rows["x1x2_expect"].computed
    return ok, f"<X1><X2>={x1_x2:.3g} vs <X1xX2>={x1x2:.12g}; k=3,4 agree"


def _crit_witness_coherence(eps, tables, traces):
    details = []
    ok = True
    for model, rows in tables.items():
        initial_ok, final_ok = rows["initial_uncorrelated"].computed, rows["final_entangled"].computed
        ok = ok and initial_ok and final_ok
        details.append(f"{model}: initial uncorrelated={initial_ok}, final entangled={final_ok}")
    trace = traces["bitantibit"]
    for label, matter, expect_entangled in (
        ("initial", trace.steps[0].matter, False),
        ("final", trace.steps[-1].matter, True),
    ):
        vals, vecs = np.linalg.eigh(matter)
        state = vecs[:, int(np.argmax(vals))]
        rank = schmidt_rank(state, 4, 4, eps)
        oracle_entangled = rank >= 2
        ok = ok and (oracle_entangled == expect_entangled)
        details.append(f"schmidt[{label}]={rank}")
    return ok, "; ".join(details)


def _gaussian(rng: random.Random, *shape: int) -> np.ndarray:
    """Complex entries whose real and imaginary parts are standard normal."""
    return np.array([rng.gauss(0.0, 1.0) for _ in range(2 * math.prod(shape))]).view(complex).reshape(shape)


def _crit_property_suites(eps, tables, traces):
    # the stdlib generator: numpy.random would cost the command 5 MiB to import
    rng = random.Random(20240817)
    failures = []

    for trial in range(100):
        da, db = rng.randint(2, 4), rng.randint(2, 4)
        a, b, c = ((g + g.conj().T) / 2 for g in (_gaussian(rng, d, d) for d in (da, db, 2)))
        lhs = partial_trace(tensor(a, b), [da, db], [0])
        if not mat_close(lhs, a * np.trace(b), _KRON_IDENTITY_TOL):
            failures.append(f"trace-product trial {trial}")
        if not mat_close(tensor(tensor(a, b), c), tensor(a, tensor(b, c)), _KRON_IDENTITY_TOL):
            failures.append(f"associativity trial {trial}")

    n = 5
    eye = np.eye(1 << n)
    for j, k in product(range(1, n + 1), repeat=2):
        aj = fer.annihilator_matrix(n, j)
        ak = fer.annihilator_matrix(n, k)
        if not mat_close(aj @ ak + ak @ aj, np.zeros_like(eye), eps):
            failures.append(f"{{a{j},a{k}}}")
        if not mat_close(aj @ ak.conj().T + ak.conj().T @ aj, eye * (j == k), eps):
            failures.append(f"{{a{j},c{k}}}")
        if not mat_close(aj @ aj, np.zeros_like(eye), eps):
            failures.append(f"a{j}^2")
        if float(np.max(np.abs(aj @ fer.vacuum_state(n)))) > eps:
            failures.append(f"a{j}|vac>")

    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            # a signed permutation is a Hermitian involution iff these hold
            perm, signs = fer.fermionic_swap(n, i, j, np.arange(1 << n))
            if not (np.array_equal(perm[perm], np.arange(1 << n)) and np.array_equal(signs[perm], signs)):
                failures.append(f"swap({i},{j})")

    # AnyonState checks the norm of every state it holds: a partition change
    # that lost the norm would raise here
    for trial in range(100):
        amps = _gaussian(rng, ia.SECTOR_DIM)
        state = ia.AnyonState(_CENTER, amps / np.linalg.norm(amps))
        ia.change_partition(state, (_CENTER, _LEFT, _RIGHT)[trial % 3])

    return not failures, "no failures" if not failures else f"{len(failures)} failures: {failures[:3]}"


CRITERIA = (
    (1, "fermion-correlations", _crit_fermion_correlations),
    (2, "fermion-mediator-sequence", _crit_fermion_mediator),
    (3, "fermion-marginals", _crit_fermion_marginals),
    (4, "observable-counting-microcausality", _crit_observable_counting),
    (5, "non-decomposability", _crit_nondecomposability),
    (6, "anyon-recoupling", _crit_anyon_recoupling),
    (7, "anyon-protocol", _crit_anyon_protocol),
    (8, "anyon-mediator-purity", _crit_anyon_mediator_purity),
    (9, "bit-antibit-protocol", _crit_bit_antibit),
    (10, "witness-coherence", _crit_witness_coherence),
    (11, "property-suites", _crit_property_suites),
)


def run_all(eps: float = EPS) -> list[dict]:
    """The ``criteria`` rows of the verify-all report, one per acceptance
    criterion.  Each model's protocol runs once, before any criterion, and
    the criteria read its trace and its rows by name."""
    traces = {model: runner(eps=eps) for model, runner in RUNNERS.items()}
    tables = {model: {row.name: row for row in model_rows(trace, eps)} for model, trace in traces.items()}
    results = []
    for index, name, fn in CRITERIA:
        passed, detail = fn(eps, tables, traces)
        results.append({"index": index, "name": name, "pass": bool(passed), "detail": detail})
    return results
