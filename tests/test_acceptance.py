"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Every criterion asserts the pinned values directly against the library (the
tolerances are fixed here, not deferred), and the last test cross-checks that
the packaged verify-all runner agrees and stays within the runtime budget.
"""

import time
from itertools import permutations

import numpy as np
import pytest

from bmvsim import acceptance, bit_antibit, fermion_ssr, ising_anyon, statecore, witness
from bmvsim.acceptance import (
    ANYON_DISPLAYS,
    EXPECTED_SPAN_RESIDUAL,
    bab_expected_matter_state,
    fermion_expected_mediator_sequence,
    run_all,
)
from bmvsim.bit_antibit import protocol_signature, run_bit_antibit_protocol, validate_state
from bmvsim.fermion_ssr import (
    annihilator_matrix,
    count_scaling_check,
    creator_matrix,
    enumerate_physical_observables,
    fermionic_swap,
    run_fermion_protocol,
    vacuum_state,
    word_matrix,
)
from bmvsim.ising_anyon import (
    AnyonState,
    Partition,
    SECTOR_DIM,
    change_partition,
    partition_matrix,
    run_anyon_protocol,
    sector_index,
)
from bmvsim.statecore import (
    EPS,
    commutator,
    dyad,
    in_span,
    mat_close,
    partial_trace,
    tensor,
)
from bmvsim.witness import schmidt_rank
from test_statecore import random_hermitian, random_state

SQ2 = np.sqrt(2.0)


def bell_matter_state():
    """The encoded (|00> + |11>)/sqrt(2) on the anyon matter basis."""
    v = np.zeros(SECTOR_DIM, dtype=complex)
    v[[sector_index(1, 1, 0), sector_index(0, 0, 0)]] = 1 / SQ2
    return v


def x_expectations(trace, x_local, x1, x2):
    """<X1>, <X2> of the final marginals and <X1 X2> of the final matter."""
    rho_q1, rho_q2 = trace.marginals
    matter = trace.steps[-1].matter
    return (np.trace(x_local @ rho_q1).real, np.trace(x_local @ rho_q2).real, np.trace(x1 @ x2 @ matter).real)


def pair_flip():
    """|00><11| + |11><00| on one bit/anti-bit pair."""
    x = np.zeros((4, 4))
    x[0, 3] = x[3, 0] = 1.0
    return x


def _verdict(index: int, name: str, passed: bool, detail: str = ""):
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {index:2d} {name} {detail}".rstrip())
    assert passed, f"criterion {index} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def fermion_trace():
    return run_fermion_protocol()


@pytest.fixture(scope="module")
def anyon_trace():
    return run_anyon_protocol()


@pytest.fixture(scope="module")
def bab_trace():
    return run_bit_antibit_protocol()


def test_criterion_1_fermion_correlations(fermion_trace):
    def hop(n, i, j):
        return creator_matrix(n, i) @ annihilator_matrix(n, j) + creator_matrix(n, j) @ annihilator_matrix(n, i)

    x1, x2, x1x2 = x_expectations(fermion_trace, hop(2, 1, 2), hop(4, 1, 2), hop(4, 3, 4))
    ok = abs(x1) <= EPS and abs(x2) <= EPS and abs(x1x2 - (-0.5)) <= EPS
    _verdict(1, "fermion correlations", ok, f"<X1.X2> = {x1x2:.12g}")


def test_criterion_2_fermion_mediator_sequence(fermion_trace):
    expected = fermion_expected_mediator_sequence()
    ok = len(fermion_trace.steps) == 4 and all(
        mat_close(step.mediator, exp, EPS) for step, exp in zip(fermion_trace.steps, expected)
    )
    _verdict(2, "fermion mediator sequence", ok)


def test_criterion_3_fermion_marginals(fermion_trace):
    rho_q1, rho_q2 = fermion_trace.marginals
    ok = mat_close(rho_q1, np.eye(4) / 4, EPS) and mat_close(rho_q2, np.eye(4) / 4, EPS)
    _verdict(3, "fermion marginals I/4", ok)


def test_criterion_4_counting_and_microcausality():
    rows = count_scaling_check(4)
    counts_ok = [r[1] for r in rows] == [2, 8, 32, 128] and all(r[3] for r in rows)
    sets = {
        "Q1": enumerate_physical_observables(5, (1, 2)),
        "M": enumerate_physical_observables(5, (3,)),
        "Q2": enumerate_physical_observables(5, (4, 5)),
    }
    worst = max(
        float(np.max(np.abs(commutator(ma, mb))))
        for a, b in (("Q1", "M"), ("Q1", "Q2"), ("M", "Q2"))
        for ma in sets[a]
        for mb in sets[b]
    )
    ok = counts_ok and worst <= EPS
    _verdict(4, "observable counting + microcausality", ok, f"counts {[r[1] for r in rows]}, worst commutator {worst:.2g}")


def nondecomposable_target():
    """The pair annihilator + pair creator c2 c3 + c3^dag c2^dag on modes 2
    and 3 of 5, as a product of dense annihilator and creator matrices."""
    return word_matrix(5, ((2, False), (3, False))) + word_matrix(5, ((3, True), (2, True)))


def local_product_basis():
    """Products of the single-mode physical observables of modes 2 and 3 of 5."""
    b2 = enumerate_physical_observables(5, (2,))
    b3 = enumerate_physical_observables(5, (3,))
    return [a @ b for a in b2 for b in b3]


def test_span_operators_match_the_dense_constructions():
    target, products = acceptance._span_operators()
    assert np.array_equal(target, nondecomposable_target())
    assert len(products) == 4
    assert all(np.array_equal(a, b) for a, b in zip(products, local_product_basis(), strict=True))


def test_span_residual_is_the_target_norm_exactly():
    # the target has 16 entries of +-1 on the offset of modes 2 and 3, and the
    # products are diagonal, so the fit is zero and the residual is ||T||_F
    target, _ = acceptance._span_operators()
    assert np.count_nonzero(target) == 16 and set(np.abs(target[target != 0]).tolist()) == {1.0}
    assert acceptance.span_check(EPS)[:2] == (False, 4.0) == (False, EXPECTED_SPAN_RESIDUAL)


def test_criterion_5_non_decomposability():
    decomposable, residual = in_span(nondecomposable_target(), local_product_basis(), EPS)
    ok = (not decomposable) and residual > 0.1 and abs(residual - EXPECTED_SPAN_RESIDUAL) <= 1e-9
    _verdict(5, "non-decomposability", ok, f"residual {residual:.12g}")


def test_criterion_6_anyon_recoupling():
    shapes = (Partition.CENTER, Partition.LEFT, Partition.RIGHT)
    ok = mat_close(partition_matrix(Partition.LEFT, Partition.RIGHT), np.array([[1, 1], [1, -1]]) / SQ2, EPS)
    ok = ok and mat_close(partition_matrix(Partition.CENTER, Partition.RIGHT), np.array([[1, 1], [-1j, 1j]]) / SQ2, EPS)
    for loop in list(permutations(shapes, 2)) + list(permutations(shapes, 3)):
        cycle = list(loop) + [loop[0]]
        m = np.eye(2, dtype=complex)
        for src, dst in zip(cycle, cycle[1:]):
            m = partition_matrix(src, dst) @ m
        ok = ok and mat_close(m, np.eye(2), EPS)
    _verdict(6, "anyon recoupling matrices + loops", ok)


def test_criterion_7_anyon_protocol(anyon_trace):
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    eye = np.eye(2)
    # the matter basis is (x1, x2, t)
    x1, x2, x1x2 = x_expectations(anyon_trace, x, np.kron(np.kron(x, eye), eye), np.kron(np.kron(eye, x), eye))
    ok = all(
        mat_close(change_partition(anyon_trace.steps[index].state, shape).amps, pinned, EPS)
        for index, shape, pinned in ANYON_DISPLAYS.values()
    )
    ok = ok and mat_close(anyon_trace.steps[-1].matter, dyad(bell_matter_state()), EPS)
    ok = ok and abs(x1x2 - 1.0) <= EPS
    ok = ok and abs(x1) <= EPS and abs(x2) <= EPS
    _verdict(7, "anyon protocol", ok, f"<X1.X2> = {x1x2:.12g}")


def test_criterion_8_anyon_mediator_purity(anyon_trace):
    med = np.zeros((3, 3), dtype=complex)
    med[1, 1] = 1.0
    ok = all(mat_close(step.mediator, med, EPS) for step in anyon_trace.steps)
    purities = [float(np.trace(step.mediator @ step.mediator).real) for step in anyon_trace.steps]
    ok = ok and len(purities) == 4 and all(abs(p - 1.0) <= EPS for p in purities)
    _verdict(8, "anyon mediator purity", ok, f"purities {purities}")


def test_criterion_9_bit_antibit_protocol(bab_trace):
    x, eye = pair_flip(), np.eye(4)
    x1, x2, x1x2 = x_expectations(bab_trace, x, np.kron(x, eye), np.kron(eye, x))
    expected = dyad(bab_expected_matter_state())
    zero_proj = np.zeros((4, 4), dtype=complex)
    zero_proj[0, 0] = 1.0
    ok = mat_close(bab_trace.steps[-1].matter, expected, EPS)
    ok = ok and abs(x1 * x2) <= EPS
    ok = ok and abs(x1x2 - 0.5) <= EPS
    ok = ok and mat_close(bab_trace.steps[-1].mediator, zero_proj, EPS)
    ok = ok and all(validate_state(protocol_signature(2), step.state)[0] for step in bab_trace.steps)
    for k in (3, 4):
        bigger = run_bit_antibit_protocol(k)
        ok = ok and mat_close(bigger.steps[-1].matter, expected, EPS)
        ok = ok and all(validate_state(protocol_signature(k), step.state)[0] for step in bigger.steps)
    _verdict(9, "bit/anti-bit protocol + scaling", ok)


def test_criterion_10_witness_coherence(fermion_trace, anyon_trace, bab_trace):
    ok = True
    for trace in (fermion_trace, anyon_trace, bab_trace):
        ok = ok and trace.initial_report.uncorrelated
        ok = ok and trace.report.entangled
    for matter, expect_entangled in ((bab_trace.steps[0].matter, False), (bab_trace.steps[-1].matter, True)):
        vals, vecs = np.linalg.eigh(matter)
        rank = schmidt_rank(vecs[:, int(np.argmax(vals))], 4, 4)
        ok = ok and ((rank >= 2) == expect_entangled)
    _verdict(10, "witness coherence across models", ok)


def test_criterion_11_property_suites():
    rng = np.random.default_rng(127)
    failures = []

    for trial in range(100):
        da, db = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        a, b = random_hermitian(da, rng), random_hermitian(db, rng)
        if not mat_close(partial_trace(tensor(a, b), [da, db], [0]), a * np.trace(b), 1e-9):
            failures.append(f"trace-product {trial}")
        c = random_hermitian(2, rng)
        if not mat_close(tensor(tensor(a, b), c), tensor(a, tensor(b, c)), 1e-9):
            failures.append(f"tensor-assoc {trial}")

    n = 5
    eye = np.eye(1 << n)
    vac = vacuum_state(n)
    for j in range(1, n + 1):
        aj = annihilator_matrix(n, j)
        if np.max(np.abs(aj @ aj)) > EPS or np.max(np.abs(aj @ vac)) > EPS:
            failures.append(f"mode {j} nilpotency/vacuum")
        for k in range(1, n + 1):
            ak, ck = annihilator_matrix(n, k), creator_matrix(n, k)
            if np.max(np.abs(aj @ ak + ak @ aj)) > EPS:
                failures.append(f"anticommutator a{j} a{k}")
            if not mat_close(aj @ ck + ck @ aj, eye * (j == k), EPS):
                failures.append(f"anticommutator a{j} c{k}")

    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            perm, signs = fermionic_swap(n, i, j, np.arange(1 << n))
            if not (np.array_equal(perm[perm], np.arange(1 << n)) and np.array_equal(signs[perm], signs)):
                failures.append(f"swap({i},{j})")

    for trial in range(100):
        state = AnyonState(Partition.CENTER, random_state(SECTOR_DIM, rng))
        dst = (Partition.LEFT, Partition.RIGHT, Partition.CENTER)[trial % 3]
        if abs(np.linalg.norm(change_partition(state, dst).amps) - 1.0) > 1e-9:
            failures.append(f"partition-norm {trial}")

    _verdict(11, "property suites", not failures, f"{len(failures)} failures")


def test_packaged_runner_agrees_and_is_fast():
    start = time.monotonic()
    results = run_all(EPS)
    elapsed = time.monotonic() - start
    assert [r["index"] for r in results] == list(range(1, 12))
    for r in results:
        assert r["pass"], f"verify-all criterion {r['index']} ({r['name']}): {r['detail']}"
    assert elapsed < 5.0, f"verify-all took {elapsed:.2f}s"


def test_verify_all_runs_each_protocol_once(monkeypatch):
    # every criterion reads the one run of each model; only criterion 9 runs
    # bit/anti-bit again, at its larger mediators
    calls = []

    def counted(model, runner):
        def run(*args, **kwargs):
            calls.append((model, args))
            return runner(*args, **kwargs)

        return run

    for model, runner in list(acceptance.RUNNERS.items()):
        monkeypatch.setitem(acceptance.RUNNERS, model, counted(model, runner))
    assert all(r["pass"] for r in run_all(EPS))
    # bit/anti-bit with no arguments is its default mediator, k = 2
    expected = [("fermion", ()), ("anyon", ()), ("bitantibit", ()), ("bitantibit", (3,)), ("bitantibit", (4,))]
    assert sorted(calls) == sorted(expected)


def test_criterion_6_fails_on_a_wrong_partition_change(monkeypatch):
    # a unitary LEFT -> RIGHT matrix that is not the F-move keeps every loop
    # the identity, so only the pinned displays can catch it
    wrong = np.array([[1.0, 1.0], [-1.0, 1.0]], dtype=complex) / SQ2
    monkeypatch.setattr(ising_anyon, "P_LEFT_TO_RIGHT", wrong)
    monkeypatch.setitem(ising_anyon._TO_RIGHT, Partition.LEFT, wrong)
    criterion_6 = {r["index"]: r for r in run_all(EPS)}[6]
    assert not criterion_6["pass"], criterion_6["detail"]
    # the planted F-move is off by 1 in the pinned displays; the loops still close
    assert criterion_6["detail"] == "matrices differ, worst display deviation 1, worst loop deviation 4.44e-16"


# ---------------------------------------------------------------------------
# the constants of each model, and the run report's checks


def _refuse_everywhere(monkeypatch, module, name):
    """Make every bmvsim binding of ``module.name`` raise when called."""
    original = getattr(module, name)

    def refuse(*args, **kwargs):
        raise AssertionError(f"{module.__name__}.{name} was called")

    for mod in (statecore, fermion_ssr, ising_anyon, bit_antibit, acceptance, witness):
        if vars(mod).get(name) is original:
            monkeypatch.setattr(mod, name, refuse)


# what the constants of the protocols and of their pinned rows are built from
CONSTANT_BUILDERS = (
    (fermion_ssr, "creator_matrix"),
    (fermion_ssr, "word_matrix"),
    (fermion_ssr, "_trace_signs"),
    (ising_anyon, "embed"),
    (statecore, "tensor"),
)

RUN_CASES = [("fermion", {}), ("anyon", {}), ("bitantibit", {}), ("bitantibit", {"mediator_bits": 3})]
RUN_IDS = ["fermion", "anyon", "bitantibit", "bitantibit-k3"]


@pytest.mark.parametrize("model, options", RUN_CASES, ids=RUN_IDS)
def test_a_second_run_builds_no_model_constant(monkeypatch, model, options):
    runner = acceptance.RUNNERS[model]
    first = acceptance.model_checks(runner(eps=EPS, **options), EPS)
    for module, name in CONSTANT_BUILDERS:
        _refuse_everywhere(monkeypatch, module, name)
    again = acceptance.model_checks(runner(eps=EPS, **options), EPS)
    assert again == first and all(check["pass"] for check in again)


def test_the_cached_constants_are_read_only():
    for model, options in RUN_CASES:
        acceptance.RUNNERS[model](eps=EPS, **options)
    constants = [
        *fermion_ssr._initial_state(),
        *(fermion_ssr._shared_trace_signs(n, frozenset(traced)) for n, traced in
          ((5, (1, 2, 4, 5)), (5, (3,)), (4, (3, 4)), (4, (1, 2)))),
        *bit_antibit._initial_support(2),
        *bit_antibit._initial_support(3),
        ising_anyon.initial_protocol_state().amps,
        *(pin for model in acceptance.RUNNERS for pin in acceptance._model_pins(model)),
    ]
    for constant in constants:
        with pytest.raises(ValueError, match="read-only"):
            constant[(0,) * constant.ndim] = 0.5
    # the runs read these very objects: a second call hands out the same ones
    assert fermion_ssr._initial_state()[0] is constants[0]
    assert acceptance._model_pins("anyon") is acceptance._model_pins("anyon")


def two_pass_checks(trace, eps):
    """The run report's checks as ``model_checks`` once wrote them: the
    deviation an array row shows, and its verdict, each computed by its own
    ``Row`` call."""
    checks = []
    for row in acceptance.model_rows(trace, eps):
        if isinstance(row.pinned, bool):
            expected, actual = str(row.pinned), str(row.computed)
        elif isinstance(row.pinned, np.ndarray):
            expected, actual = "deviation 0", f"deviation {row.deviation():.3g}"
        else:
            expected, actual = f"{row.pinned:g}", f"{row.computed:.12g}"
        checks.append({"name": row.name, "expected": expected, "actual": actual, "pass": row.passes(eps)})
    return checks


@pytest.mark.parametrize("model, options", RUN_CASES, ids=RUN_IDS)
def test_model_checks_compute_each_deviation_once(monkeypatch, model, options):
    calls = []
    real = acceptance.Row.deviation

    def counted(row):
        calls.append(row.name)
        return real(row)

    for eps in (1e-12, 1e-10, 1e-6):
        trace = acceptance.RUNNERS[model](eps=eps, **options)
        want = two_pass_checks(trace, eps)
        rows = list(acceptance.model_rows(trace, eps))
        with monkeypatch.context() as patch:
            patch.setattr(acceptance.Row, "deviation", counted)
            calls.clear()
            got = acceptance.model_checks(trace, eps)
        assert got == want
        # an array or number row computes its deviation once; a bool row none
        assert sorted(calls) == sorted(row.name for row in rows if not isinstance(row.pinned, bool))
        assert sum(isinstance(row.pinned, np.ndarray) for row in rows) >= 5
