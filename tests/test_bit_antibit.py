from itertools import permutations

import numpy as np
import pytest

from bmvsim.bit_antibit import (
    PairingCertificate,
    SystemSignature,
    pair_flip_observable,
    protocol_signature,
    run_bit_antibit_protocol,
    swap_bits,
    swap_chain,
    validate_state,
)
from bmvsim.statecore import EPS, dyad, mat_close, partial_trace

RNG = np.random.default_rng(101)


def dense_swap(sig: SystemSignature, b1: str, b2: str) -> np.ndarray:
    """Test oracle: the swap as a dense permutation matrix, one basis index at a time."""
    bits = sig.slots
    p1 = bits - 1 - sig.slot_of(b1)
    p2 = bits - 1 - sig.slot_of(b2)
    mat = np.zeros((sig.dim, sig.dim), dtype=complex)
    for idx in range(sig.dim):
        v1 = (idx >> p1) & 1
        v2 = (idx >> p2) & 1
        new = idx & ~(1 << p1) & ~(1 << p2)
        new |= v2 << p1
        new |= v1 << p2
        mat[new, idx] = 1.0
    return mat


def _bit_pairs(k: int):
    """Every ordered pair of distinct bits of the k-mediator protocol signature."""
    sig = protocol_signature(k)
    return [(sig, b1, b2) for b1, b2 in permutations([s for s in sig.ordering if sig.is_bit(s)], 2)]


ALL_BIT_PAIRS = [pair for k in (2, 3, 4) for pair in _bit_pairs(k)]


def _vec(sig: SystemSignature, assignments: list[dict[str, int]], amps=None) -> np.ndarray:
    v = np.zeros(sig.dim, dtype=complex)
    amps = amps or [1.0] * len(assignments)
    bits = sig.slots
    for amp, values in zip(amps, assignments):
        idx = 0
        for pos, label in enumerate(sig.ordering):
            idx |= values[label] << (bits - 1 - pos)
        v[idx] = amp
    return v / np.linalg.norm(v)


def test_signature_validation():
    with pytest.raises(ValueError, match="bad-signature"):
        SystemSignature(3, 2, ("A1", "A2", "A3", "B1", "B2"))
    with pytest.raises(ValueError, match="bad-signature"):
        SystemSignature(1, 1, ("A1", "B2"))
    sig = protocol_signature(2)
    assert sig.ordering == ("A1", "B1", "B2", "B3", "B4", "A2")
    assert (sig.m, sig.n) == (2, 4)


def test_validate_paired_superposition():
    sig = SystemSignature(1, 1, ("A1", "B1"))
    bell = _vec(sig, [{"A1": 0, "B1": 0}, {"A1": 1, "B1": 1}])
    ok, cert = validate_state(sig, bell)
    assert ok
    assert cert.pairing == (("A1", "B1"),)
    assert cert.offsets == (0,)
    assert cert.tail == ()


def test_validate_offset_sector():
    sig = SystemSignature(1, 1, ("A1", "B1"))
    flipped = _vec(sig, [{"A1": 0, "B1": 1}, {"A1": 1, "B1": 0}])
    ok, cert = validate_state(sig, flipped)
    assert ok and cert.offsets == (1,)


def test_validate_rejects_mixed_offsets():
    sig = SystemSignature(1, 1, ("A1", "B1"))
    bad = _vec(sig, [{"A1": 0, "B1": 0}, {"A1": 1, "B1": 0}])
    ok, cert = validate_state(sig, bad)
    assert not ok and cert is None


def test_validate_bits_only():
    sig = SystemSignature(0, 2, ("B1", "B2"))
    basis_state = _vec(sig, [{"B1": 1, "B2": 0}])
    ok, cert = validate_state(sig, basis_state)
    assert ok
    assert cert.pairing == () and set(cert.tail) == {("B1", 1), ("B2", 0)}
    superposed = _vec(sig, [{"B1": 0, "B2": 0}, {"B1": 1, "B2": 0}])
    assert not validate_state(sig, superposed)[0]


def test_validate_non_adjacent_pairing():
    # the matching may target any distinct bits, not just the leading ones
    sig = protocol_signature(2)
    state = _vec(
        sig,
        [
            {"A1": 0, "B1": 0, "B2": 0, "B3": 0, "B4": 0, "A2": 0},
            {"A1": 1, "B1": 0, "B2": 0, "B3": 1, "B4": 0, "A2": 0},
        ],
    )
    ok, cert = validate_state(sig, state)
    assert ok
    assert dict(cert.pairing)["A1"] == "B3"


def test_certificate_admits():
    cert = PairingCertificate((("A1", "B2"),), (1,), (("B1", 0),))
    assert cert.admits({"A1": 0, "B1": 0, "B2": 1})
    assert not cert.admits({"A1": 0, "B1": 1, "B2": 1})
    assert not cert.admits({"A1": 0, "B1": 0, "B2": 0})


def test_swap_is_permutation_and_involution():
    for sig, b1, b2 in ALL_BIT_PAIRS:
        perm = swap_bits(sig, b1, b2)
        assert perm.dtype.kind == "i"
        assert np.array_equal(np.sort(perm), np.arange(sig.dim))
        assert np.array_equal(perm[perm], np.arange(sig.dim))
        assert np.array_equal(swap_bits(sig, b2, b1), perm)
        # state[perm] is the oracle's matrix applied to state
        assert np.array_equal(np.eye(sig.dim)[perm], dense_swap(sig, b1, b2))


def test_swap_action_on_slots():
    sig = SystemSignature(0, 2, ("B1", "B2"))
    x = _vec(sig, [{"B1": 1, "B2": 0}])
    y = _vec(sig, [{"B1": 0, "B2": 1}])
    assert np.array_equal(x[swap_bits(sig, "B1", "B2")], y)
    for sig, b1, b2 in ALL_BIT_PAIRS:
        perm, dense = swap_bits(sig, b1, b2), dense_swap(sig, b1, b2)
        for idx in range(sig.dim):
            basis = np.zeros(sig.dim, dtype=complex)
            basis[idx] = 1.0
            swapped = basis[perm]
            assert np.array_equal(swapped, dense @ basis)
            values = sig.slot_values(int(np.flatnonzero(swapped)[0]))
            before = sig.slot_values(idx)
            before[b1], before[b2] = before[b2], before[b1]
            assert values == before


def test_swap_rejects_antibits():
    sig = protocol_signature(2)
    with pytest.raises(ValueError, match="swap-on-antibit"):
        swap_bits(sig, "A1", "B1")
    with pytest.raises(ValueError, match="bad-swap"):
        swap_bits(sig, "B1", "B1")
    with pytest.raises(ValueError, match="bad-signature"):
        swap_bits(sig, "B1", "B9")


def _random_valid_state(sig: SystemSignature, rng) -> np.ndarray:
    bit_labels = [f"B{i}" for i in range(1, sig.n + 1)]
    matched = list(rng.permutation(bit_labels)[: sig.m])
    offsets = rng.integers(0, 2, size=sig.m)
    tail = {b: int(rng.integers(0, 2)) for b in bit_labels if b not in matched}
    assignments = []
    for pattern in range(1 << sig.m):
        values = dict(tail)
        for k in range(sig.m):
            anti_value = (pattern >> k) & 1
            values[f"A{k + 1}"] = anti_value
            values[matched[k]] = anti_value ^ int(offsets[k])
        assignments.append(values)
    amps = rng.standard_normal(len(assignments)) + 1j * rng.standard_normal(len(assignments))
    return _vec(sig, assignments, list(amps))


def test_swaps_preserve_validity_on_random_states():
    for trial, (sig, b1, b2) in enumerate(ALL_BIT_PAIRS * 2):
        state = _random_valid_state(sig, RNG)
        assert validate_state(sig, state)[0], f"trial {trial} seed state invalid"
        swapped = state[swap_bits(sig, b1, b2)]
        assert np.array_equal(swapped, dense_swap(sig, b1, b2) @ state)
        assert validate_state(sig, swapped)[0], f"trial {trial} swap({b1},{b2})"


def test_swap_chain_shape():
    assert swap_chain(2) == [("B1", "B2"), ("B2", "B3"), ("B3", "B4"), ("B2", "B3"), ("B1", "B2")]
    assert len(swap_chain(4)) == 9


def test_protocol_final_state_and_mediator():
    trace = run_bit_antibit_protocol()
    expected = np.zeros(16, dtype=complex)
    for idx in (0b0000, 0b1010, 0b0101, 0b1111):
        expected[idx] = 0.5
    assert mat_close(trace.steps[-1].matter, dyad(expected))
    zero_proj = np.zeros((4, 4), dtype=complex)
    zero_proj[0, 0] = 1.0
    assert mat_close(trace.steps[0].mediator, zero_proj)
    assert mat_close(trace.steps[-1].mediator, zero_proj)


def test_protocol_mediator_diagonal_every_step():
    trace = run_bit_antibit_protocol()
    for step in trace.steps:
        off = step.mediator - np.diag(np.diag(step.mediator))
        assert np.max(np.abs(off)) <= EPS


def test_protocol_every_step_validates():
    trace = run_bit_antibit_protocol()
    assert len(trace.steps) == 6
    assert all(trace.summary["validities"])
    assert all(cert is not None for cert in trace.summary["certificates"])


def test_protocol_marginals_and_correlations():
    trace = run_bit_antibit_protocol()
    assert mat_close(trace.summary["rho_q1"], np.eye(4) / 4)
    assert mat_close(trace.summary["rho_q2"], np.eye(4) / 4)
    assert abs(trace.summary["x1_expect"]) <= EPS
    assert abs(trace.summary["x2_expect"]) <= EPS
    assert abs(trace.summary["x1x2_expect"] - 0.5) <= EPS


def test_protocol_witness():
    trace = run_bit_antibit_protocol()
    assert trace.summary["initial_report"].uncorrelated
    assert trace.report.entangled


def _initial_state(k: int) -> np.ndarray:
    bell = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    zeros = np.zeros(1 << k, dtype=complex)
    zeros[0] = 1.0
    return np.kron(np.kron(bell, zeros), bell)


def test_palindromic_chain_is_order_insensitive():
    for k in (2, 3, 4):
        sig = protocol_signature(k)
        forward = backward = dense = _initial_state(k)
        for b1, b2 in swap_chain(k):
            forward = forward[swap_bits(sig, b1, b2)]
            dense = dense_swap(sig, b1, b2) @ dense
        for b1, b2 in reversed(swap_chain(k)):
            backward = backward[swap_bits(sig, b1, b2)]
        assert np.array_equal(forward, backward)
        assert np.array_equal(forward, dense)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_kernel_matches_dense_oracle_protocol(k):
    # the dense path the protocol used to take: permutation matrices, then a
    # dyad and partial traces at every checkpoint
    sig = protocol_signature(k)
    dims = [2] * sig.slots
    mediator_slots = [sig.slot_of(f"B{i}") for i in range(2, k + 2)]
    matter_slots = [sig.slot_of(s) for s in ("A1", "B1", f"B{k + 2}", "A2")]
    states = [_initial_state(k)]
    for b1, b2 in swap_chain(k):
        states.append(dense_swap(sig, b1, b2) @ states[-1])
    trace = run_bit_antibit_protocol(k)
    assert len(trace.steps) == len(states)
    for step, psi in zip(trace.steps, states):
        rho = dyad(psi)
        assert np.array_equal(step.state, psi), step.label
        assert np.array_equal(step.mediator, partial_trace(rho, dims, mediator_slots)), step.label
        assert np.array_equal(step.matter, partial_trace(rho, dims, matter_slots)), step.label


@pytest.mark.parametrize("k", [3, 4])
def test_mediator_scaling_reproduces_final_state(k):
    base = run_bit_antibit_protocol(2)
    bigger = run_bit_antibit_protocol(k)
    assert mat_close(bigger.steps[-1].matter, base.steps[-1].matter)
    assert all(bigger.summary["validities"])
    zero_proj = np.zeros((1 << k, 1 << k), dtype=complex)
    zero_proj[0, 0] = 1.0
    assert mat_close(bigger.steps[-1].mediator, zero_proj)


def test_mediator_bits_floor():
    with pytest.raises(ValueError, match="bad-signature"):
        run_bit_antibit_protocol(1)


def test_pair_flip_observable_values():
    x = pair_flip_observable()
    assert mat_close(x, x.conj().T)
    assert x[0, 3] == 1.0 and x[3, 0] == 1.0
    assert np.count_nonzero(x) == 2
