"""Local interactions: every gate of a protocol acts on the mediator and one
matter qubit, and leaves the other qubit alone.

The gates are the closures each protocol hands to ``run_protocol``, recorded
as the protocol runs; the register models' gates act on a state's support.  A fermion or anyon gate must commute with every
observable of the qubit it does not touch, and must fail to commute with some
observable of the qubit it does touch, so the check can tell the two apart.  A
bit/anti-bit gate is a basis-index permutation and must fix the bit of every
slot it does not swap.
"""

import re

import numpy as np
import pytest

from bmvsim import bit_antibit, fermion_ssr, ising_anyon
from bmvsim.bit_antibit import protocol_signature, run_bit_antibit_protocol
from bmvsim.fermion_ssr import enumerate_physical_observables, run_fermion_protocol
from bmvsim.ising_anyon import SECTOR_DIM, AnyonState, Partition, change_partition, pair_observable_sets, run_anyon_protocol


def recorded_gates(monkeypatch, module, run, *args):
    """The (label, gate) pairs ``run(*args)`` passes to ``module.run_protocol``."""
    gates = []
    real = module.run_protocol

    def recording(model, initial, steps, *rest, **kwargs):
        steps = list(steps)
        gates.extend(steps)
        return real(model, initial, steps, *rest, **kwargs)

    monkeypatch.setattr(module, "run_protocol", recording)
    run(*args)
    return gates


def commutes(u, observable):
    return np.array_equal(u @ observable, observable @ u)


def test_fermion_gates_commute_with_the_far_qubit(monkeypatch):
    qubits = {(1, 2): enumerate_physical_observables(5, (1, 2)), (4, 5): enumerate_physical_observables(5, (4, 5))}
    gates = recorded_gates(monkeypatch, fermion_ssr, run_fermion_protocol)
    assert [label for label, _ in gates] == ["swap(2,3)", "swap(3,4)", "swap(2,3)"]
    for label, gate in gates:
        # the gate acts on a state's support: its column for basis state i is
        # its image of the one-index support [i], made dense
        u = np.zeros((32, 32), dtype=complex)
        for i in range(32):
            indices, amps = gate((np.array([i]), np.ones(1, dtype=complex)))
            u[indices, i] = amps
        swapped = {int(mode) for mode in re.findall(r"\d+", label)}
        (far,) = [modes for modes in qubits if not swapped & set(modes)]
        (near,) = [modes for modes in qubits if swapped & set(modes)]
        assert all(commutes(u, o) for o in qubits[far]), label
        assert not all(commutes(u, o) for o in qubits[near]), label


def test_anyon_gates_commute_with_the_far_qubit(monkeypatch):
    q1, q2 = pair_observable_sets()
    gates = recorded_gates(monkeypatch, ising_anyon, run_anyon_protocol)
    assert [label for label, _ in gates] == ["u_mq2", "v_q1m", "w_mq2"]
    for label, gate in gates:
        # the gate's matrix in the (x1, x2, t) basis the matter observables act on
        columns = [change_partition(gate(AnyonState(Partition.CENTER, e)), Partition.CENTER).amps for e in np.eye(SECTOR_DIM)]
        u = np.stack(columns, axis=1)
        far, near = (q2, q1) if label.endswith("q1m") else (q1, q2)
        assert all(commutes(u, o) for o in far.matrices), label
        assert not all(commutes(u, o) for o in near.matrices), label


@pytest.mark.parametrize("k", range(2, 7))
def test_bit_antibit_swaps_fix_every_untouched_slot(monkeypatch, k):
    sig = protocol_signature(k)
    gates = recorded_gates(monkeypatch, bit_antibit, run_bit_antibit_protocol, k)
    assert len(gates) == 2 * k + 1
    idx = np.arange(sig.dim)
    for label, gate in gates:
        perm = gate(idx)  # the gate is state[perm], so it maps the indices to perm
        swapped = set(re.findall(r"B\d+", label))
        assert len(swapped) == 2
        for slot in sig.ordering:
            shift = sig.slots - 1 - sig.slot_of(slot)
            fixed = np.array_equal((perm >> shift) & 1, (idx >> shift) & 1)
            assert fixed == (slot not in swapped), (label, slot)
