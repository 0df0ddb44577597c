"""Reference checks for the batched trajectory engine.

The package folds the three bath rotations of each DD unit into one
toggling-frame rotation and runs all trajectories as one batch. The slow
references here do neither: they build every noisy unit from its free
propagators, pi pulses and per-segment electron z rotations, and step one
trajectory at a time through `apply_gate` and `emit_photon`.
"""
import numpy as np
import pytest
from scipy.linalg import expm

from spincluster.protocol import (
    RY_PROTO, ProtocolSpec, _execute, build_schedule, emit_photon,
)
from spincluster.states import I2, Z, QuantumState, apply_gate, electron, nuclear
from spincluster.synthesis import (
    ELECTRON_GATES, PI_PULSE, DDSequence, UnitCompiler, noisy_sequence_unitary,
)

Z_E = np.kron(Z, I2)


def three_phase_unitary(seq, compiler, phases):
    """Sequence unitary with exp(-i phi_j Z_e / 2) after free segment j."""
    def dephase(phi):
        return expm(-0.5j * phi * Z_E)

    u = np.eye(4, dtype=complex)
    for i, t in enumerate(seq.tau_f):
        f1, f2 = compiler.free_propagator(t), compiler.free_propagator(2 * t)
        a, b, c = phases[3 * i:3 * i + 3]
        u = np.kron(ELECTRON_GATES[seq.electron_gates[i]], I2) @ u
        u = dephase(a) @ f1 @ u
        u = dephase(b) @ f2 @ PI_PULSE @ u
        u = dephase(c) @ f1 @ PI_PULSE @ u
    return np.kron(ELECTRON_GATES[seq.electron_gates[-1]], I2) @ u


@pytest.mark.parametrize("name", ["swap", "cz"])
def test_noisy_unitary_matches_three_phase_product(packaged, name):
    lib, params, _ = packaged
    seq = lib[name]
    compiler = UnitCompiler(params)
    phases = np.random.default_rng(3).normal(0.0, 1.0, size=(6, 3 * seq.k))
    batch = noisy_sequence_unitary(seq, compiler, phases)
    assert batch.shape == (6, 4, 4)
    for row, u in zip(phases, batch):
        ref = three_phase_unitary(seq, compiler, row)
        assert np.max(np.abs(u - ref)) <= 1e-12
        assert np.max(np.abs(noisy_sequence_unitary(seq, compiler, row) - ref)) <= 1e-12


def test_noisy_unitary_without_units(packaged):
    _, params, _ = packaged
    seq = DDSequence((), ("Rx90",))
    u = noisy_sequence_unitary(seq, UnitCompiler(params), np.zeros((3, 0)))
    assert u.shape == (3, 4, 4)
    np.testing.assert_allclose(u[1], np.kron(ELECTRON_GATES["Rx90"], I2))


def test_executor_matches_per_trajectory_loop(packaged):
    lib, params, _ = packaged
    spec = ProtocolSpec(m=2, n=2, gate_library=lib, params=params, style="lean")
    sched = build_schedule(spec)
    compiler = UnitCompiler(params)
    n_seg = sum(
        3 * lib[s.gate].k for s in sched
        if s.kind == "gate" and isinstance(lib.get(s.gate), DDSequence)
    )
    phases = np.random.default_rng(4).normal(0.0, 0.3, size=(5, n_seg))
    batch = _execute(spec, sched, compiler, phases)
    assert batch.shape == (5, 2 ** 6)
    for row, traj in zip(batch, phases):
        state = QuantumState(np.eye(4, dtype=complex)[0], (electron(), nuclear(0)))
        cursor = 0
        for item in sched:
            if item.kind == "emit":
                state = emit_photon(state)
            elif item.kind == "gate" and item.gate == "ry":
                state = apply_gate(state, RY_PROTO, item.wires)
            elif item.kind == "gate":
                seq = lib[item.gate]
                u = three_phase_unitary(seq, compiler, traj[cursor:cursor + 3 * seq.k])
                cursor += 3 * seq.k
                state = apply_gate(state, u, item.wires)
        assert cursor == n_seg
        assert np.max(np.abs(row - state.data)) <= 1e-12
