"""Reference checks for the batched trajectory engine and the synthesis
hot path.

The package folds the three bath rotations of each DD unit into one
toggling-frame rotation and runs all trajectories as one batch. The slow
references here do neither: they build every noisy unit from its free
propagators, pi pulses and per-segment electron z rotations, and step one
trajectory at a time through `apply_gate` and `emit_photon`. The corrected
completion applies each Pauli correction as one index flip and one phase
vector; the reference applies it as one 2x2 matrix per photon wire.

The bath enters a free segment as one electron z rotation by the
integrated phase after the noiseless propagator. The reference for that
insertion steps the Hamiltonian plus the sampled field B(t) sigma_z / 2 in
piecewise-constant slices.

The noisy gates of all trajectories are assembled with one GEMM per DD
unit, and a shared matrix on short rows is applied with one GEMM over all
rows. The per-trajectory forms in `references.py` do the same arithmetic
one 4x4 product at a time, so the two must agree bit for bit.

Synthesis builds all DD units and their spacing derivatives in one
eigenbasis pass, takes the objective's gradient from prefix and suffix
environments, and prices every candidate gate of the discrete sweep with one
contraction. The references build each unit from free propagators, keep
explicit lists of partial products for the objective, and evaluate each
candidate as a full sequence.
"""

import numpy as np
import pytest
from scipy.linalg import expm

from references import apply_matrix_vec_moveaxis, evolve, noisy_sequence_unitary_stacked
from spincluster import protocol
from spincluster.hamiltonian import free_hamiltonian, propagator
from spincluster.noise import ou_from_coherence
from spincluster.protocol import (
    RY_PROTO, ProtocolSpec, _complete, _execute, _sample_phases, build_schedule,
    emit_photon, find_corrections,
)
from spincluster.states import (
    I2, Y, Z, QuantumState, _apply_matrix_vec, apply_gate, electron, nuclear, rz,
)
from spincluster.synthesis import (
    _GATE_NAMES, ELECTRON_GATES, PI_PULSE, TARGETS, DDSequence, UnitCompiler,
    _discrete_sweep, _fidelity_and_gradient, _gate_stack, _slot_fidelities,
    gate_fidelity, noisy_sequence_unitary, sequence_unitary,
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
    seq, compiler = DDSequence((), ("Rx90",)), UnitCompiler(params)
    u = noisy_sequence_unitary(seq, compiler, np.zeros((3, 0)))
    assert u.shape == (3, 4, 4)
    np.testing.assert_allclose(u[1], np.kron(ELECTRON_GATES["Rx90"], I2))
    assert np.array_equal(u, noisy_sequence_unitary_stacked(seq, compiler, np.zeros((3, 0))))


@pytest.mark.parametrize("name", ["swap", "cz"])
@pytest.mark.parametrize("shape", [(1,), (7,), (200,), ()], ids=["T1", "T7", "T200", "1d"])
def test_noisy_unitary_bit_identical_to_stacked_products(packaged, name, shape):
    # one GEMM per unit over all trajectories does each trajectory's 4x4
    # product with the same arithmetic, so not one bit may move
    lib, params, _ = packaged
    seq, compiler = lib[name], UnitCompiler(params)
    phases = np.random.default_rng(5).normal(0.0, 1.0, size=shape + (3 * seq.k,))
    got = noisy_sequence_unitary(seq, compiler, phases)
    ref = noisy_sequence_unitary_stacked(seq, compiler, phases)
    assert got.shape == ref.shape == shape + (4, 4)
    assert got.flags.c_contiguous
    assert np.array_equal(got, ref)


@pytest.mark.parametrize("seed", [1, 2])
def test_noisy_run_unchanged_by_gate_assembly(packaged, monkeypatch, seed):
    # a noisy lean 2x2 run at the Fig. 3b working point, with the stacked
    # reference assembling every DD gate instead
    lib, params, _ = packaged
    spec = ProtocolSpec(
        m=2, n=2, gate_library=lib, params=params, style="lean", trials=200, seed=seed,
        noise=ou_from_coherence(3e-6, 300e-6, seed=seed),
    )
    fields = ("fidelity", "fidelity_se", "prep_fidelity", "block_fidelity")
    got = protocol.run(spec, components=True)
    monkeypatch.setattr(protocol, "noisy_sequence_unitary", noisy_sequence_unitary_stacked)
    ref = protocol.run(spec, components=True)
    for field in fields:
        assert getattr(got, field) == getattr(ref, field), field


@pytest.mark.parametrize("rows", [1, 15, 16, 200])
@pytest.mark.parametrize("n,targets", [
    (2, [0]), (3, [0]), (6, [0]), (7, [0]), (8, [0]), (6, [0, 1]), (7, [0, 1]),
    (4, [2]), (6, [3, 1]), (5, [2, 0, 4]),
])
def test_apply_matrix_vec_bit_identical_to_moveaxis(rows, n, targets):
    # leading targets skip the axis moves, and a shared matrix on short rows
    # is one GEMM; neither may move a bit, whether the matrix is shared or
    # one per row
    rng = np.random.default_rng(6)
    k = len(targets)
    vecs = rng.normal(size=(rows, 2 ** n)) + 1j * rng.normal(size=(rows, 2 ** n))
    for u in (rng.normal(size=(2 ** k, 2 ** k)) + 1j * rng.normal(size=(2 ** k, 2 ** k)),
              rng.normal(size=(rows, 2 ** k, 2 ** k)) + 0.5j):
        got = _apply_matrix_vec(vecs, u, targets, n)
        assert np.array_equal(got, apply_matrix_vec_moveaxis(vecs, u, targets, n))


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


def complete_by_wire_passes(amps, spec, corrections, rng):
    """Corrected completion with each branch's correction applied as one 2x2
    pass per photon wire."""
    t, m = len(amps), spec.m
    branches = amps.reshape(t, 2 ** m, -1)
    probs = np.sum(np.abs(branches) ** 2, axis=2)
    uniforms = rng.random((t, m))
    rows = np.arange(t)
    outcome = np.zeros(t, dtype=int)
    for wire in range(m):
        sub = probs.reshape(t, 2 ** wire, 2, -1)[rows, outcome]
        p0, norm = sub[:, 0].sum(axis=1), sub.sum(axis=(1, 2))
        outcome = 2 * outcome + (uniforms[:, wire] * norm >= p0)
    vecs = branches[rows, outcome]
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    outcome_bits = list(np.ndindex(*(2,) * m))
    for o in np.unique(outcome):
        sel = outcome == o
        corrected = vecs[sel]
        for i, u in enumerate(corrections[outcome_bits[o]]):
            corrected = _apply_matrix_vec(corrected, u, [i], m * spec.n)
        vecs[sel] = corrected
    return vecs


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("n,trials", [(2, 200), (6, 20)])
@pytest.mark.parametrize("times_y", [False, True])
def test_completion_matches_per_wire_passes(packaged, n, trials, seed, times_y):
    # times_y turns every correction into Y times it, so that the phases
    # include +-i and products of Paulis
    lib, params, _ = packaged
    spec = ProtocolSpec(
        m=2, n=n, gate_library=lib, params=params, style="lean", trials=trials, seed=seed,
        noise=ou_from_coherence(3e-6, 300e-6, seed=seed),
    )
    sched = build_schedule(spec)
    phases = _sample_phases(spec, sched, np.random.default_rng(seed))
    amps = _execute(spec, sched, UnitCompiler(params), phases)
    corrections = {
        bits: None if locals_ is None else [Y @ u if times_y else u for u in locals_]
        for bits, locals_ in find_corrections(spec).items()
    }
    vecs, weights = _complete(amps, spec, corrections, np.random.default_rng(seed))
    ref = complete_by_wire_passes(amps, spec, corrections, np.random.default_rng(seed))
    assert np.array_equal(vecs, ref)
    assert np.array_equal(weights, np.ones(trials))


def apply_noise_segment(state, trajectory, h, t, dt, targets=None):
    """Piecewise-constant evolution under H + B(t_k) sigma_z/2 (x) I.

    `h` is in Hz on (electron, nucleus); B samples are rad/s.
    """
    n_steps = int(np.round(t / dt))
    if n_steps * dt > t + 1e-15 or len(trajectory) < n_steps:
        raise ValueError("trajectory does not cover the requested time")
    if targets is None:
        targets = [0, 1]
    bath = np.kron(Z / 2, I2)
    for k in range(n_steps):
        h_tot = h + (trajectory[k] / (2 * np.pi)) * bath  # rad/s -> Hz
        state = apply_gate(state, propagator(h_tot, dt), targets)
    return state


def test_zero_noise_limit(siv):
    h = free_hamiltonian(siv)
    s = QuantumState(np.array([0.5, 0.5, 0.5, 0.5], complex),
                     (electron(), nuclear(0)))
    tiny = np.zeros(1000)
    out = apply_noise_segment(s, tiny, h, t=1e-7, dt=1e-9)
    ref = evolve(s, h, 1e-7)
    assert abs(abs(np.vdot(ref.data, out.data)) - 1) < 1e-9


def test_sigma_z_eigenstate_immune(siv):
    # |0>_e is an eigenstate of the bath operator: only a global phase
    h = free_hamiltonian(siv)
    s = QuantumState(np.array([1, 0, 0, 0], complex), (electron(), nuclear(0)))
    traj = 5e5 * np.ones(100)
    noisy = apply_noise_segment(s, traj, h, t=1e-8, dt=1e-10)
    clean = apply_noise_segment(s, np.zeros(100), h, t=1e-8, dt=1e-10)
    assert abs(abs(np.vdot(clean.data, noisy.data)) - 1) < 1e-9


def test_commutation_fast_path(siv):
    # constant-B evolution equals noiseless propagator followed by an
    # electron z rotation by phi = B * t, validating the phase insertion
    # used by the production path
    h = free_hamiltonian(siv)
    v = np.array([0.2 + 0.1j, 0.4, -0.5j, 0.7], complex)
    v /= np.linalg.norm(v)
    s = QuantumState(v, (electron(), nuclear(0)))
    b0, t = 3e5, 1e-8
    stepped = apply_noise_segment(s, b0 * np.ones(1000), h, t=t, dt=t / 1000)
    fast = apply_gate(evolve(s, h, t), rz(b0 * t), [0])
    assert abs(abs(np.vdot(fast.data, stepped.data)) - 1) < 1e-8


def test_trajectory_too_short(siv):
    h = free_hamiltonian(siv)
    s = QuantumState(np.array([1, 0, 0, 0], complex), (electron(), nuclear(0)))
    with pytest.raises(ValueError):
        apply_noise_segment(s, np.zeros(5), h, t=1e-8, dt=1e-9)


def unit_and_derivative(tau, compiler):
    """One DD unit F(tau) Pi F(2 tau) Pi F(tau) and its d/dtau, one term per
    free segment."""
    f1, f2, h = compiler.free_propagator(tau), compiler.free_propagator(2 * tau), compiler.h
    b = f1 @ PI_PULSE @ f2 @ PI_PULSE @ f1
    db = -2j * np.pi * (
        h @ b
        + 2 * (f1 @ PI_PULSE @ h @ f2 @ PI_PULSE @ f1)
        + f1 @ PI_PULSE @ f2 @ PI_PULSE @ h @ f1
    )
    return b, db


def list_fidelity_and_gradient(taus, gate_names, target, compiler):
    """Objective and gradient from explicit lists of left and right partial
    products over the factors G_0, B_0, G_1, ..., B_{k-1}, G_k."""
    k = len(taus)
    units = [unit_and_derivative(t, compiler) for t in taus]
    gates = [np.kron(ELECTRON_GATES[g], I2) for g in gate_names]
    factors = []
    for i in range(k):
        factors += [gates[i], units[i][0]]
    factors.append(gates[k])
    right = [np.eye(4, dtype=complex)]
    for f in factors:
        right.append(f @ right[-1])
    left = [np.eye(4, dtype=complex)]
    for f in reversed(factors):
        left.append(left[-1] @ f)
    left = left[::-1]  # left[i]: product of the factors from i on
    overlap = np.trace(target.conj().T @ right[-1])
    grad = np.zeros(k)
    for i in range(k):
        j = 2 * i + 1
        d_overlap = np.trace(target.conj().T @ (left[j + 1] @ units[i][1] @ right[j]))
        grad[i] = np.real(np.conj(overlap) * d_overlap) / (abs(overlap) * 4)
    return abs(overlap) / 4, grad


def full_sequence_sweep(taus, gate_names, target, compiler, rng):
    """The discrete sweep with every candidate evaluated as a full sequence."""
    def fidelity(names):
        seq = DDSequence(tuple(taus), tuple(names))
        return gate_fidelity(sequence_unitary(seq, compiler), target)

    names = list(gate_names)
    best, improved, evals = fidelity(names), True, 0
    while improved:
        improved = False
        for slot in rng.permutation(len(names)):
            current = names[slot]
            for cand in _GATE_NAMES:
                if cand == current:
                    continue
                trial = names[:slot] + [cand] + names[slot + 1:]
                f = fidelity(trial)
                evals += 1
                if f > best + 1e-12:
                    best, names, improved = f, trial, True
    return names, best, evals


def random_sequence(rng, k):
    taus = rng.uniform(1e-9, 9e-8, size=k)
    names = [_GATE_NAMES[i] for i in rng.integers(len(_GATE_NAMES), size=k + 1)]
    return taus, names


def test_unit_stacks_match_per_unit_products(siv):
    compiler = UnitCompiler(siv)
    taus = np.random.default_rng(5).uniform(1e-9, 2e-7, size=9)
    units, d_units = compiler.units(taus, derivative=True)
    assert units.shape == d_units.shape == (9, 4, 4)
    assert np.max(np.abs(compiler.units(taus) - units)) <= 1e-12
    # d/dtau is of order 2 pi |H|, about 1e9 per second here
    scale = 2 * np.pi * np.linalg.norm(compiler.h, 2)
    for t, u, du in zip(taus, units, d_units):
        ref_u, ref_du = unit_and_derivative(t, compiler)
        assert np.max(np.abs(u - ref_u)) <= 1e-12
        assert np.max(np.abs(du - ref_du)) <= 1e-12 * scale


@pytest.mark.parametrize("k", [1, 4, 12])
@pytest.mark.parametrize("target", ["cz", "swap"])
def test_objective_matches_list_products(siv, k, target):
    compiler = UnitCompiler(siv)
    rng = np.random.default_rng(k)
    for _ in range(3):
        taus, names = random_sequence(rng, k)
        fid, grad = _fidelity_and_gradient(taus, _gate_stack(names), TARGETS[target], compiler)
        ref_fid, ref_grad = list_fidelity_and_gradient(taus, names, TARGETS[target], compiler)
        assert abs(fid - ref_fid) <= 1e-12
        assert np.max(np.abs(grad - ref_grad)) <= 1e-12 * np.max(np.abs(ref_grad))


def test_gradient_matches_central_difference(siv):
    compiler = UnitCompiler(siv)
    taus, names = random_sequence(np.random.default_rng(8), 6)
    gates = _gate_stack(names)
    _, grad = _fidelity_and_gradient(taus, gates, TARGETS["cz"], compiler)
    # a 0.1 ps step: truncation (h^2 f''') and rounding (eps / h) both stay
    # below 1e-8 of the gradient
    h = 1e-13
    numeric = np.zeros_like(grad)
    for i in range(len(taus)):
        step = np.zeros_like(taus)
        step[i] = h
        up = _fidelity_and_gradient(taus + step, gates, TARGETS["cz"], compiler)[0]
        down = _fidelity_and_gradient(taus - step, gates, TARGETS["cz"], compiler)[0]
        numeric[i] = (up - down) / (2 * h)
    assert np.max(np.abs(grad - numeric)) <= 1e-6 * np.max(np.abs(grad))


@pytest.mark.parametrize("k", [4, 12])
def test_slot_fidelities_match_full_sequences(siv, k):
    compiler = UnitCompiler(siv)
    rng = np.random.default_rng(20 + k)
    for target in ("cz", "swap"):
        taus, names = random_sequence(rng, k)
        table = _slot_fidelities(compiler.units(taus), names, TARGETS[target])
        assert table.shape == (k + 1, len(_GATE_NAMES))
        for slot in range(k + 1):
            for g, cand in enumerate(_GATE_NAMES):
                trial = names[:slot] + [cand] + names[slot + 1:]
                u = sequence_unitary(DDSequence(tuple(taus), tuple(trial)), compiler)
                assert abs(table[slot, g] - gate_fidelity(u, TARGETS[target])) <= 1e-12


def test_sweep_matches_full_sequence_sweep(packaged):
    # the packaged CZ with three slots scrambled, so the sweep accepts swaps
    lib, params, _ = packaged
    compiler = UnitCompiler(params)
    seq = lib["cz"]
    rng = np.random.default_rng(11)
    changed = 0
    for trial in range(4):
        names = list(seq.electron_gates)
        for slot in rng.choice(len(names), 3, replace=False):
            names[slot] = _GATE_NAMES[rng.integers(len(_GATE_NAMES))]
        got = _discrete_sweep(np.array(seq.tau_f), names, TARGETS["cz"], compiler,
                              np.random.default_rng(trial))
        ref = full_sequence_sweep(seq.tau_f, names, TARGETS["cz"], compiler,
                                  np.random.default_rng(trial))
        assert got[0] == ref[0] and got[2] == ref[2]
        assert abs(got[1] - ref[1]) <= 1e-12
        changed += got[0] != names
    assert changed
