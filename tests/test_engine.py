"""Reference checks for the batched trajectory engine and the synthesis
hot path.

The package draws one toggling-frame bath phase per DD unit, merges the
rotations of consecutive units up to the next Rx90 or Ry90 gate, and runs
all trajectories as one batch. The slow references here do none of that:
they build every noisy unit from its free propagators, pi pulses and
per-segment electron z rotations, and step one trajectory at a time through
`apply_gate` and `emit_photon`. The corrected
completion applies each Pauli correction as one index flip and one phase
vector; the reference applies it as one 2x2 matrix per photon wire.

The bath enters a free segment as one electron z rotation by the
integrated phase after the noiseless propagator. The reference for that
insertion steps the Hamiltonian plus the sampled field B(t) sigma_z / 2 in
piecewise-constant slices.

`run` never forms the dense batch: it contracts each trajectory with the
target column by column, and a corrected run sums every completion branch
by its Born weight, each noisy branch against the same ideal branch, with
no correction applied. The references are dense: `references.dense_branch_sum`
corrects every branch of the whole batch and sums its overlaps with
`ideal_target`; `references.dense_run`, the path `run` replaced, takes the
all-|1> branch under postselection, or samples one corrected branch per
trajectory, whose mean over seeds must agree with the sum. The component
fidelities run through the same contraction; their reference is the dense
segment formula, `references.segment_fidelity_dense`, on the same phases.

The noisy gates of all trajectories are assembled with one GEMM per block
of merged rotations; the per-unit product in `references.py` must match
them to rounding. A schedule's instances of one DD sequence share that
call, and every column's arithmetic is its own, so grouping them, or not,
must not move a bit. A shared matrix on short rows is applied with one
GEMM over all rows, which the per-trajectory form must match bit for bit.

Synthesis works in the eigenbasis of the free Hamiltonian: it builds all
DD units and their spacing derivatives in one product, runs one prefix pass,
takes each suffix from unitarity, and prices every candidate gate of the
discrete sweep with one contraction. The references build each unit from
free propagators in the computational basis, keep explicit lists of partial
products for the objective, and evaluate each candidate as a full sequence.
"""

from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

from references import (
    apply_matrix_vec_moveaxis, complete_dense, dense_branch_sum, dense_run, evolve, execute,
    fold_segment_phases, noisy_sequence_unitary_stacked, segment_fidelity_dense,
)
from spincluster import protocol
from spincluster.hamiltonian import free_hamiltonian, propagator
from spincluster.noise import ou_from_coherence
from spincluster.protocol import (
    RY_PROTO, ProtocolSpec, _sample_phases, build_schedule, component_fidelities,
    emit_photon, find_corrections, ideal_library,
)
from spincluster.states import (
    I2, Y, Z, QuantumState, _apply_matrix_vec, apply_gate, electron, nuclear, rz,
)
from spincluster.synthesis import (
    _BATH_SIGN, _GATE_NAMES, ELECTRON_GATES, PI_PULSE, TARGETS, DDSequence, UnitCompiler,
    _ALL_GATES, _RHO_TRACES, _discrete_sweep, _gate_stack, _objective, _prefix_pass, _rho,
    _slot_fidelities, gate_fidelity, noisy_sequence_unitary, sequence_unitary,
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
    units = fold_segment_phases(phases)
    batch = noisy_sequence_unitary(seq, compiler, units)
    assert batch.shape == (6, 4, 4)
    for row, unit_row, u in zip(phases, units, batch):
        ref = three_phase_unitary(seq, compiler, row)
        assert np.max(np.abs(u - ref)) <= 1e-12
        assert np.max(np.abs(noisy_sequence_unitary(seq, compiler, unit_row) - ref)) <= 1e-12


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
    # the merged rotations against one rotation after every unit: exact
    # algebra, so they agree to rounding (bit for bit until the rotations
    # were merged; the name is kept)
    lib, params, _ = packaged
    seq, compiler = lib[name], UnitCompiler(params)
    phases = np.random.default_rng(5).normal(0.0, 0.3, size=shape + (seq.k,))
    got = noisy_sequence_unitary(seq, compiler, phases)
    ref = noisy_sequence_unitary_stacked(seq, compiler, phases)
    assert got.shape == ref.shape == shape + (4, 4)
    assert got.flags.c_contiguous
    assert np.max(np.abs(got - ref)) <= 1e-12


def test_bath_sign_table_matches_the_algebra():
    # g D(phi) g^dag is D(sign phi) for the gates that the merged rotations
    # move past, and neither D(phi) nor D(-phi) for the gates that stop them,
    # so a new gate label cannot be merged by mistake
    def d(phi):
        return expm(-0.5j * phi * Z)

    phi = 0.37
    assert set(_BATH_SIGN) <= set(ELECTRON_GATES)
    for label, g in ELECTRON_GATES.items():
        moved = g @ d(phi) @ g.conj().T
        signs = [s for s in (1, -1) if np.max(np.abs(moved - d(s * phi))) <= 1e-12]
        assert signs == ([_BATH_SIGN[label]] if label in _BATH_SIGN else []), label


@pytest.mark.parametrize("name,blocks", [("swap", 8), ("cz", 1)])
def test_packaged_gates_merge_into_blocks(packaged, name, blocks):
    # SWAP's 18 units between 7 Rx90 / Ry90 gates, CZ's 10 with none
    lib, params, _ = packaged
    seq, compiler = lib[name], UnitCompiler(params)
    products, signs, tail = compiler.bath_blocks(seq)
    assert len(products) == len(signs) == blocks and tail is None
    assert [j for block in signs for j, _ in block] == list(range(seq.k))
    assert compiler.bath_blocks(seq)[0] is products


@pytest.mark.parametrize("k", [1, 2, 5, 12])
def test_noisy_unitary_matches_stacked_products_on_random_gates(siv, k):
    # every gate label in every slot, the final one too, so that blocks
    # start at the first unit and a final Rx90 or Ry90 is left as a tail
    compiler = UnitCompiler(siv)
    rng = np.random.default_rng(40 + k)
    for _ in range(6):
        taus, names = random_sequence(rng, k)
        seq = DDSequence(tuple(taus), tuple(names))
        phases = rng.normal(0.0, 0.3, size=(7, k))
        got = noisy_sequence_unitary(seq, compiler, phases)
        ref = noisy_sequence_unitary_stacked(seq, compiler, phases)
        assert np.max(np.abs(got - ref)) <= 1e-12


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
        assert abs(getattr(got, field) - getattr(ref, field)) <= 1e-12, field


@pytest.mark.parametrize("name", ["swap", "cz"])
@pytest.mark.parametrize("trials", [1, 7, 20, 200, 1000])
def test_instances_in_one_call_bit_identical_to_separate_calls(packaged, name, trials):
    # a schedule's instances of one sequence are assembled in one call on
    # (instances, T, k) phases; every column is still its own 4x4 product
    lib, params, _ = packaged
    seq, compiler = lib[name], UnitCompiler(params)
    phases = np.random.default_rng(trials).normal(0.0, 1.0, size=(3, trials, seq.k))
    got = noisy_sequence_unitary(seq, compiler, phases)
    ref = np.array([noisy_sequence_unitary(seq, compiler, p) for p in phases])
    assert got.shape == (3, trials, 4, 4)
    assert np.array_equal(got, ref)


def _lean_noisy(packaged, n):
    lib, params, _ = packaged
    return ProtocolSpec(
        m=2, n=n, gate_library=lib, params=params, style="lean", trials=20, seed=1,
        noise=ou_from_coherence(3e-6, 300e-6, seed=1),
    )


@pytest.mark.parametrize("n", [6, 20])
def test_noisy_run_unchanged_by_assembly_groups(packaged, monkeypatch, n):
    # one instance per call, as before the instances were grouped
    spec = _lean_noisy(packaged, n)
    got = protocol.run(spec)
    monkeypatch.setattr(protocol, "_COLUMNS", 1)
    ref = protocol.run(spec)
    assert got.fidelity == ref.fidelity and got.fidelity_se == ref.fidelity_se
    assert np.array_equal(got.weights, ref.weights)


def test_noisy_run_assembles_each_sequence_once(packaged, monkeypatch):
    # 20 trials of lean 2x6: 7 SWAPs and 6 CZs, two noisy_sequence_unitary
    # calls in all, not one per gate
    calls = []

    def counted(seq, compiler, phases):
        calls.append(np.shape(phases)[:-1])
        return noisy_sequence_unitary(seq, compiler, phases)

    monkeypatch.setattr(protocol, "noisy_sequence_unitary", counted)
    protocol.run(_lean_noisy(packaged, 6))
    assert sorted(calls) == [(6, 20), (7, 20)]


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
    batch = execute(spec, sched, compiler, fold_segment_phases(phases))
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
    amps = execute(spec, sched, UnitCompiler(params), phases)
    corrections = {
        bits: None if locals_ is None else [Y @ u if times_y else u for u in locals_]
        for bits, locals_ in find_corrections(spec).items()
    }
    vecs = complete_dense(amps, spec, corrections, np.random.default_rng(seed))[0]
    ref = complete_by_wire_passes(amps, spec, corrections, np.random.default_rng(seed))
    assert np.array_equal(vecs, ref)


_CONTRACTION_GRID = [(2, n, "lean") for n in range(7)] + [
    (3, n, "pedagogical") for n in range(1, 5)
]


@pytest.mark.parametrize("m,n,style", _CONTRACTION_GRID)
@pytest.mark.parametrize("completion", ["corrected", "postselect"])
@pytest.mark.parametrize("noisy", [False, True], ids=["noiseless", "noisy"])
@pytest.mark.parametrize("init_one", [False, True])
def test_contraction_matches_dense_run(packaged, m, n, style, completion, noisy, init_one):
    # a corrected run with photons against the dense branch sum; the
    # all-|1> branch (postselection, or no photons) against the dense run
    lib, params, _ = packaged
    spec = ProtocolSpec(
        m=m, n=n, gate_library=lib, params=params, style=style, completion=completion,
        init_one=init_one, trials=20, seed=n + 7 * m,
        noise=ou_from_coherence(0.08e-6, 8e-6, seed=n) if noisy else None,
    )
    res = protocol.run(spec)
    if completion == "corrected" and n > 0:
        fid, se, _ = dense_branch_sum(spec)
        ps_prob, weights = 1.0, np.ones(res.trials)
    else:
        fid, se, ps_prob, _, weights, _ = dense_run(spec)
    assert abs(res.fidelity - fid) <= 1e-12
    assert abs(res.fidelity_se - se) <= 1e-12
    assert abs(res.postselect_probability - ps_prob) <= 1e-12
    assert np.max(np.abs(res.weights - weights)) <= 1e-12


@pytest.mark.parametrize("m,n,style", _CONTRACTION_GRID)
@pytest.mark.parametrize("init_one", [False, True])
def test_noiseless_corrected_run_is_the_branch_sum_for_every_seed(packaged, m, n, style,
                                                                  init_one):
    # no random number reaches a noiseless corrected run: every seed gives
    # the same F, with SE 0, and the dense branch sum
    lib, params, _ = packaged
    spec = ProtocolSpec(m=m, n=n, gate_library=lib, params=params, style=style,
                        init_one=init_one)
    runs = [protocol.run(replace(spec, seed=seed)) for seed in range(4)]
    assert len({(r.fidelity, r.fidelity_se) for r in runs}) == 1
    assert runs[0].fidelity_se == 0.0
    ref = dense_branch_sum(spec)[0] if n > 0 else dense_run(spec)[0]
    assert abs(runs[0].fidelity - ref) <= 1e-12


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("t2", [2e-6, 8e-6, 300e-6])
def test_sampled_completion_averages_to_the_branch_sum(packaged, n, t2):
    # the dense run samples one branch per trajectory from the same phases;
    # over seeds 1-10 its mean F agrees with the exact sum's within 3
    # combined standard errors of the two means
    lib, params, _ = packaged
    sampled, exact = [], []
    for seed in range(1, 11):
        spec = ProtocolSpec(m=2, n=n, gate_library=lib, params=params, style="lean",
                            trials=200, seed=seed,
                            noise=ou_from_coherence(0.01 * t2, t2, seed=seed))
        sampled.append(dense_run(spec)[:2])
        res = protocol.run(spec)
        exact.append((res.fidelity, res.fidelity_se))
    (f_s, se_s), (f_e, se_e) = np.transpose(sampled), np.transpose(exact)
    combined = np.sqrt(np.sum(se_s ** 2) + np.sum(se_e ** 2)) / 10
    assert abs(f_s.mean() - f_e.mean()) <= 3 * combined


def test_uncorrectable_branch_contributes_zero(packaged, monkeypatch):
    # a branch without a correction keeps a zero mask: F^2 loses exactly the
    # branch's share of the dense sum, and nothing raises
    spec = _lean_noisy(packaged, 2)
    corrections = find_corrections(spec)
    full = protocol.run(spec)
    target = protocol.ideal_target(2, 2, style="lean").data
    share = np.mean(np.abs(dense_branch_sum(spec)[2][:, 0] @ target.conj()) ** 2)
    assert share > 1e-3
    monkeypatch.setattr(protocol, "find_corrections",
                        lambda spec_: {**corrections, (0, 0): None})
    got = protocol.run(spec)
    assert abs(got.fidelity ** 2 - (full.fidelity ** 2 - share)) <= 1e-12
    assert abs(got.fidelity - dense_branch_sum(spec)[0]) <= 1e-12


def test_run_reads_only_which_branches_are_reachable(packaged, monkeypatch):
    # a corrected run compares each noisy branch with the same ideal branch,
    # so it applies no correction: identities in place of every reachable
    # branch's Paulis leave F and SE as they were
    spec = _lean_noisy(packaged, 2)
    corrections = find_corrections(spec)
    full = protocol.run(spec)
    monkeypatch.setattr(protocol, "find_corrections", lambda spec_: {
        bits: None if locals_ is None else [I2] * len(locals_)
        for bits, locals_ in corrections.items()
    })
    got = protocol.run(spec)
    assert abs(got.fidelity - full.fidelity) <= 1e-12
    assert abs(got.fidelity_se - full.fidelity_se) <= 1e-12


_SEGMENT_GRID = [
    ("lean", 2, t2, seed, False) for t2 in (2e-6, 8e-6, 300e-6) for seed in (1, 2, 3)
] + [("pedagogical", m, 8e-6, 1, init_one) for m in (2, 3) for init_one in (False, True)]


@pytest.mark.parametrize("style,m,t2,seed,init_one", _SEGMENT_GRID)
def test_component_fidelities_match_dense_segments(packaged, style, m, t2, seed, init_one):
    # the preparation and the building block through the contraction, each
    # |tr B|^2, against the dense segments' |<ideal|noisy>|^2 on the same
    # phases
    lib, params, _ = packaged
    spec = ProtocolSpec(
        m=m, n=2, gate_library=lib, params=params, style=style, init_one=init_one,
        trials=200 if style == "lean" else 50, seed=seed,
        noise=ou_from_coherence(0.01 * t2, t2, seed=seed),
    )
    compiler = UnitCompiler(params)
    got = component_fidelities(spec, compiler)
    ref = [segment_fidelity_dense(spec, compiler, prep_only) for prep_only in (True, False)]
    assert np.max(np.abs(np.subtract(got, ref))) <= 1e-12


@pytest.mark.parametrize("case", ["packaged-noiseless", "identity-cz"])
def test_noiseless_component_fidelities_match_dense_segments(packaged, case):
    lib, params, _ = packaged
    if case == "identity-cz":
        lib, params = dict(ideal_library(), cz=np.eye(4, dtype=complex)), None
    spec = ProtocolSpec(m=2, n=2, gate_library=lib, params=params, style="lean")
    compiler = None if params is None else UnitCompiler(params)
    got = component_fidelities(spec, compiler)
    ref = [segment_fidelity_dense(spec, compiler, prep_only) for prep_only in (True, False)]
    assert np.max(np.abs(np.subtract(got, ref))) <= 1e-12
    assert got[1] < 1 - 1e-6


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


def eigen_stacks(compiler, names, target):
    """The gate stack and T^dag of `names` and `target` in the eigenbasis."""
    return compiler.to_eigenbasis(_gate_stack(names)), compiler.to_eigenbasis(target.conj().T)


def test_unit_stacks_match_per_unit_products(siv):
    # the d/dtau half of the unit weights is checked through the objective's
    # gradient below
    compiler = UnitCompiler(siv)
    taus = np.random.default_rng(5).uniform(1e-9, 2e-7, size=9)
    stack = compiler.eigen_units(taus)
    assert stack.shape == (9, 4, 4)
    v = compiler._vecs
    units = v @ stack @ v.conj().T
    assert np.max(np.abs(compiler.units(taus) - units)) <= 1e-12
    for t, u in zip(taus, units):
        assert np.max(np.abs(u - unit_and_derivative(t, compiler)[0])) <= 1e-12


def test_real_form_is_an_algebra_map():
    # the objective multiplies rho(C) = Re C (x) 1_2 + Im C (x) J in place of C
    rng = np.random.default_rng(3)
    a, b = (rng.normal(size=(2, 7, 4, 4)) + 1j * rng.normal(size=(2, 7, 4, 4)))
    assert np.max(np.abs(_rho(a @ b) - _rho(a) @ _rho(b))) <= 1e-14
    assert np.max(np.abs(_rho(a.conj().transpose(0, 2, 1)) - _rho(a).transpose(0, 2, 1))) <= 1e-14
    traces = np.trace(a, axis1=1, axis2=2)
    read = _rho(a).reshape(7, 64) @ _RHO_TRACES.T
    assert np.max(np.abs(read[:, 0] - traces.real)) <= 1e-14
    assert np.max(np.abs(read[:, 1] - traces.imag)) <= 1e-14
    # the 2x2 blocks of one entry: [[Re, -Im], [Im, Re]]
    np.testing.assert_array_equal(_rho(np.diag([1 + 2j, 0, 0, 0]))[:2, :2], [[1, -2], [2, 1]])


# every depth of the doubling scan: no step (k = 1), one, and k on both sides
# of 8 and 16, where a step is added
@pytest.mark.parametrize("k", [1, 2, 4, 8, 9, 12, 16, 17, 20])
@pytest.mark.parametrize("target", ["cz", "swap"])
def test_objective_matches_list_products(siv, k, target):
    compiler = UnitCompiler(siv)
    rng = np.random.default_rng(k)
    target_h = compiler.to_eigenbasis(TARGETS[target].conj().T)
    for _ in range(3):
        taus, names = random_sequence(rng, k)
        cost, grad = _objective(names, target_h, compiler)(taus)
        ref_fid, ref_grad = list_fidelity_and_gradient(taus, names, TARGETS[target], compiler)
        # the objective is what the polish minimizes: (1 - F, -dF/dtau)
        assert abs(cost - (1 - ref_fid)) <= 1e-12
        assert np.max(np.abs(grad + ref_grad)) <= 1e-12 * np.max(np.abs(ref_grad))


def test_objective_reuses_its_buffer_without_carrying_state(siv):
    # the prefix buffer is shared by all calls of one objective: a call must
    # depend on its own spacings alone, to the bit
    compiler = UnitCompiler(siv)
    rng = np.random.default_rng(17)
    taus_a, names = random_sequence(rng, 9)
    taus_b = rng.uniform(1e-9, 9e-8, size=9)
    objective = _objective(names, compiler.to_eigenbasis(TARGETS["swap"].conj().T), compiler)
    first = objective(taus_a)
    other = objective(taus_b)
    again = objective(taus_a)
    assert first[0] == again[0] and np.array_equal(first[1], again[1])
    assert first[0] != other[0]
    # the returned gradient is not a view of the buffer the next call rewrites
    assert not np.array_equal(first[1], other[1])


@pytest.mark.parametrize("target", ["cz", "swap"])
def test_suffix_from_unitarity_matches_explicit_products(siv, target):
    # the environment R_i X P_i^dag of unit i, with the suffix taken as
    # U' P_i^dag, against R_i T'^dag W_i with W_i = G'_k f_{k-1} ... f_{i+1}
    # multiplied out, at k = 20
    compiler = UnitCompiler(siv)
    taus, names = random_sequence(np.random.default_rng(31), 20)
    gates, target_h = eigen_stacks(compiler, names, TARGETS[target])
    factors = compiler.eigen_units(taus) @ gates[:-1]
    prefix, x = _prefix_pass(factors, gates[-1], target_h)
    derived = prefix[:-1] @ x @ prefix[1:].conj().transpose(0, 2, 1)
    suffix = gates[-1]
    for i in reversed(range(20)):
        assert np.max(np.abs(derived[i] - prefix[i] @ target_h @ suffix)) <= 1e-12
        suffix = suffix @ factors[i]
    assert np.max(np.abs(gates[-1] @ prefix[-1] - suffix)) <= 1e-12


def test_gradient_matches_central_difference(siv):
    compiler = UnitCompiler(siv)
    taus, names = random_sequence(np.random.default_rng(8), 6)
    objective = _objective(names, compiler.to_eigenbasis(TARGETS["cz"].conj().T), compiler)
    _, grad = objective(taus)  # -dF/dtau, the slope of the cost 1 - F
    # a 0.1 ps step: truncation (h^2 f''') and rounding (eps / h) both stay
    # below 1e-8 of the gradient
    h = 1e-13
    numeric = np.zeros_like(grad)
    for i in range(len(taus)):
        step = np.zeros_like(taus)
        step[i] = h
        numeric[i] = (objective(taus + step)[0] - objective(taus - step)[0]) / (2 * h)
    assert np.max(np.abs(grad - numeric)) <= 1e-6 * np.max(np.abs(grad))


@pytest.mark.parametrize("k", [4, 12])
def test_slot_fidelities_match_full_sequences(siv, k):
    compiler = UnitCompiler(siv)
    rng = np.random.default_rng(20 + k)
    for target in ("cz", "swap"):
        taus, names = random_sequence(rng, k)
        table = _slot_fidelities(compiler.eigen_units(taus), names,
                                 compiler.to_eigenbasis(TARGETS[target].conj().T),
                                 compiler.to_eigenbasis(_ALL_GATES))
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
        got = _discrete_sweep(np.array(seq.tau_f), names,
                              compiler.to_eigenbasis(TARGETS["cz"].conj().T), compiler,
                              np.random.default_rng(trial))
        ref = full_sequence_sweep(seq.tau_f, names, TARGETS["cz"], compiler,
                                  np.random.default_rng(trial))
        assert got[0] == ref[0] and got[2] == ref[2]
        assert abs(got[1] - ref[1]) <= 1e-12
        changed += got[0] != names
    assert changed
