"""Slow reference paths kept only to cross-check the package: a matrix
exponential for the eigendecomposition propagator, a one-state evolution for
the batched engine, a quadrature for the closed-form emission fidelity, and
the per-unit form of the noisy gate assembly, which the package's merged
bath rotations must match to rounding, the per-trajectory form of the
batched gate application, which its one-GEMM form must match bit for bit,
the dense trajectory path that `protocol.run` replaced by its
boundary-tensor contraction, with the batched noisy executor it ran on and
its completion, which samples one branch per trajectory; the dense
Born-weighted sum over every branch that `run` computes instead; the dense
component fidelities that `protocol.component_fidelities` replaced by the
same contraction; the OU sampler that formed its mean term as a third
(T, segments) array, which the package's blocked form must match byte for
byte; the OU trajectory sampler and the Monte-Carlo free-induction and
Hahn-echo signals, with a least-squares fit of their decay times, the
oracles of the bath's sampler and calibration; and the synthesis objective
that built its buffers once per polish and allocated its intermediates on
every call, which the package's shared workspace must match bit for bit.
The first three and the fit need scipy, which the package does not load on
its simulation path.
"""
from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
from scipy.integrate import quad
from scipy.linalg import expm
from scipy.optimize import curve_fit

from spincluster.emission import EmissionParams
from spincluster import protocol
from spincluster.hamiltonian import propagator
from spincluster.noise import OUNoise, _excess, _ou_segments, segment_phases
from spincluster.states import QuantumState, apply_gate
from spincluster.synthesis import (
    _GATE_4X4, _GATE_NAMES, _RHO_ROWS, _RHO_TRACES, DDSequence, UnitCompiler, _doubling_scan,
    _gate_stack, _rho,
)


def evolve(state: QuantumState, h: np.ndarray, t: float, targets=None) -> QuantumState:
    """Evolve `targets` (default: all wires) under H for time t."""
    u = propagator(h, t)
    if targets is None:
        targets = list(range(state.n_qubits))
    return apply_gate(state, u, targets)


# expm kept as an independent cross-check path for tests
def propagator_expm(h: np.ndarray, t: float) -> np.ndarray:
    return expm(-2j * np.pi * h * t)


def dephased_state(p: EmissionParams) -> np.ndarray:
    """Density matrix (4, 4) over (electron, photon) of the exponential-dwell
    average of |Psi(omega t)><Psi(omega t)|, by adaptive quadrature (relative
    error < 1e-8)."""
    x = p.delta_omega * p.tau
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = rho[3, 3] = 0.5
    if x == 0.0:
        re, im = 0.5, 0.0
    else:
        # Fourier-weighted quadrature stays accurate for fast oscillation
        re, _ = quad(lambda s: np.exp(-s) / 2, 0, np.inf,
                     weight="cos", wvar=x, epsrel=1e-12)
        im, _ = quad(lambda s: np.exp(-s) / 2, 0, np.inf,
                     weight="sin", wvar=x, epsrel=1e-12)
    rho[3, 0] = re + 1j * im
    rho[0, 3] = np.conj(rho[3, 0])
    return rho


def emission_fidelity_numeric(p: EmissionParams) -> float:
    """Quadrature + eigendecomposition path; cross-checks the closed form:
    the largest sqrt(<a|rho|a>) over pure |a>, sqrt of rho's largest
    eigenvalue."""
    return float(np.sqrt(np.linalg.eigvalsh(dephased_state(p))[-1]))


def segment_durations(seq: DDSequence) -> np.ndarray:
    """Free-precession segments of `seq` in order: (tau, 2tau, tau) per unit."""
    return np.array([d for t in seq.tau_f for d in (t, 2 * t, t)])


def fold_segment_phases(phases: np.ndarray) -> np.ndarray:
    """Unit phases (..., k) from per-segment phases (..., 3k): the toggling
    frame's (+, -, +) sum over each unit's three segments."""
    phases = np.asarray(phases, float)
    return phases[..., 0::3] - phases[..., 1::3] + phases[..., 2::3]


def noisy_sequence_unitary_stacked(seq: DDSequence, compiler: UnitCompiler,
                                   phases: np.ndarray) -> np.ndarray:
    """`synthesis.noisy_sequence_unitary` on unit phases (..., k) as a stack
    of running products with the bath rotation after every unit: each unit is
    one stacked matmul, T separate 4x4 products, and no rotations merge."""
    phases = np.asarray(phases, float)
    half = np.exp(-0.5j * phases)
    dephase = np.stack([half, half, half.conj(), half.conj()], axis=-1)[..., None]
    factors = compiler.units(seq.tau_f) @ _gate_stack(seq.electron_gates[:-1])
    u = np.broadcast_to(np.eye(4, dtype=complex), phases.shape[:-1] + (4, 4))
    for i, f in enumerate(factors):
        u = dephase[..., i, :, :] * (f @ u)
    return _GATE_4X4[seq.electron_gates[-1]] @ u


def apply_matrix_vec_moveaxis(vecs: np.ndarray, u: np.ndarray, targets, n: int) -> np.ndarray:
    """`states._apply_matrix_vec` with the target wires always moved to the
    front and back, and one stacked matmul over the rows."""
    k = len(targets)
    src = [1 + t for t in targets]
    dst = list(range(1, k + 1))
    psi = np.moveaxis(vecs.reshape([-1] + [2] * n), src, dst)
    psi = u @ psi.reshape(len(vecs), 2 ** k, -1)
    psi = np.moveaxis(psi.reshape([-1] + [2] * n), dst, src)
    return psi.reshape(len(psi), -1)


def execute(spec, items, compiler=None, phases=None, start=None) -> np.ndarray:
    """Run the gate and emit items of a schedule on a batch of pure register
    states, one row per row of `phases` (a single row without them), from
    the initial spin state, or from the (1, 2^wires) amplitudes `start`.
    Returns the amplitudes, shaped (T, 2^wires)."""
    rows = 1 if phases is None else len(phases)
    if start is None:
        start = np.zeros((1, 2 ** spec.m), dtype=complex)
        start[0, -1 if spec.init_one else 0] = 1.0
    amps = np.broadcast_to(start, (rows, start.shape[1]))
    n = start.shape[1].bit_length() - 1
    unitaries = protocol._gate_unitaries(spec, items, compiler, phases)
    for item in items:
        if item.kind == "gate":
            amps = protocol._apply_matrix_vec(amps, next(unitaries), item.wires, n)
        elif item.kind == "emit":
            amps = protocol._emit(amps, 0)
            n += 1
    return amps


def segment_fidelity_dense(spec, compiler, prep_only: bool) -> float:
    """`protocol.component_fidelities`' preparation (`prep_only`) or
    building-block fidelity on dense (T, 2^n) batches: the noisy segment
    from `execute` against the ideal one, sqrt(mean |<ideal|noisy>|^2), on
    the same phases; the block starts from the dense ideal preparation."""
    one_col = replace(
        spec, n=min(spec.n, 1), seed=spec.seed + (1 if prep_only else 2)
    )
    prep_sched, block_sched = protocol._schedule_split(one_col)
    ideal = replace(one_col, gate_library=protocol.ideal_library())
    if prep_only:
        items, start = prep_sched, None
    else:
        items, start = block_sched, execute(ideal, prep_sched)
    ref = execute(ideal, items, start=start)[0]
    out = execute(
        one_col, items, compiler,
        protocol._sample_phases(one_col, items, np.random.default_rng(one_col.seed)),
        start=start,
    )
    return float(np.sqrt(np.mean(np.abs(out @ ref.conj()) ** 2)))


def complete_dense(amps, spec, corrections, rng):
    """Completion measurement of the spin wires on each row of a (T, 2^n)
    batch; returns (photonic vectors (T, 2^(n-m)), weights (T,), spin
    outcomes (T,)), an outcome's wire 0 its most significant bit.

    corrected mode: sample each trajectory's spin outcomes by the Born rule,
    wire by wire from one uniform each, and apply the cached Pauli photon
    correction to the normalised branch as one index flip and one phase
    vector; weight 1.
    postselect mode (corrections None): the unnormalised all-|1> branch and
    its probability; without photons to correct, corrected mode takes that
    branch normalised, with weight 1."""
    t, m = len(amps), spec.m
    branches = amps.reshape(t, 2 ** m, -1)
    if corrections is None:
        vecs = branches[:, -1].copy()
        w = np.sum(np.abs(vecs) ** 2, axis=1)
        all_ones = np.full(t, 2 ** m - 1)
        if spec.completion == "postselect":
            return vecs, w, all_ones
        return vecs / np.sqrt(np.maximum(w, 1e-300))[:, None], np.ones(t), all_ones
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
    index = np.arange(vecs.shape[1])
    outcome_bits = list(np.ndindex(*(2,) * m))
    for o in np.unique(outcome):
        sel = outcome == o
        flip, phase = protocol._pauli_action(corrections[outcome_bits[o]])
        vecs[sel] = phase * vecs[np.ix_(sel, index ^ flip)]
    return vecs, np.ones(t), outcome


def dense_run(spec):
    """`protocol.run` on the dense path: the whole (T, 2^(M+MN)) batch from
    the executor, the sampled completion of `complete_dense` and the
    overlaps with `ideal_target`, from the same random stream. Returns
    (fidelity, fidelity_se, postselect_probability, vectors, weights,
    outcomes)."""
    sched = protocol.build_schedule(spec)
    target = protocol.ideal_target(spec.m, spec.n, spec.style, spec.init_one)
    corrections = (
        protocol.find_corrections(spec)
        if spec.completion == "corrected" and spec.n > 0 else None
    )
    rng = np.random.default_rng(spec.seed)
    phases = protocol._sample_phases(spec, sched, rng)
    amps = execute(spec, sched, protocol._compiler_for(spec), phases)
    vecs, weights, outcomes = complete_dense(amps, spec, corrections, rng)
    overlaps = np.abs(vecs @ target.data.conj()) ** 2
    fid2 = overlaps.sum() / weights.sum()
    fid = float(np.sqrt(fid2))
    se = 0.0
    if spec.noise is not None:
        t = len(vecs)
        resid = overlaps - fid2 * weights
        se = float(np.sqrt(np.sum(resid ** 2) / (t - 1)) / np.sqrt(t) / np.mean(weights))
        se = se / (2 * fid)
    ps_prob = float(np.mean(weights)) if spec.completion == "postselect" else 1.0
    return fid, se, ps_prob, vecs, weights, outcomes


def dense_branch_sum(spec):
    """`protocol.run` in corrected mode on the dense path, with every spin
    outcome summed by its Born weight instead of sampled: on the same bath
    phases, branch o of each trajectory's (2^M, 2^(MN)) register, left
    unnormalised, takes the 2x2 Pauli corrections of `find_corrections` one
    photon wire at a time (a branch without one is a zero vector), and
    o_t = sum_o |<target|v_{t,o}>|^2 with weight 1. Needs n > 0. Returns
    (fidelity, fidelity_se, corrected branches (T, 2^M, 2^(MN)))."""
    sched = protocol.build_schedule(spec)
    target = protocol.ideal_target(spec.m, spec.n, spec.style, spec.init_one)
    corrections = protocol.find_corrections(spec)
    phases = protocol._sample_phases(spec, sched, np.random.default_rng(spec.seed))
    amps = execute(spec, sched, protocol._compiler_for(spec), phases)
    branches = amps.reshape(len(amps), 2 ** spec.m, -1).copy()
    photons = spec.m * spec.n
    for o, bits in enumerate(np.ndindex(*(2,) * spec.m)):
        if corrections[bits] is None:
            branches[:, o] = 0.0
            continue
        for wire, u in enumerate(corrections[bits]):
            branches[:, o] = protocol._apply_matrix_vec(branches[:, o], u, [wire], photons)
    overlaps = np.sum(np.abs(branches @ target.data.conj()) ** 2, axis=1)
    fid2 = overlaps.mean()
    fid = float(np.sqrt(fid2))
    se = 0.0
    if spec.noise is not None:
        t = len(overlaps)
        se = float(np.sqrt(np.sum((overlaps - fid2) ** 2) / (t - 1)) / np.sqrt(t)) / (2 * fid)
    return fid, se, branches


def ou_segments_whole(noise, durations: np.ndarray, n_traj: int, rng: np.random.Generator):
    """`noise._ou_segments` with the mean term formed over all trajectories
    at once, a third (n_traj, S) array next to b and the phases."""
    x = np.asarray(durations, float) / noise.tau_c
    s, tau = noise.sigma_st, noise.tau_c
    half = np.tanh(x / 2)
    excess = _excess(x)
    b = rng.standard_normal((n_traj, len(x) + 1))
    b *= s * np.sqrt(np.concatenate(([1.0], -np.expm1(-2 * x))))
    decay = np.concatenate(([0.0], np.exp(-x)))
    d = 1
    while d < len(decay):
        b[:, d:] += decay[d:] * b[:, :-d]
        decay[d:] = decay[d:] * decay[:-d]
        d *= 2
    phases = rng.standard_normal((n_traj, len(x)))
    phases *= s * tau * np.sqrt(2 * excess)
    mean = b[:, :-1] + b[:, 1:]
    mean *= tau * half
    phases += mean
    return b, phases


def sample_trajectory(noise: OUNoise, duration: float, rng: np.random.Generator | None = None) -> np.ndarray:
    """Stationary OU samples B(0), B(dt), ..., covering [0, duration], on
    the grid dt = min(tau_c / 50, duration / 20)."""
    if duration <= 0:
        raise ValueError("duration must be positive")
    rng = np.random.default_rng(noise.seed) if rng is None else rng
    dt = min(noise.tau_c / 50, duration / 20)
    n = int(np.ceil(duration / dt)) + 1
    return _ou_segments(noise, np.full(n - 1, dt), 1, rng)[0][0]


def fid_echo_signals(noise: OUNoise, times: np.ndarray, n_traj: int, seed: int | None = None):
    """Monte-Carlo <sigma_x> for free induction and Hahn echo at the given times.

    Times must be positive; the echo places its pi pulse at t/2. Returns
    (fid_signal, echo_signal) arrays.
    """
    rng = np.random.default_rng(noise.seed if seed is None else seed)
    times = np.asarray(times, float)
    # one path over the sorted grid {0, t/2, t}; phi(t) is its running sum
    grid = np.unique(np.concatenate(([0.0], times / 2, times)))
    cum = np.zeros((n_traj, len(grid)))
    cum[:, 1:] = np.cumsum(segment_phases(noise, np.diff(grid), n_traj, rng), axis=1)
    phi = cum[:, np.searchsorted(grid, times)]
    phi_half = cum[:, np.searchsorted(grid, times / 2)]
    fid = np.mean(np.cos(phi), axis=0)
    echo = np.mean(np.cos(phi - 2 * phi_half), axis=0)
    return fid, echo


def fit_decay(times: np.ndarray, signal: np.ndarray, power: int) -> float:
    """|T| of scipy's least-squares fit of exp(-(t/T)^power / 2) to
    `signal`, from the start T = times[len(times) // 2]: T2* for power 2 and
    a free-induction signal, the Hahn-echo T2 for power 3 and an echo."""
    times = np.asarray(times, float)
    popt, _ = curve_fit(lambda t, big_t: np.exp(-(t / big_t) ** power / 2), times, signal,
                        p0=[times[len(times) // 2]])
    return float(abs(popt[0]))


def reference_objective(gate_names, target_h, compiler):
    """The cost function of a polish: taus -> (1 - F, -dF/dtau) with
    F = |Tr(T^dag U)| / 4, for the k + 1 electron gates `gate_names` and
    `target_h` = T^dag in the eigenbasis (`UnitCompiler.to_eigenbasis`),
    which stay fixed while the spacings move.

    All that does not depend on the spacings is built here, once. The factor
    f_i = b_i G'_i of `eigen_units`' unit b_i is
    f_ac = d1_a sum_{m,b} d2_m d1_b W[m, 0, a, b] G'_bc, so with each slot's
    gate folded into the unit weights (`UnitCompiler._gate_kernels`), every f_i
    and df_i = db_i G'_i is one (k, 1, 16) @ (k, 16, 32) product scaled by
    d1_a. From there the arithmetic is real: one product with `_RHO_ROWS`
    writes rho(f_i) and rho(df_i) into a buffer the calls share, where the
    prefixes rho(R_i), R_i = f_{i-1} ... f_0 (R_0 = 1), are scanned in place by
    doubling; no array the function returns is a view of it. Every factor is
    unitary, so the part of U' after unit i is U' R_{i+1}^dag, and with
    X = T'^dag U' the prefix pass alone gives
    d Tr(T'^dag U') / dtau_i = Tr(R_{i+1}^dag df_i R_i X). This is the
    forward/backward-propagator gradient of GRAPE."""
    k = len(gate_names) - 1
    kernel = compiler._gate_kernels[[_GATE_NAMES.index(g) for g in gate_names[:-1]]]
    last = _rho(target_h @ compiler.to_eigenbasis(_GATE_4X4[gate_names[-1]]))
    phases = -2j * np.pi * compiler._vals
    buf = np.zeros((2, k + 1, 8, 8))  # [rho(R_i), rho(df_{i-1})]
    buf[0, 0] = np.eye(8)
    prefix, d_factors = buf[0], buf[1, 1:]
    rows = buf.reshape(2, k + 1, 4, 16)[:, 1:]  # the row pairs of rho(f_i), rho(df_i)
    scan = _doubling_scan(prefix)
    before = prefix[:-1].reshape(-1, 8)  # R_0 ... R_{k-1} stacked, for one GEMM
    after = prefix[1:].reshape(k, 64, 1)

    def cost_and_gradient(taus):
        d1 = np.exp(np.multiply.outer(taus, phases))
        v = ((d1 * d1)[:, :, None] * d1[:, None, :]).reshape(k, 1, 16)  # d2_m d1_b
        f = (v @ kernel).reshape(k, 2, 4, 4)
        f *= d1[:, None, :, None]
        np.matmul(f.view(float).transpose(1, 0, 2, 3), _RHO_ROWS, out=rows)
        for later, earlier in scan:
            np.matmul(later, earlier, out=later)
        x = last @ prefix[-1]
        re, im = (_RHO_TRACES @ x.reshape(64)).tolist()
        size = math.hypot(re, im)
        if size <= 1e-300:
            return 1 - size / 4, np.zeros(k)
        # dF = Re(z^* dz) / 4|z|: X times rho(-z^* / 8|z|), halved as Tr rho = 2 Re Tr
        c = -0.125 / size
        x = x.reshape(32, 2) @ np.array([[c * re, c * im], [-c * im, c * re]])
        y = d_factors @ (before @ x.reshape(8, 8)).reshape(k, 8, 8)
        return 1 - size / 4, (y.reshape(k, 1, 64) @ after).reshape(k)

    return cost_and_gradient
