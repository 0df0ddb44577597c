"""Slow reference paths kept only to cross-check the package: a matrix
exponential for the eigendecomposition propagator, a one-state evolution for
the batched engine, a quadrature for the closed-form emission fidelity, and
the per-trajectory forms of the noisy gate assembly and the batched gate
application, which the package's one-GEMM forms must match bit for bit.
The first three need scipy, which the package does not load on its
simulation path.
"""
from __future__ import annotations

import numpy as np
from scipy.integrate import quad
from scipy.linalg import expm

from spincluster.emission import EmissionParams
from spincluster.hamiltonian import propagator
from spincluster.states import QuantumState, QubitRole, RoleKind, apply_gate, max_pure_fidelity
from spincluster.synthesis import _GATE_4X4, DDSequence, UnitCompiler, _gate_stack


def evolve(state: QuantumState, h: np.ndarray, t: float, targets=None) -> QuantumState:
    """Evolve `targets` (default: all wires) under H for time t."""
    u = propagator(h, t)
    if targets is None:
        targets = list(range(state.n_qubits))
    return apply_gate(state, u, targets)


# expm kept as an independent cross-check path for tests
def propagator_expm(h: np.ndarray, t: float) -> np.ndarray:
    return expm(-2j * np.pi * h * t)


def dephased_state(p: EmissionParams) -> QuantumState:
    """Exponential-dwell average of |Psi(omega t)><Psi(omega t)|, by
    adaptive quadrature (relative error < 1e-8)."""
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
    wires = (QubitRole(RoleKind.ELECTRON), QubitRole(RoleKind.PHOTON, 0))
    return QuantumState(rho, wires)


def emission_fidelity_numeric(p: EmissionParams) -> float:
    """Quadrature + eigendecomposition path; cross-checks the closed form."""
    return max_pure_fidelity(dephased_state(p))


def noisy_sequence_unitary_stacked(seq: DDSequence, compiler: UnitCompiler,
                                   phases: np.ndarray) -> np.ndarray:
    """`synthesis.noisy_sequence_unitary` as a (T, 4, 4) stack of running
    products: each unit is one stacked matmul, T separate 4x4 products."""
    phases = np.asarray(phases, float)
    half = np.exp(-0.5j * (phases[..., 0::3] - phases[..., 1::3] + phases[..., 2::3]))
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
