"""Slow reference paths kept only to cross-check the package: a matrix
exponential for the eigendecomposition propagator, a one-state evolution for
the batched engine, and a quadrature for the closed-form emission fidelity.
They need scipy, which the package does not load on its simulation path.
"""
from __future__ import annotations

import numpy as np
from scipy.integrate import quad
from scipy.linalg import expm

from spincluster.emission import EmissionParams
from spincluster.hamiltonian import propagator
from spincluster.states import QuantumState, QubitRole, RoleKind, apply_gate, max_pure_fidelity


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
