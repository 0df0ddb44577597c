"""Spin-photon entanglement fidelity under excited-state dephasing.

During emission the electron sits in the excited state for an exponentially
distributed time t (mean tau) and acquires a random phase delta_omega * t
between the two spin branches. Averaging |Psi(phi)> = (|0>|g0> +
e^{i phi} |1>|g1>)/sqrt(2) over the dwell time leaves a mixed two-qubit
state whose coherence is damped by 1/sqrt(1 + (delta_omega tau)^2).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class EmissionParams:
    tau: float  # excited-state lifetime, s
    delta_omega: float  # ground/excited precession mismatch, rad/s

    def __post_init__(self):
        if not (np.isfinite(self.tau) and self.tau > 0):
            raise ValueError(f"lifetime must be finite and positive, got {self.tau}")
        if not (np.isfinite(self.delta_omega) and self.delta_omega >= 0):
            raise ValueError(f"delta_omega must be finite and non-negative, got {self.delta_omega}")


def coherence_magnitude(p: EmissionParams) -> float:
    """Closed form |rho_03| = 1 / (2 sqrt(1 + (omega tau)^2))."""
    x = p.delta_omega * p.tau
    return 1.0 / (2.0 * np.sqrt(1.0 + x * x))


def emission_fidelity(p: EmissionParams) -> float:
    """Best pure-state fidelity of the dephased spin-photon pair:
    sqrt((1 + 1/sqrt(1 + (omega tau)^2)) / 2)."""
    x = p.delta_omega * p.tau
    return float(np.sqrt(0.5 * (1.0 + 1.0 / np.sqrt(1.0 + x * x))))


def colour_encoding_floor(p: EmissionParams) -> float:
    """Fidelity ceiling for frequency encoding, which requires the emitted
    colours to be resolvable: omega tau >= 2 pi."""
    floor_params = EmissionParams(tau=p.tau, delta_omega=2 * np.pi / p.tau)
    return emission_fidelity(floor_params)
