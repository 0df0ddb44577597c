"""Electron-nuclear free-precession Hamiltonian of a group-IV defect, in the
frame rotating at the electron Zeeman frequency.

All Hamiltonians are expressed in ordinary-frequency units (Hz); the 2*pi
factor enters only inside the propagator, so hyperfine constants (70 MHz)
and gyromagnetic ratios (GHz/T) can be used directly.

Conventions: wire 0 = electron, wire 1 = nucleus; z is the defect symmetry
axis; the off-axis field component is confined to x (By = 0).
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .states import I2, X, Y, Z

# default gyromagnetic ratios (Hz/T); 29Si from standard nuclear data
GAMMA_E_DEFAULT = 14e9
GAMMA_N_SI29 = -8.465e6


class SecularApproximationWarning(UserWarning):
    pass


@dataclass(frozen=True)
class SpinSystemParams:
    a_par: float  # Hz
    a_perp: float = 0.0  # Hz
    gamma_e: float = GAMMA_E_DEFAULT  # Hz/T
    gamma_n: float = GAMMA_N_SI29  # Hz/T
    b_field: tuple = (0.0, 0.0, 0.0)  # Tesla, (Bx, By, Bz)
    lambda_so: float = 50e9  # Hz, spin-orbit splitting

    def __post_init__(self):
        if not (np.isfinite(self.a_par) and self.a_par > 0):
            raise ValueError(f"a_par must be finite and positive, got {self.a_par}")

    @property
    def secular_valid(self) -> bool:
        bx, by, _ = self.b_field
        return self.gamma_e * np.hypot(bx, by) < 0.1 * self.lambda_so


@dataclass(frozen=True)
class PrecessionAxes:
    omega_plus: np.ndarray  # rad/s
    omega_minus: np.ndarray  # rad/s

    @property
    def antiparallel(self) -> bool:
        up = self.omega_plus / np.linalg.norm(self.omega_plus)
        um = self.omega_minus / np.linalg.norm(self.omega_minus)
        return float(np.dot(up, um)) < 0.0


def free_hamiltonian(p: SpinSystemParams, include_a_perp: bool = False) -> np.ndarray:
    """4x4 Hermitian free-precession Hamiltonian, Hz units, on (electron,
    nucleus): secular hyperfine plus nuclear Zeeman."""
    if not p.secular_valid:
        warnings.warn(
            "gamma_e * B_xy exceeds 0.1 * lambda_SO; secular approximation dubious",
            SecularApproximationWarning,
        )
    bx, by, bz = p.b_field
    b_dot_sigma = bx * X + by * Y + bz * Z
    h = p.a_par * np.kron(Z / 2, Z / 2) + p.gamma_n * np.kron(I2, b_dot_sigma / 2)
    if include_a_perp:
        h = h + p.a_perp * (np.kron(X / 2, X / 2) + np.kron(Y / 2, Y / 2))
    return h


def precession_axes(p: SpinSystemParams) -> PrecessionAxes:
    """Nuclear precession axes conditioned on the electron state, in rad/s."""
    bx, by, bz = p.b_field
    if by != 0.0:
        raise ValueError("off-axis field must lie in the x-z plane (By = 0)")
    base = np.array([p.gamma_n * bx / 2, 0.0, p.gamma_n * bz / 2])
    shift = np.array([0.0, 0.0, p.a_par / 4])
    return PrecessionAxes(
        omega_plus=2 * np.pi * (base + shift),
        omega_minus=2 * np.pi * (base - shift),
    )


def resonance_spacing(p: SpinSystemParams, n: int = 1, kind: str = "conditional") -> float:
    """Interpulse spacing tau (s) satisfying the nuclear-precession resonance.

    conditional:   (|w+| - |w-|) tau = (2n-1) pi
    unconditional: (|w+| - |w-|) tau = 2n pi
    """
    if n < 1:
        raise ValueError("resonance index n must be >= 1")
    axes = precession_axes(p)
    diff = abs(np.linalg.norm(axes.omega_plus) - np.linalg.norm(axes.omega_minus))
    if diff < 1e-30:
        raise ValueError("|w+| == |w-|: resonance condition is degenerate")
    if kind == "conditional":
        return (2 * n - 1) * np.pi / diff
    if kind == "unconditional":
        return 2 * n * np.pi / diff
    raise ValueError(f"unknown resonance kind {kind!r}")


def propagator(h: np.ndarray, t: float) -> np.ndarray:
    """exp(-i 2 pi H t) for H in Hz."""
    if t < 0:
        raise ValueError("evolution time must be non-negative")
    if np.linalg.norm(h - h.conj().T) > 1e-9 * max(np.linalg.norm(h), 1.0):
        raise ValueError("Hamiltonian is not Hermitian")
    vals, vecs = np.linalg.eigh(h)
    return (vecs * np.exp(-2j * np.pi * vals * t)) @ vecs.conj().T
