"""Closed-form fidelity extrapolation to long cluster states, the photon
efficiency rate model, and field selection for minimum sequence length."""
from __future__ import annotations

import math
from dataclasses import dataclass

from .hamiltonian import SpinSystemParams


@dataclass(frozen=True)
class EfficiencyBudget:
    eta_qe: float  # quantum efficiency
    eta_dwf: float  # Debye-Waller factor
    eta_ce: float  # collection efficiency
    eta_de: float  # detection efficiency

    def __post_init__(self):
        for name in ("eta_qe", "eta_dwf", "eta_ce", "eta_de"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")

    @property
    def combined(self) -> float:
        return self.eta_qe * self.eta_dwf * self.eta_ce * self.eta_de

    @staticmethod
    def from_combined(eta: float) -> "EfficiencyBudget":
        """Single overall efficiency, folded into one factor."""
        if not 0.0 <= eta <= 1.0:
            raise ValueError("eta_combined must be in [0, 1]")
        return EfficiencyBudget(eta, 1.0, 1.0, 1.0)


@dataclass(frozen=True)
class FidelityBudget:
    f_prep: float
    f_block: float
    f_photon_gate: float  # spin-photon entanglement fidelity per photon
    m: int  # rails
    n: int  # columns

    def __post_init__(self):
        for name in ("f_prep", "f_block", "f_photon_gate"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if self.m < 1 or self.n < 0:
            raise ValueError("cluster dimensions must be positive")

    @property
    def photons(self) -> int:
        return self.m * self.n


def extrapolated_fidelity(b: FidelityBudget) -> float:
    """F = f_prep * f_block^N * f_photon^(M N); initialisation and readout
    taken as unity."""
    return b.f_prep * b.f_block ** b.n * b.f_photon_gate ** b.photons


def generation_rate(e: EfficiencyBudget, photons: int, scheme_duration: float) -> float:
    """R = eta_combined^photons / scheme_duration, in Hz."""
    if not (math.isfinite(scheme_duration) and scheme_duration > 0):
        raise ValueError(f"scheme duration must be finite and positive, got {scheme_duration}")
    if photons < 1:
        raise ValueError(f"photons must be >= 1, got {photons}")
    return e.combined ** photons / scheme_duration


def minimize_sequence_field(
    a_par: float,
    field_grid,
    mw_ceiling: float = 20e9,
    gamma_e: float = 14e9,
    synth_kwargs: dict | None = None,
):
    """Pick the (Bx, Bz) grid point minimizing one building-block gate time
    (one SWAP + one CZ), subject to the microwave drive frequency
    gamma_e * Bz staying under `mw_ceiling`; the points are synthesized with
    the same gamma_e, which sets the secular-approximation check.

    field_grid is an iterable of (bx, bz) pairs in Tesla; every admissible
    point is synthesized afresh with `synth_kwargs`. Returns
    (bx, bz, block_time)."""
    from .synthesis import synthesize

    synth_kwargs = dict(synth_kwargs or {})
    best = None
    attempted = 0
    for bx, bz in field_grid:
        if gamma_e * bz > mw_ceiling:
            continue
        attempted += 1
        p = SpinSystemParams(a_par=a_par, gamma_e=gamma_e, b_field=(bx, 0.0, bz))
        total = 0.0
        ok = True
        for target in ("swap", "cz"):
            rep = synthesize(target, p, **synth_kwargs)
            if not rep.met_threshold:
                ok = False
                break
            total += rep.sequence.total_duration
        if ok and (best is None or total < best[2]):
            best = (bx, bz, total)
    if attempted == 0:
        raise ValueError("no grid point satisfies the microwave ceiling")
    if best is None:
        raise RuntimeError("synthesis failed to meet threshold at every grid point")
    return best
