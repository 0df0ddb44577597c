"""Numerical simulator for generating M x N photonic cluster states from a
single electron-spin-photon interface coupled to a nuclear spin register."""

__version__ = "1.0.0"

from .states import QuantumState, QubitRole, RoleKind, apply_gate
from .hamiltonian import (
    SpinSystemParams, PrecessionAxes, free_hamiltonian, precession_axes,
    resonance_spacing, propagator,
)
from .noise import OUNoise, ou_from_coherence
from .synthesis import (
    DDSequence, SynthesisReport, dd_unit, sequence_unitary, gate_fidelity,
    synthesize, noisy_gate_fidelity, serialize_sequence, deserialize_sequence,
)
from .protocol import (
    ProtocolSpec, ProtocolResult, build_schedule, emit_photon, run,
    ideal_target, verify_appendix_a, ideal_library,
    packaged_gate_library,
)
from .clifford import lc_equivalence
from .emission import EmissionParams, emission_fidelity, colour_encoding_floor
from .budget import (
    EfficiencyBudget, FidelityBudget, extrapolated_fidelity, generation_rate,
    minimize_sequence_field,
)
