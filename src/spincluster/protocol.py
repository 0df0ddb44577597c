"""Cluster-state generation circuit: schedule construction, execution with
optional dephasing noise, completion measurements, and the Appendix-A
walkthrough with its local-Clifford equivalence certificate.

Rails map to register wires as wire 0 = electron proxy, wires 1..M-1 =
nuclear register; photons append in emission order. Two schedule styles are
provided: "pedagogical" follows the published step listing literally (SWAP
cycling for every rotation and emission), "lean" is an M=2 variant with one
SWAP and one CZ per column, trading layout fidelity of the intermediate
steps for a shorter noisy sequence. Both produce the same cluster state up
to local Cliffords and an order of the rails; tests pin that equivalence.
"""
from __future__ import annotations

import importlib.resources
import os
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .clifford import Tableau, completion_corrections, lc_equivalence
from .states import (
    CZ, SWAP, H, I2, X, Y, Z, QuantumState, RoleKind,
    _apply_matrix_vec, apply_gate, electron, nuclear, photon, ry,
)
from .hamiltonian import SpinSystemParams
from .synthesis import (
    DDSequence, UnitCompiler, deserialize_sequence, noisy_sequence_unitary,
    sequence_unitary,
)

# y rotation taking |1> to (|0> + |1>)/sqrt(2), the sign convention of the
# published state tracking
RY_PROTO = ry(-np.pi / 2)

PHOTON_LABELS = {0: "L", 1: "R"}  # |1> maps to right-circular


@dataclass(frozen=True)
class ScheduleItem:
    kind: str  # "gate" | "emit" | "measure"
    gate: str | None = None  # "ry" | "swap" | "cz"
    wires: tuple = ()

    def label(self) -> str:
        if self.kind == "emit":
            return "E"
        if self.kind == "measure":
            return f"M{self.wires[0] + 1}"
        if self.gate == "ry":
            return "RY"
        return f"{self.gate.upper()}{self.wires[0] + 1}{self.wires[1] + 1}"


@dataclass
class ProtocolSpec:
    m: int
    n: int
    gate_library: dict
    noise: object = None
    params: SpinSystemParams | None = None
    style: str = "pedagogical"
    init_one: bool = False
    completion: str = "corrected"  # or "postselect"
    trials: int = 2000
    seed: int = 0

    def __post_init__(self):
        if self.m < 2:
            raise ValueError("need at least two rails (proxy + 1 nucleus)")
        if self.n < 0:
            raise ValueError("column count must be >= 0")
        if self.style not in ("pedagogical", "lean"):
            raise ValueError(f"unknown schedule style {self.style!r}")
        if self.style == "lean" and self.m != 2:
            raise ValueError("lean schedule is defined for M=2 only")
        if self.completion not in ("corrected", "postselect"):
            raise ValueError(f"unknown completion mode {self.completion!r}")
        if self.noise is not None and self.trials < 2:
            raise ValueError("a noisy run needs at least 2 trials for its standard error")
        for g in ("swap", "cz"):
            if self.n > 0 and g not in self.gate_library:
                raise KeyError(f"gate library is missing {g!r}")


@dataclass
class ProtocolResult:
    """Outcome of `run`: the completed vectors (T, 2^(MN)) and weights (T,)."""
    vectors: np.ndarray
    weights: np.ndarray
    mixed: bool
    fidelity: float
    fidelity_se: float
    prep_fidelity: float | None
    block_fidelity: float | None
    wall_clock_model: float
    postselect_probability: float
    trials: int

    @cached_property
    def photonic_state(self) -> QuantumState:
        """The normalised vector of a noiseless run; the mixture V^T V*/sum w
        of a noisy one, built when first read and refused (ValueError) before
        allocation if it needs more bytes than the machine's physical memory."""
        vecs, wires = self.vectors, _photon_wires(self.vectors.shape[1].bit_length() - 1)
        if not self.mixed:
            return QuantumState(vecs[0] / np.sqrt(max(self.weights[0], 1e-300)), wires)
        need = vecs.itemsize * vecs.shape[1] ** 2
        have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
        if need > have:
            raise ValueError(f"rho needs {need} B, more than the {have} B of physical memory")
        rho = vecs.T @ vecs.conj()
        rho /= max(self.weights.sum(), 1e-300)
        return QuantumState(rho, wires)


def build_schedule(spec: ProtocolSpec) -> list:
    """Ordered gates, emissions, and completion measurements."""
    m = spec.m
    sched = []

    def gate(name, *wires):
        sched.append(ScheduleItem("gate", name, wires))

    if spec.style == "lean":
        gate("ry", 0)
        gate("swap", 0, 1)
        gate("ry", 0)
        for _ in range(spec.n):
            gate("cz", 0, 1)
            sched.append(ScheduleItem("emit"))
            gate("ry", 0)
            gate("swap", 0, 1)
            sched.append(ScheduleItem("emit"))
            gate("ry", 0)
    else:
        # preparation: rotate every rail qubit via SWAP cycling
        gate("ry", 0)
        for j in range(1, m):
            gate("swap", 0, j)
            gate("ry", 0)
            gate("swap", 0, j)
        for _ in range(spec.n):
            # entangle rails
            for j in range(1, m):
                gate("cz", 0, j)
            # emission: cycle each qubit through the proxy
            gate("swap", 0, 1)
            sched.append(ScheduleItem("emit"))
            gate("swap", 0, 1)
            sched.append(ScheduleItem("emit"))
            for j in range(2, m):
                gate("swap", 0, j)
                sched.append(ScheduleItem("emit"))
            for j in range(m - 1, 0, -1):
                gate("swap", 0, j)
            # rotate every rail qubit for the next column
            gate("ry", 0)
            gate("swap", 0, 1)
            gate("ry", 0)
            for j in range(2, m):
                gate("swap", 0, j)
                gate("ry", 0)
                gate("swap", 0, j)
    for w in range(m):
        sched.append(ScheduleItem("measure", wires=(w,)))
    return sched


def schedule_labels(sched) -> list:
    return [item.label() for item in sched]


def wall_clock_model(spec: ProtocolSpec) -> float:
    """Sum of scheduled gate durations; ideal unitaries contribute zero."""
    total = 0.0
    for item in build_schedule(spec):
        if item.kind == "gate" and item.gate in spec.gate_library:
            g = spec.gate_library[item.gate]
            if isinstance(g, DDSequence):
                total += g.total_duration
    return total


def _emit(amps: np.ndarray, source: int) -> np.ndarray:
    """Append a photon in |0> to every row of a (T, 2^n) batch and apply CNOT
    from wire `source` onto it: the photon copies the source's z value."""
    a = amps.reshape(len(amps), 2 ** source, 2, -1)
    out = np.zeros(a.shape + (2,), dtype=complex)
    out[:, :, 0, :, 0] = a[:, :, 0]
    out[:, :, 1, :, 1] = a[:, :, 1]
    return out.reshape(len(amps), -1)


def emit_photon(state: QuantumState) -> QuantumState:
    """Append a photon in |0> and apply CNOT from the electron; the one-state
    case of the batched emission the executor runs."""
    if not state.pure:
        raise ValueError("photons can only be emitted from pure states")
    source = next(
        i for i, w in enumerate(state.wires) if w.kind == RoleKind.ELECTRON
    )
    photons = sum(w.kind == RoleKind.PHOTON for w in state.wires)
    data = _emit(state.data[None], source)[0]
    return QuantumState(data, state.wires + (photon(photons),), validate=False)


def _gate_unitary(spec, item, compiler, phases, cursor):
    """Unitary for a schedule item, a (T, 4, 4) stack for a DD sequence under
    (T, segments) phases; advances the phase cursor past a noisy sequence."""
    if item.gate == "ry":
        return spec.gate_library.get("ry", RY_PROTO), cursor
    g = spec.gate_library[item.gate]
    if not isinstance(g, DDSequence):
        return g, cursor
    if phases is None:
        return sequence_unitary(g, compiler), cursor
    n_seg = 3 * g.k
    u = noisy_sequence_unitary(g, compiler, phases[:, cursor:cursor + n_seg])
    return u, cursor + n_seg


def _execute(spec: ProtocolSpec, items, compiler=None, phases=None, start=None) -> np.ndarray:
    """Run the gate and emit items of a schedule on a batch of pure register
    states, one row per row of `phases` (a single row without them), from
    the initial spin state, or from the (1, 2^wires) amplitudes `start`.
    Returns the amplitudes, shaped (T, 2^wires)."""
    rows = 1 if phases is None else len(phases)
    if start is None:
        start = np.zeros((1, 2 ** spec.m), dtype=complex)
        start[0, -1 if spec.init_one else 0] = 1.0
    amps = np.broadcast_to(start, (rows, start.shape[1]))
    n, cursor = start.shape[1].bit_length() - 1, 0
    for item in items:
        if item.kind == "gate":
            u, cursor = _gate_unitary(spec, item, compiler, phases, cursor)
            amps = _apply_matrix_vec(amps, u, item.wires, n)
        elif item.kind == "emit":
            amps = _emit(amps, 0)
            n += 1
    return amps


def _sample_phases(spec: ProtocolSpec, items, rng):
    """Bath phase of every free segment of the DD sequences among `items`,
    shaped (trials, segments); None without noise."""
    if spec.noise is None:
        return None
    from .noise import segment_phases

    durations = [
        d for item in items
        if item.kind == "gate" and isinstance(spec.gate_library.get(item.gate), DDSequence)
        for d in spec.gate_library[item.gate].segment_durations()
    ]
    return segment_phases(spec.noise, np.array(durations), spec.trials, rng)


def _compiler_for(spec: ProtocolSpec):
    needs = any(isinstance(g, DDSequence) for g in spec.gate_library.values())
    if not needs:
        return None
    if spec.params is None:
        raise ValueError("spin parameters required when the library holds DD sequences")
    return UnitCompiler(spec.params)


def _photon_wires(n: int) -> tuple:
    return tuple(photon(i) for i in range(n))


# the single-qubit Pauli with x part x and z part z, at index 2 x + z
_PAULIS = np.stack([I2, Z, X, Y])


def find_corrections(spec: ProtocolSpec):
    """Per-spin-outcome Pauli photon corrections mapping each completion
    branch of the noiseless ideal-gate circuit onto the all-|1> branch, up
    to phase.

    Every gate of the ideal schedule is Clifford, so a stabiliser tableau of
    the register (Aaronson & Gottesman, PRA 70, 052328 (2004)) gives each
    correction exactly, with no dense state: branch o is reachable iff
    o xor 1...1 is a GF(2) combination of the stabilisers' spin x parts, and
    the photon part of that stabiliser is the correction. Of the corrections
    that differ by a stabiliser of the target, the first combination found
    by forward elimination over the generators in schedule order is taken,
    so the choice is integer arithmetic and does not depend on rounding.

    Returns {outcome bits: list of 2x2 Paulis, or None for a branch of
    probability zero}; the all-|1> branch gets identities. Raises ValueError
    if the all-|1> branch has probability zero."""
    tab = Tableau(spec.m, ones=spec.init_one).run(build_schedule(spec))
    return {
        bits: None if q is None else list(_PAULIS[2 * q[0] + q[1]])
        for bits, q in completion_corrections(tab, spec.m)[0].items()
    }


def ideal_library() -> dict:
    return {"swap": SWAP.copy(), "cz": CZ.copy()}


def packaged_gate_library():
    """DD sequences shipped with the package, with their spin parameters.

    Returns (library dict, SpinSystemParams, fidelity dict)."""
    lib, fids, params = {}, {}, None
    root = importlib.resources.files("spincluster").joinpath("data")
    for name in ("swap", "cz"):
        report, p = deserialize_sequence(
            root.joinpath(f"{name}.ddseq").read_text()
        )
        lib[name] = report.sequence
        fids[name] = report.unitary_fidelity
        params = p
    return lib, params, fids


def ideal_target(
    m: int, n: int, style: str = "pedagogical", init_one: bool = False,
) -> QuantumState:
    """Noiseless ideal-gate circuit output after the all-|1> completion;
    the reference state for every fidelity in this module."""
    spec = ProtocolSpec(
        m=m, n=n, gate_library=ideal_library(), style=style, init_one=init_one,
    )
    vec = _execute(spec, build_schedule(spec))[0].reshape(2 ** m, -1)[-1]
    norm = np.linalg.norm(vec)
    if norm ** 2 < 1e-12:
        raise ValueError("all-|1> completion branch has zero probability")
    return QuantumState(vec / norm, _photon_wires(m * n))


def run(spec: ProtocolSpec, components: bool = False) -> ProtocolResult:
    """Execute the protocol on one trajectory without noise, on `trials`
    noisy trajectories otherwise, and complete each; with noise the photonic
    state is their mixture, built when read. Fidelity is against the ideal-gate
    target: F = sqrt(sum o_t / sum w_t) over the per-trajectory overlaps
    o_t = |<target|v_t>|^2 and weights w_t (1, or the all-|1> probability
    under postselection); its standard error is the ratio estimator's."""
    sched = build_schedule(spec)
    compiler = _compiler_for(spec)
    if spec.noise is not None and compiler is None:
        raise ValueError("noisy runs require DD-sequence gates and spin parameters")
    target = ideal_target(spec.m, spec.n, spec.style, spec.init_one)
    corrections = (
        find_corrections(spec) if spec.completion == "corrected" and spec.n > 0
        else None
    )
    rng = np.random.default_rng(spec.seed)
    phases = _sample_phases(spec, sched, rng)
    vecs, weights = _complete(
        _execute(spec, sched, compiler, phases), spec, corrections, rng
    )
    overlaps = np.abs(vecs @ target.data.conj()) ** 2
    fid2 = overlaps.sum() / max(weights.sum(), 1e-300)
    fid = float(np.sqrt(max(fid2, 0.0)))
    if spec.noise is None:
        se = 0.0
    else:
        t = len(vecs)
        resid = overlaps - fid2 * weights
        se = float(np.sqrt(np.sum(resid ** 2) / (t - 1)) / np.sqrt(t) / np.mean(weights))
        se = se / (2 * fid) if fid > 0 else se
    ps_prob = float(np.mean(weights)) if spec.completion == "postselect" else 1.0
    prep_f = block_f = None
    if components:
        prep_f, block_f = component_fidelities(spec)
    return ProtocolResult(
        vecs, weights, spec.noise is not None, fid, se, prep_f, block_f,
        wall_clock_model(spec), ps_prob, len(vecs),
    )


def _complete(amps, spec, corrections, rng):
    """Completion measurement of the spin wires on each row of a (T, 2^n)
    batch; returns (photonic vectors (T, 2^(n-m)), weights (T,)).

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
        vecs = branches[:, -1].copy()  # a view would keep the whole batch alive
        w = np.sum(np.abs(vecs) ** 2, axis=1)
        if spec.completion == "postselect":
            return vecs, w
        return vecs / np.sqrt(np.maximum(w, 1e-300))[:, None], np.ones(t)
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
    # bincount, not np.unique: that loads numpy.ma (1.2 MB) on first use
    for o in np.flatnonzero(np.bincount(outcome)):
        locals_ = corrections.get(outcome_bits[o])
        if locals_ is None:
            raise RuntimeError(
                f"sampled a branch with no cached correction: {outcome_bits[o]}"
            )
        sel = outcome == o
        flip, phase = _pauli_action(locals_)
        vecs[sel] = phase * vecs[np.ix_(sel, index ^ flip)]
    return vecs, np.ones(t)


def _pauli_action(locals_):
    """A product of one-qubit Paulis, each up to a factor +-1 or +-i, on the
    photon wires as (flip, phase) with (P v)[r] = phase[r] v[r ^ flip]; wire 0
    is the most significant bit of r. Every entry is 0, +-1 or +-i, so the
    phase and its product with v are exact."""
    flip, phase = 0, np.ones(1, dtype=complex)
    for u in locals_:
        x = int(u[0, 0] == 0)  # 1 for an off-diagonal X or Y
        flip = 2 * flip + x
        phase = np.multiply.outer(phase, u[[0, 1], [x, 1 - x]]).ravel()
    return flip, phase


def component_fidelities(spec: ProtocolSpec):
    """(preparation fidelity, single-building-block fidelity), each the
    square-root state fidelity of the noisy output against the ideal one.

    Preparation runs the initialisation block alone; the building block runs
    one column starting from the ideally prepared spin register, the output
    of the initialisation block with ideal gates and no noise."""
    prep = _segment_fidelity(spec, prep_only=True)
    block = _segment_fidelity(spec, prep_only=False)
    return prep, block


def _schedule_split(spec):
    sched = [s for s in build_schedule(spec) if s.kind != "measure"]
    n_prep = 0
    for item in sched:
        if item.kind == "gate" and item.gate == "cz":
            break
        n_prep += 1
    return sched[:n_prep], sched[n_prep:]


def _segment_fidelity(spec, prep_only: bool) -> float:
    one_col = replace(
        spec, n=min(spec.n, 1), seed=spec.seed + (1 if prep_only else 2)
    )
    prep_sched, block_sched = _schedule_split(one_col)
    ideal = replace(one_col, gate_library=ideal_library())
    if prep_only:
        items, start = prep_sched, None
    else:
        items, start = block_sched, _execute(ideal, prep_sched)
    ref = _execute(ideal, items, start=start)[0]
    out = _execute(
        one_col, items, _compiler_for(one_col),
        _sample_phases(one_col, items, np.random.default_rng(one_col.seed)),
        start=start,
    )
    return float(np.sqrt(np.mean(np.abs(out @ ref.conj()) ** 2)))


# -------------------------------------------------- local-Clifford analysis

# the one-qubit Clifford whose conjugation maps the Pauli (x, z) to Q (x, z),
# up to sign, for each invertible Q = (a b; c d), keyed by (a, b, c, d)
_S = np.diag([1, 1j])
_LOCAL_CLIFFORDS = {
    (1, 0, 0, 1): I2, (0, 1, 1, 0): H, (1, 0, 1, 1): _S,
    (1, 1, 0, 1): H @ _S @ H, (0, 1, 1, 1): _S @ H, (1, 1, 1, 0): H @ _S,
}


def _lc_overlap(psi: np.ndarray, graph: Tableau, target: np.ndarray, maps) -> float:
    """|<target|P (x)_i C_i|psi>|, C_i the Clifford of maps[i] and P the
    Pauli that puts every generator of `graph`, the tableau of `target`,
    back to +1: only Z_k anticommutes with generator k alone, so P is the
    product of Z_k over the generators whose sign is wrong."""
    phi = psi[None]
    for i, q in enumerate(maps):
        phi = _apply_matrix_vec(phi, _LOCAL_CLIFFORDS[tuple(q.ravel())], [i], len(maps))
    phi, index, wrong = phi[0], np.arange(len(psi)), []
    for x, z, r in zip(graph.x, graph.z, graph.r):
        flip, phase = _pauli_action(_PAULIS[2 * x + z])
        wrong.append(r ^ (np.vdot(phi, phase * phi[index ^ flip]).real < 0))
    _, phase = _pauli_action(_PAULIS[np.array(wrong, dtype=int)])
    return float(abs(np.vdot(target, phase * phi)))


def target_tableau(
    m: int, n: int, style: str = "pedagogical", init_one: bool = False,
) -> Tableau:
    """Stabiliser tableau of `ideal_target`, with no dense state."""
    spec = ProtocolSpec(m=m, n=n, gate_library=ideal_library(), style=style)
    return completion_corrections(Tableau(m, ones=init_one).run(build_schedule(spec)), m)[1]


def linear_graph_state(n: int) -> QuantumState:
    """|+>^n with CZ on every neighboring pair."""
    vec = np.full(2 ** n, 2 ** (-n / 2), dtype=complex)
    state = QuantumState(vec, _photon_wires(n))
    for i in range(n - 1):
        state = apply_gate(state, CZ, [i, i + 1])
    return state


@dataclass
class AppendixReport:
    steps: list  # (label, QuantumState)
    all_ones_probability: float
    overlap: float
    equivalent: bool

    def amplitude_table(self) -> str:
        lines = []
        for label, state in self.steps:
            lines.append(f"== {label} ==")
            amp = state.data
            n = state.n_qubits
            for idx in np.argsort(-np.abs(amp)):
                a = amp[idx]
                if abs(a) < 1e-9:
                    continue
                bits = format(idx, f"0{n}b")
                ket = "".join(
                    PHOTON_LABELS[int(b)] if w.kind == RoleKind.PHOTON else b
                    for b, w in zip(bits, state.wires)
                )
                lines.append(f"  |{ket}>  {a.real:+.4f}{a.imag:+.4f}j")
        return "\n".join(lines)


def verify_appendix_a() -> AppendixReport:
    """Step-by-step M=3, N=1 run with ideal gates from all-|1>, checking the
    completed photonic state is local-Clifford equivalent to the linear
    3-qubit graph state; `overlap` is theirs after the local Cliffords and
    Pauli the check constructs (0 if there are none). Step i is the executor
    run on the first i schedule items."""
    spec = ProtocolSpec(
        m=3, n=1, gate_library=ideal_library(), style="pedagogical",
        init_one=True,
    )
    items = [s for s in build_schedule(spec) if s.kind != "measure"]
    spins = (electron(), nuclear(0), nuclear(1))
    steps = []
    for i, label in enumerate(["init"] + [s.label() for s in items]):
        amps = _execute(spec, items[:i])[0]
        wires = spins + _photon_wires(amps.size.bit_length() - 1 - spec.m)
        steps.append((label, QuantumState(amps, wires, validate=False)))
    vec = steps[-1][1].data.reshape(2 ** spec.m, -1)[-1]
    p = float(np.vdot(vec, vec).real)
    photonic = QuantumState(vec / np.sqrt(p), _photon_wires(3))
    steps.append(("completion", photonic))
    graph = Tableau.graph(np.eye(3, k=1) + np.eye(3, k=-1))
    maps = lc_equivalence(target_tableau(3, 1, init_one=True), graph)
    overlap = 0.0 if maps is None else _lc_overlap(
        photonic.data, graph, linear_graph_state(3).data, maps
    )
    return AppendixReport(steps, p, overlap, maps is not None)
