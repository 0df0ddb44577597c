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

# the ideal gate of each schedule item, which the fidelities compare against
_IDEAL = {"ry": RY_PROTO, "swap": SWAP, "cz": CZ}

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


def _refuse_past_memory(need: int, what: str):
    """Raise ValueError if `what` needs more bytes than the physical memory."""
    have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > have:
        raise ValueError(f"{what} needs {need} B, more than the {have} B of physical memory")


@dataclass
class ProtocolResult:
    """Outcome of `run`: fidelity, its SE and the trajectory weights (T,).
    `run` never holds a photonic state, and a result keeps no trajectory
    data beyond the weights."""
    weights: np.ndarray
    fidelity: float
    fidelity_se: float
    prep_fidelity: float | None
    block_fidelity: float | None
    wall_clock_model: float
    postselect_probability: float
    trials: int


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
    source = next(
        i for i, w in enumerate(state.wires) if w.kind == RoleKind.ELECTRON
    )
    photons = sum(w.kind == RoleKind.PHOTON for w in state.wires)
    data = _emit(state.data[None], source)[0]
    return QuantumState(data, state.wires + (photon(photons),), validate=False)


# trajectory-columns (instances x trials) per `noisy_sequence_unitary` call.
# Measured on a 2-core Xeon, its time per column and merged block of the
# packaged SWAP falls from ~800 ns at 20 columns to 105-140 ns from 500 to
# 8000; 2048 keeps the (4, 4, cols) working set at 0.5 MB
_COLUMNS = 2048


def _gate_unitary(spec, item, compiler):
    """Shared unitary of a gate item: the library's matrix, the noiseless
    unitary of its DD sequence, or the published y rotation."""
    if item.gate == "ry":
        return RY_PROTO
    g = spec.gate_library[item.gate]
    return sequence_unitary(g, compiler) if isinstance(g, DDSequence) else g


def _instances(seq, compiler, phases, starts, size):
    """Noisy unitaries (T, 4, 4) of the instances of `seq` whose phases start
    at the columns `starts` of `phases`, assembled `size` at a time on their
    (instances, T, k) unit phases; a group is let go before the next is
    built."""
    for i in range(0, len(starts), size):
        group = np.stack([phases[:, s:s + seq.k] for s in starts[i:i + size]])
        yield from noisy_sequence_unitary(seq, compiler, group)


def _gate_unitaries(spec, items, compiler, phases):
    """The unitary of every gate among `items`, in order: a shared matrix, or
    under (T, units) phases a (T, 4, 4) stack per DD sequence instance.

    A shared gate is built once. The instances of each DD sequence are
    assembled max(1, _COLUMNS // T) consecutive ones per call, when the
    schedule reaches the first of them; the phase columns are those that
    `_sample_phases` laid out for the same items."""
    gates = [item for item in items if item.kind == "gate"]
    noisy, shared = {}, {}
    if phases is not None:
        starts, cursor = {}, 0
        for item in gates:
            g = spec.gate_library.get(item.gate)
            if isinstance(g, DDSequence):
                starts.setdefault(item.gate, []).append(cursor)
                cursor += g.k
        size = max(1, _COLUMNS // len(phases))
        noisy = {
            name: _instances(spec.gate_library[name], compiler, phases, s, size)
            for name, s in starts.items()
        }
    for item in gates:
        if item.gate in noisy:
            yield next(noisy[item.gate])
        else:
            if item.gate not in shared:
                shared[item.gate] = _gate_unitary(spec, item, compiler)
            yield shared[item.gate]


def _execute(spec: ProtocolSpec, items) -> np.ndarray:
    """Run the gate and emit items of a schedule without noise on the initial
    spin state, each gate the library's matrix; returns the amplitudes
    (2^wires,)."""
    amps, n = _initial_spins(spec)[None], spec.m
    for item in items:
        if item.kind == "gate":
            amps = _apply_matrix_vec(amps, _gate_unitary(spec, item, None), item.wires, n)
        elif item.kind == "emit":
            amps = _emit(amps, 0)
            n += 1
    return amps[0]


def _sample_phases(spec: ProtocolSpec, items, rng):
    """Toggling-frame bath phase of every DD unit of the sequences among
    `items`, shaped (trials, units); None without noise."""
    if spec.noise is None:
        return None
    from .noise import unit_phases

    taus = [
        t for item in items
        if item.kind == "gate" and isinstance(spec.gate_library.get(item.gate), DDSequence)
        for t in spec.gate_library[item.gate].tau_f
    ]
    return unit_phases(spec.noise, np.array(taus), spec.trials, rng)


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
    if the all-|1> branch has probability zero. `run` reads only which
    branches are reachable (`_complete`)."""
    tab = Tableau(spec.m, ones=spec.init_one).run(build_schedule(spec))
    return {
        bits: None if q is None else list(_PAULIS[2 * q[0] + q[1]])
        for bits, q in completion_corrections(tab, spec.m)[0].items()
    }


def ideal_library() -> dict:
    return {name: _IDEAL[name].copy() for name in ("swap", "cz")}


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
    the reference state for every fidelity in this module. Raises
    ValueError before allocating if four copies of the final amplitudes
    (three at a gate on wires that do not lead, and the schedule) are more
    bytes than the physical memory."""
    _refuse_past_memory(4 * 16 * 2 ** (m + m * n), "the ideal target")
    spec = ProtocolSpec(
        m=m, n=n, gate_library=ideal_library(), style=style, init_one=init_one,
    )
    vec = _execute(spec, build_schedule(spec)).reshape(2 ** m, -1)[-1]
    norm = np.linalg.norm(vec)
    if norm ** 2 < 1e-12:
        raise ValueError("all-|1> completion branch has zero probability")
    return QuantumState(vec / norm, _photon_wires(m * n))


def run(spec: ProtocolSpec, components: bool = False) -> ProtocolResult:
    """Execute the protocol on one trajectory without noise, on `trials`
    noisy trajectories otherwise, and complete each. Fidelity is against the
    ideal-gate target: F = sqrt(sum o_t / sum w_t) over the per-trajectory
    overlaps o_t, the Born-weighted mean of |<target|v>|^2 over the
    corrected completion branches v (the all-|1> branch's alone under
    postselection), and weights w_t (1, or the all-|1> probability under
    postselection); its standard error is the ratio estimator's, and the
    seed sets the bath phases only.
    The overlaps come from `_complete`, which holds no photonic state."""
    sched = build_schedule(spec)
    compiler = _compiler_for(spec)
    if spec.noise is not None and compiler is None:
        raise ValueError("noisy runs require DD-sequence gates and spin parameters")
    phases = _sample_phases(spec, sched, np.random.default_rng(spec.seed))
    overlaps, weights = _complete(spec, sched, compiler, phases)
    fid2 = overlaps.sum() / max(weights.sum(), 1e-300)
    fid = float(np.sqrt(max(fid2, 0.0)))
    t = len(weights)
    if spec.noise is None:
        se = 0.0
    else:
        resid = overlaps - fid2 * weights
        se = float(np.sqrt(np.sum(resid ** 2) / (t - 1)) / np.sqrt(t) / np.mean(weights))
        se = se / (2 * fid) if fid > 0 else se
    ps_prob = float(np.mean(weights)) if spec.completion == "postselect" else 1.0
    prep_f, block_f = component_fidelities(spec, compiler) if components else (None, None)
    return ProtocolResult(
        weights, fid, se, prep_f, block_f, wall_clock_model(spec), ps_prob, t,
    )


def _initial_spins(spec) -> np.ndarray:
    """The initial spin register (2^M,): all |0>, or all |1> under init_one."""
    psi = np.zeros(2 ** spec.m, dtype=complex)
    psi[-1 if spec.init_one else 0] = 1.0
    return psi


# keeps the entries of a spin density or a boundary whose electron bits agree
_SAME_BIT = np.eye(2)[:, None, :, None]


def _full_matrix(u, wires, m: int) -> np.ndarray:
    """The 2^m x 2^m matrix of `u` on `wires`, from the identity's rows."""
    return _apply_matrix_vec(np.eye(2 ** m, dtype=complex), u, wires, m).T


def _frame(b, frame):
    """Boundary slots `b` (T, 2^M, slots, 2^M) times the ideal gates' `frame`
    from the right, as one GEMM."""
    return (b.reshape(-1, len(frame)) @ frame).reshape(b.shape)


# peak bytes of `_contract`, fitted under tracemalloc: six boundary tensors
# (3.1 to 5.9 traced from 2048 trials on), and room for the groups of
# noisy unitaries, 256 B per trajectory-column and up to `_COLUMNS` columns
# per DD sequence, which outweigh the boundary on fewer trials
_BOUNDARY_COPIES, _GROUP_BYTES = 6, 8 * 256 * _COLUMNS


def _contract(spec, sched, compiler, phases, psi, density):
    """Boundary tensor of every trajectory after `sched` from the spin
    register `psi`, with no photonic state: (T, 2^M noisy spin, 1 + density,
    2^M ideal spin), one trajectory per row of `phases` (one without them);
    returned with the ideal frame W^dagger (2^M, 2^M) of the gates after the
    last emission.

    Sequentially emitted photons form a matrix-product state of bond
    dimension 2^M (Schoen et al., PRL 95, 110503 (2005)), so each trajectory
    carries the boundary tensor B[a, b] = sum_x psi(a, x) psi_ideal(b, x)^*,
    the photon contraction of the noisy and ideal-gate registers; it starts
    as psi psi^dagger. A noisy gate U acts as U B, the ideal gates V (`_IDEAL`)
    as B W^dagger: their frame W^dagger, the product of the V^dagger since
    the last emission, is built in the same walk and applied at each
    emission and at the end. An emission copies the electron bit into
    a new photon on both sides, so it keeps the entries whose electron bits
    agree (`_SAME_BIT`). Slot 0 holds B, whose trace is <ideal|noisy> over
    the whole register; under `density` (a postselected run, for its
    weights), slot 1 holds the noisy spin density rho (T, 2^M, 2^M), carried
    the same way. That is O(T 4^M) memory for any number of columns.
    Raises ValueError before allocating if its peak, `_BOUNDARY_COPIES`
    boundaries and `_GROUP_BYTES`, is more bytes than the physical memory.

    The shared noisy gates (ry, or every gate of a noiseless run) since the
    last per-trajectory gate or emission are held as one matrix, folded
    into the next per-trajectory gate on the whole register or applied on
    their own."""
    m, d = spec.m, 2 ** spec.m
    rows = 1 if phases is None else len(phases)
    slots = 1 + density
    need = _BOUNDARY_COPIES * 16 * rows * d * slots * d + _GROUP_BYTES
    _refuse_past_memory(need, "the boundary tensor")
    x = np.broadcast_to(np.outer(psi, psi.conj())[:, None], (rows, d, slots, d)).copy()
    held, full, ideal, whole = None, {}, {}, tuple(range(m))
    frame = np.eye(d, dtype=complex)

    def apply(u, wires):
        nonlocal x
        if density:
            # rho stays Hermitian, so U (U rho)^dagger is U rho U^dagger: U
            # acts on rho alone, then on B and rho together
            half = _apply_matrix_vec(x[:, :, -1].reshape(rows, -1), u, wires, m)
            x[:, :, -1] = half.reshape(rows, d, d).conj().transpose(0, 2, 1)
        x = _apply_matrix_vec(x.reshape(rows, -1), u, wires, m).reshape(x.shape)

    def release():
        nonlocal held
        if held is not None:
            apply(held, whole)
            held = None

    unitaries = _gate_unitaries(spec, sched, compiler, phases)
    for item in sched:
        if item.kind == "gate":
            key = (item.gate, item.wires)
            if key not in ideal:
                ideal[key] = _full_matrix(_IDEAL[item.gate], item.wires, m)
            frame = frame @ ideal[key].conj().T
            u = next(unitaries)
            if np.ndim(u) == 2:
                if key not in full:
                    full[key] = _full_matrix(u, item.wires, m)
                held = full[key] if held is None else full[key] @ held
            elif held is not None and item.wires == whole:
                apply((u.reshape(-1, d) @ held).reshape(rows, d, d), whole)
                held = None
            else:
                release()
                apply(u, item.wires)
        elif item.kind == "emit":
            release()
            x[:, :, :1] = _frame(x[:, :, :1], frame)
            frame = np.eye(d, dtype=complex)
            halves = (rows, 2, d // 2, slots, 2, d // 2)
            x = (x.reshape(halves) * _SAME_BIT[:, :, None]).reshape(x.shape)
    release()
    x[:, :, :1] = _frame(x[:, :, :1], frame)
    return x, frame


def _complete(spec, sched, compiler, phases):
    """(overlaps o_t, weights w_t), each (T,), of every trajectory's
    completed photonic state against the target, read from `_contract`'s
    boundary B. The ideal register is a stabiliser state, so its outcomes o
    are uniform over those it reaches (Aaronson & Gottesman, PRA 70, 052328
    (2004)), and on every schedule it reaches all 2^M: p_ideal(o) = 2^-M.
    A corrected run, with or without photons, sums every spin outcome o by
    its Born weight, with weight 1: outcome o's Pauli correction is unitary
    and maps ideal branch o onto sqrt(p_ideal(o)) times the target, up to
    phase, so o_t = 2^M sum_o |B[o, o]|^2 over the outcomes that
    `find_corrections` reaches, none applied. A postselected run reads the
    all-|1> branch, 2^M |B[1...1, 1...1]|^2, with the weight p_t(1...1)
    that the carried spin density gives."""
    density = spec.completion == "postselect"
    x, _ = _contract(spec, sched, compiler, phases, _initial_spins(spec), density)
    if density:
        return 2 ** spec.m * np.abs(x[:, -1, 0, -1]) ** 2, x[:, -1, -1, -1].real
    reachable = [np.ravel_multi_index(bits, (2,) * spec.m)
                 for bits, locals_ in find_corrections(spec).items() if locals_ is not None]
    branches = np.diagonal(x[:, :, 0], axis1=1, axis2=2)[:, reachable]  # B[o, o]
    return 2 ** spec.m * np.sum(np.abs(branches) ** 2, axis=1), np.ones(len(x))


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


def component_fidelities(spec: ProtocolSpec, compiler=None):
    """(preparation fidelity, single-building-block fidelity), each the
    square-root state fidelity sqrt(mean |<ideal|noisy>|^2) of the noisy
    output against the ideal one, read as |tr B|^2 from `_contract`.

    Preparation runs the initialisation block alone; the building block runs
    one column starting from the ideally prepared spin register, the output
    of the initialisation block with ideal gates and no noise, which the
    preparation's `_contract` returns as its end frame. Both use
    `compiler`, the one of `spec`'s run, or one built here for both."""
    compiler = _compiler_for(spec) if compiler is None else compiler
    one_col = replace(spec, n=min(spec.n, 1))
    fids, psi = [], _initial_spins(spec)
    for items, seed in zip(_schedule_split(one_col), (spec.seed + 1, spec.seed + 2)):
        phases = _sample_phases(one_col, items, np.random.default_rng(seed))
        x, end = _contract(one_col, items, compiler, phases, psi, False)
        fids.append(float(np.sqrt(np.mean(np.abs(np.trace(x[:, :, 0], axis1=1, axis2=2)) ** 2))))
        # the preparation emits no photon, so its end frame is W^dagger for
        # the whole block, and the prepared register is W psi
        psi = end.conj().T @ psi
    return tuple(fids)


def _schedule_split(spec):
    """(preparation, columns): the schedule without its measurements, split
    at the first CZ."""
    sched = [s for s in build_schedule(spec) if s.kind != "measure"]
    n_prep = next((i for i, s in enumerate(sched) if s.gate == "cz"), len(sched))
    return sched[:n_prep], sched[n_prep:]


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
        amps = _execute(spec, items[:i])
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
