"""Compilation of two-qubit electron-nuclear gates from dynamical-decoupling
units (tau_f - pi - 2 tau_f - pi - tau_f) with interleaved electron gates.

The spacings are optimized by gradient-based local search (the trace-overlap
fidelity is analytic in the spacings) from many random starts, alternated
with coordinate-wise sweeps over the discrete electron-gate insertions.
"""
from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .states import CZ, I2, SWAP, rx, ry, rz
from .hamiltonian import SpinSystemParams, free_hamiltonian, resonance_spacing

SERIAL_FORMAT_VERSION = 1

ELECTRON_GATES = {
    "I": I2,
    "Rx90": rx(np.pi / 2),
    "Ry90": ry(np.pi / 2),
    "Rz90": rz(np.pi / 2),
    "Rx180": rx(np.pi),
}
_GATE_NAMES = list(ELECTRON_GATES)
_GATE_4X4 = {name: np.kron(g, I2) for name, g in ELECTRON_GATES.items()}
_ALL_GATES = np.array(list(_GATE_4X4.values()))  # in _GATE_NAMES order

PI_PULSE = np.kron(rx(np.pi), I2)

TARGETS = {
    "identity": np.eye(4, dtype=complex),
    "swap": SWAP,
    "cz": CZ,
    "rx90_nuclear": np.kron(I2, rx(np.pi / 2)),
    "rz90_nuclear": np.kron(I2, rz(np.pi / 2)),
}


@dataclass(frozen=True)
class DDSequence:
    """k DD units with spacings tau_f and electron gates between them.

    electron_gates has length k + 1: gate i is applied before unit i, the
    last one after the final unit. Pi pulses are ideal and instantaneous, so
    the wall-clock duration is the free-precession time 4 * sum(tau_f).
    """
    tau_f: tuple
    electron_gates: tuple

    def __post_init__(self):
        if len(self.electron_gates) != len(self.tau_f) + 1:
            raise ValueError("need exactly k+1 electron gate labels")
        if not all(np.isfinite(t) and t > 0 for t in self.tau_f):
            raise ValueError(f"all spacings must be finite and positive, got {self.tau_f}")
        for g in self.electron_gates:
            if g not in ELECTRON_GATES:
                raise ValueError(f"unknown electron gate {g!r}")

    @property
    def k(self) -> int:
        return len(self.tau_f)

    @property
    def total_duration(self) -> float:
        return 4.0 * float(np.sum(self.tau_f))

    def segment_durations(self) -> np.ndarray:
        """Free-precession segments in order: (tau, 2tau, tau) per unit."""
        out = []
        for t in self.tau_f:
            out.extend((t, 2 * t, t))
        return np.array(out)


@dataclass(frozen=True)
class SynthesisReport:
    sequence: DDSequence
    unitary_fidelity: float
    iterations: int
    target_name: str
    met_threshold: bool


class UnitCompiler:
    """Caches the eigendecomposition H = V diag(h) V^dag of the free
    Hamiltonian and the pi pulse in that eigenbasis, Pi' = V^dag Pi V, for
    fast propagators of the DD segments."""

    def __init__(self, p: SpinSystemParams):
        self.params = p
        self.h = free_hamiltonian(p)
        self._vals, self._vecs = np.linalg.eigh(self.h)
        self._pi = self._vecs.conj().T @ PI_PULSE @ self._vecs

    def free_propagator(self, t: float) -> np.ndarray:
        return (self._vecs * np.exp(-2j * np.pi * self._vals * t)) @ self._vecs.conj().T

    def units(self, taus, derivative: bool = False):
        """DD units F(tau) Pi F(2 tau) Pi F(tau) for all spacings at once, a
        (k, 4, 4) stack, and with `derivative` also their d/dtau stack.

        In the eigenbasis F(t) is the diagonal D(t), so a unit is
        V D1 Pi' D2 Pi' D1 V^dag with D2 = D1^2, and H' = diag(h) commutes
        through every D: d/dtau = -2 pi i V (H' b + b H' + 2 D1 Pi' H' D2 Pi' D1) V^dag."""
        d1 = np.exp(-2j * np.pi * np.multiply.outer(np.asarray(taus, float), self._vals))
        d2 = d1 * d1
        left = d1[:, :, None] * self._pi  # D1 Pi'
        right = self._pi * d1[:, None, :]  # Pi' D1
        b = (left * d2[:, None, :]) @ right
        vecs, vecs_h = self._vecs, self._vecs.conj().T
        if not derivative:
            return vecs @ b @ vecs_h
        h = self._vals
        db = h[:, None] * b + b * h + 2 * ((left * (h * d2)[:, None, :]) @ right)
        return vecs @ b @ vecs_h, -2j * np.pi * (vecs @ db @ vecs_h)


def dd_unit(tau_f: float, compiler: UnitCompiler) -> np.ndarray:
    """F(tau) Pi F(2 tau) Pi F(tau) on (electron, nucleus)."""
    if tau_f <= 0:
        raise ValueError("tau_f must be positive")
    return compiler.units([tau_f])[0]


def _gate_stack(names) -> np.ndarray:
    return np.array([_GATE_4X4[g] for g in names]).reshape(-1, 4, 4)


def sequence_unitary(seq: DDSequence, compiler: UnitCompiler) -> np.ndarray:
    factors = compiler.units(seq.tau_f) @ _gate_stack(seq.electron_gates[:-1])
    u = np.eye(4, dtype=complex)
    for f in factors:
        u = f @ u
    return _GATE_4X4[seq.electron_gates[-1]] @ u


def noisy_sequence_unitary(seq: DDSequence, compiler: UnitCompiler, phases: np.ndarray) -> np.ndarray:
    """Sequence unitary with an electron z rotation D(phi) = exp(-i phi Z_e / 2)
    by `phases[..., j]` (rad) after free segment j. Phases shaped (3k,) give
    one 4x4 unitary, phases shaped (T, 3k) a (T, 4, 4) stack.

    The bath term commutes with the electron-diagonal free Hamiltonian and
    Pi D(b) = D(-b) Pi, so the three rotations of unit i fold exactly into
    one, D(phi_1 - phi_2 + phi_3), applied after the noiseless unit.

    The running products of all T trajectories are held as one (4, T, 4)
    array, row a of every product side by side, so each unit is one
    (4, 4) @ (4, 4T) GEMM and its bath rotation a scaling of row a by
    dephase[a, t]. That is the same arithmetic, element for element, as T
    separate 4x4 products, without T calls."""
    phases = np.asarray(phases, float)
    lead = phases.shape[:-1]
    t = int(np.prod(lead))
    rows = phases.reshape(t, phases.shape[-1])  # reshape(-1, 0) cannot size (T, 0)
    half = np.exp(-0.5j * (rows[:, 0::3] - rows[:, 1::3] + rows[:, 2::3])).T
    dephase = np.stack([half, half, half.conj(), half.conj()], axis=1)[..., None]
    factors = compiler.units(seq.tau_f) @ _gate_stack(seq.electron_gates[:-1])
    u = np.broadcast_to(np.eye(4, dtype=complex)[:, None, :], (4, t, 4))
    for f, d in zip(factors, dephase):
        u = d * (f @ u.reshape(4, 4 * t)).reshape(4, t, 4)
    u = (_GATE_4X4[seq.electron_gates[-1]] @ u.reshape(4, 4 * t)).reshape(4, t, 4)
    return np.ascontiguousarray(u.transpose(1, 0, 2)).reshape(lead + (4, 4))


def gate_fidelity(u: np.ndarray, target: np.ndarray) -> float:
    """|Tr(target^dag u)| / d -- global-phase-invariant overlap, clipped to
    1, which rounding can exceed by a few ulps for a near-perfect gate."""
    if u.shape != target.shape:
        raise ValueError("dimension mismatch")
    d = u.shape[0]
    return min(float(abs(np.trace(target.conj().T @ u)) / d), 1.0)


# ------------------------------------------------------------ optimization

def _environments(units, gates, target):
    """Environments of the units in U = G_k B_{k-1} G_{k-1} ... B_0 G_0.

    With the prefix R_i = B_{i-1} G_{i-1} ... B_0 G_0 and the suffix
    W_i = G_k B_{k-1} G_{k-1} ... B_{i+1} G_{i+1}, both built in one loop,
    returns E_i = R_i T^dag W_i, a (k, 4, 4) stack with
    Tr(T^dag U) = Tr(E_i B_i G_i) for every i, and R_k T^dag, with
    Tr(T^dag U) = Tr(R_k T^dag G_k)."""
    k = len(units)
    factors = list(units @ gates[:-1])
    prefix, suffix = [np.eye(4, dtype=complex)], [gates[-1]]
    for i in range(k - 1):
        prefix.append(factors[i] @ prefix[-1])
        suffix.append(suffix[-1] @ factors[k - 1 - i])
    t_dag = target.conj().T
    return np.array(prefix) @ t_dag @ np.array(suffix[::-1]), factors[-1] @ prefix[-1] @ t_dag


def _fidelity_and_gradient(taus, gates, target, compiler):
    """|Tr(T^dag U)| / 4 and its gradient in the spacings, for the (k+1, 4, 4)
    electron-gate stack `gates`."""
    units, d_units = compiler.units(taus, derivative=True)
    env, tail = _environments(units, gates, target)
    overlap = np.sum(tail * gates[-1].T)
    fid = abs(overlap) / 4
    grad = np.zeros(len(taus))
    if abs(overlap) > 1e-300:
        d_overlap = np.einsum("kab,kba->k", env, d_units @ gates[:-1])
        grad = np.real(np.conj(overlap) * d_overlap) / (abs(overlap) * 4)
    return fid, grad


# L-BFGS-B stops once a step lowers 1 - F by at most _FTOL (the objective lies
# in [0, 1], so scipy's relative test is absolute here). F near 1 is resolved
# only to ~1.1e-16, so a tolerance at that scale fires only on steps that leave
# F's float unchanged and the polish ends in rounding noise; 1e-12 is ~1e4
# times that resolution and far below any fidelity gap the search compares.
_FTOL = 1e-12


def minimize(fun, x0, **kw):
    """scipy.optimize.minimize, imported on first use so that the package
    loads no scipy for runs that only simulate."""
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(fun, x0, **kw)


def _polish(taus, gate_names, target, compiler, lb, ub, maxiter=800):
    gates = _gate_stack(gate_names)

    def neg(x):
        f, g = _fidelity_and_gradient(x, gates, target, compiler)
        return 1 - f, -g

    res = minimize(
        neg, taus, jac=True, method="L-BFGS-B",
        bounds=[(lb, ub)] * len(taus),
        options=dict(maxiter=maxiter, ftol=_FTOL, gtol=1e-14),
    )
    return res.x, 1 - res.fun, res.nfev


def _slot_fidelities(units, names, target):
    """|Tr(T^dag U)| / 4 with each electron gate in each slot of the sequence,
    the other slots held fixed: a (k+1, len(_GATE_NAMES)) table.

    The overlap is linear in the gate G of one slot s, Tr(M_s G), with the
    environment M_s = E_s B_s (M_k = R_k T^dag for the last slot), so every
    entry costs one contraction."""
    env, tail = _environments(units, _gate_stack(names), target)
    slots = np.concatenate([env @ units, tail[None]])
    return np.abs(np.einsum("gab,sba->sg", _ALL_GATES, slots)) / 4


def _discrete_sweep(taus, gate_names, target, compiler, rng):
    """Coordinate-wise sweep over the electron-gate slots at fixed spacings,
    accepting any candidate that raises the fidelity by more than 1e-12; the
    table of candidate fidelities is rebuilt only after a slot changes."""
    names = list(gate_names)
    units = compiler.units(taus)
    table = _slot_fidelities(units, names, target)
    best = table[0, _GATE_NAMES.index(names[0])]
    improved = True
    evals = 0
    while improved:
        improved = False
        for slot in rng.permutation(len(names)):
            current = names[slot]
            for cand, f in zip(_GATE_NAMES, table[slot]):
                if cand == current:
                    continue
                evals += 1
                if f > best + 1e-12:
                    best, improved = f, True
                    names[slot] = cand
            if names[slot] != current:
                table = _slot_fidelities(units, names, target)
    return names, best, evals


def synthesize(
    target: np.ndarray | str,
    p: SpinSystemParams,
    threshold: float = 0.999,
    seed: int = 0,
    restarts: int = 80,
    hops: int = 8,
    lb: float = 1e-9,
    ub: float | None = None,
    duration_limit: float | None = None,
    ks=range(2, 21, 2),
) -> SynthesisReport:
    """Search for a DD sequence realizing `target` up to global phase.

    Tries the unit counts k in `ks` in order (by default the even k from 2
    to 20); per k, random restarts of gradient polish + discrete gate sweeps
    + iterated perturbation. Returns the first sequence meeting `threshold`
    (further polished), otherwise the best found with met_threshold=False.
    """
    target_name = target if isinstance(target, str) else "custom"
    if isinstance(target, str):
        target = TARGETS[target]
    if not (0 < threshold <= 1):
        raise ValueError("threshold must be in (0, 1]")
    ks = list(ks)
    if not ks or min(ks) < 1:
        raise ValueError(f"unit counts to search must be non-empty and all >= 1, got {ks}")
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    if hops < 0:
        raise ValueError(f"hops must be >= 0, got {hops}")

    identity_fid = gate_fidelity(np.eye(4, dtype=complex), target)
    if identity_fid >= threshold:
        seq = DDSequence((), ("I",))
        return SynthesisReport(seq, identity_fid, 0, target_name, True)

    if ub is None:
        ub = 0.7 * resonance_spacing(p, 1, "unconditional")
    if lb >= ub:
        raise ValueError(f"spacing bounds reversed: lb = {lb} >= ub = {ub}")
    start_lo, start_hi = max(lb, 2e-11), 0.75 * ub
    if start_lo > start_hi:
        raise ValueError(
            f"no random starts between lb = {lb} and ub = {ub}: the start interval "
            f"[max(lb, 2e-11), 0.75 ub] = [{start_lo}, {start_hi}] is empty")
    compiler = UnitCompiler(p)
    rng = np.random.default_rng(seed)
    best_f, best_x, best_names = 0.0, None, None
    evals = 0

    def admissible(x):
        return duration_limit is None or 4 * np.sum(x) <= duration_limit

    for k in ks:
        for _ in range(restarts):
            names = ["I"] + [_GATE_NAMES[rng.integers(len(_GATE_NAMES))] for _ in range(k)]
            x = rng.uniform(start_lo, start_hi, size=k)
            x, f, ne = _polish(x, names, target, compiler, lb, ub)
            evals += ne
            names, _, ne = _discrete_sweep(x, names, target, compiler, rng)
            evals += ne
            x, f, ne = _polish(x, names, target, compiler, lb, ub)
            evals += ne
            for _ in range(hops):
                if f >= threshold and admissible(x):
                    break
                xp = np.clip(x + rng.normal(0, 8e-9, size=k), lb, ub)
                xp, fp, ne = _polish(xp, names, target, compiler, lb, ub)
                evals += ne
                names_p, _, ne = _discrete_sweep(xp, names, target, compiler, rng)
                evals += ne
                xp, fp, ne = _polish(xp, names_p, target, compiler, lb, ub)
                evals += ne
                if fp > f and (admissible(xp) or not admissible(x)):
                    x, f, names = xp, fp, names_p
            if f > best_f and (admissible(x) or best_x is None or not admissible(best_x)):
                best_f, best_x, best_names = f, x.copy(), list(names)
            if best_f >= threshold and admissible(best_x):
                break
        if best_f >= threshold and admissible(best_x):
            break

    # final polish pass to squeeze the local optimum
    if best_x is not None and len(best_x):
        x, f, ne = _polish(best_x, best_names, target, compiler, lb, ub, maxiter=3000)
        evals += ne
        if f >= best_f and (admissible(x) or not admissible(best_x)):
            best_x, best_f = x, f

    seq = DDSequence(tuple(float(t) for t in best_x), tuple(best_names))
    met = best_f >= threshold and admissible(best_x)
    return SynthesisReport(seq, float(best_f), evals, target_name, met)


# -------------------------------------------------------------- noisy runs

# tomographic input set: products of one-qubit Pauli eigenstates
_ONE_QUBIT_INPUTS = [
    np.array([1, 0], complex),                      # |0>
    np.array([0, 1], complex),                      # |1>
    np.array([1, 1], complex) / np.sqrt(2),         # |+>
    np.array([1, 1j], complex) / np.sqrt(2),        # |+i>
]
TOMOGRAPHY_INPUTS = [np.kron(a, b) for a in _ONE_QUBIT_INPUTS for b in _ONE_QUBIT_INPUTS]


def noisy_gate_fidelity(seq: DDSequence, p: SpinSystemParams, noise, trials: int = 2000, seed: int | None = None):
    """Mean state fidelity (sqrt convention) of the noisy sequence against the
    noiseless sequence outputs on the 16 tomographic product inputs.

    Returns (mean_fidelity, standard_error).
    """
    from .noise import segment_phases

    if trials < 100:
        raise ValueError("need at least 100 trajectories")
    compiler = UnitCompiler(p)
    inputs = np.array(TOMOGRAPHY_INPUTS).T
    refs = sequence_unitary(seq, compiler) @ inputs
    rng = np.random.default_rng(noise.seed if seed is None else seed)
    phases = segment_phases(noise, seq.segment_durations(), trials, rng)
    outs = noisy_sequence_unitary(seq, compiler, phases) @ inputs
    per_traj = np.mean(np.abs(np.sum(refs.conj() * outs, axis=1)) ** 2, axis=1)
    mean_overlap = float(np.mean(per_traj))
    se_overlap = float(np.std(per_traj, ddof=1) / np.sqrt(trials))
    fid = np.sqrt(max(mean_overlap, 0.0))
    se = se_overlap / (2 * fid) if fid > 0 else se_overlap
    return float(fid), float(se)


# ------------------------------------------------------------ serialization

def serialize_sequence(report: SynthesisReport, p: SpinSystemParams) -> str:
    buf = io.StringIO()
    buf.write(f"format_version {SERIAL_FORMAT_VERSION}\n")
    buf.write(f"target {report.target_name}\n")
    buf.write(f"a_par_hz {p.a_par!r}\n")
    buf.write(f"a_perp_hz {p.a_perp!r}\n")
    buf.write(f"gamma_e_hz_per_t {p.gamma_e!r}\n")
    buf.write(f"gamma_n_hz_per_t {p.gamma_n!r}\n")
    buf.write(f"b_field_t {p.b_field[0]!r} {p.b_field[1]!r} {p.b_field[2]!r}\n")
    buf.write(f"fidelity {report.unitary_fidelity!r}\n")
    buf.write(f"met_threshold {int(report.met_threshold)}\n")
    buf.write(f"k {report.sequence.k}\n")
    for t, g in zip(report.sequence.tau_f, report.sequence.electron_gates):
        buf.write(f"unit {t!r} {g}\n")
    buf.write(f"final_gate {report.sequence.electron_gates[-1]}\n")
    return buf.getvalue()


def deserialize_sequence(text: str):
    """Returns (SynthesisReport, SpinSystemParams)."""
    fields = {}
    units = []
    for line in text.strip().splitlines():
        parts = line.split()
        if parts[0] == "unit":
            units.append((float(parts[1]), parts[2]))
        else:
            fields[parts[0]] = parts[1:]
    if int(fields["format_version"][0]) != SERIAL_FORMAT_VERSION:
        raise ValueError("unsupported gate-file version")
    p = SpinSystemParams(
        a_par=float(fields["a_par_hz"][0]),
        a_perp=float(fields["a_perp_hz"][0]),
        gamma_e=float(fields["gamma_e_hz_per_t"][0]),
        gamma_n=float(fields["gamma_n_hz_per_t"][0]),
        b_field=tuple(float(v) for v in fields["b_field_t"]),
    )
    taus = tuple(t for t, _ in units)
    gates = tuple(g for _, g in units) + (fields["final_gate"][0],)
    seq = DDSequence(taus, gates)
    report = SynthesisReport(
        sequence=seq,
        unitary_fidelity=float(fields["fidelity"][0]),
        iterations=0,
        target_name=fields["target"][0],
        met_threshold=bool(int(fields["met_threshold"][0])),
    )
    return report, p
