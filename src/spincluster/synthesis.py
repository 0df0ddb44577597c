"""Compilation of two-qubit electron-nuclear gates from dynamical-decoupling
units (tau_f - pi - 2 tau_f - pi - tau_f) with interleaved electron gates.

The spacings are optimized by gradient-based local search (the trace-overlap
fidelity is analytic in the spacings) from many random starts, alternated
with coordinate-wise sweeps over the discrete electron-gate insertions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .states import CZ, I2, SWAP, rx, ry, rz
from .hamiltonian import SpinSystemParams, free_hamiltonian, resonance_spacing

SERIAL_FORMAT_VERSION = 1
# the key of every line of a gate file but its `unit` lines, in the order written
_SERIAL_FIELDS = (
    "format_version", "target", "a_par_hz", "a_perp_hz", "gamma_e_hz_per_t",
    "gamma_n_hz_per_t", "b_field_t", "fidelity", "met_threshold", "k", "final_gate",
)

ELECTRON_GATES = {
    "I": I2,
    "Rx90": rx(np.pi / 2),
    "Ry90": ry(np.pi / 2),
    "Rz90": rz(np.pi / 2),
    "Rx180": rx(np.pi),
}
_GATE_NAMES = list(ELECTRON_GATES)
# the electron gates g with g D(phi) g^dag = D(sign phi) for the bath rotation
# D(phi) = exp(-i phi Z_e / 2); Rx90 and Ry90 turn it off the z axis
_BATH_SIGN = {"I": 1, "Rz90": 1, "Rx180": -1}
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


def _check_spacings(taus):
    if not all(np.isfinite(t) and t > 0 for t in taus):
        raise ValueError(f"all spacings must be finite and positive, got {taus}")


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
        _check_spacings(self.tau_f)
        for g in self.electron_gates:
            if g not in ELECTRON_GATES:
                raise ValueError(f"unknown electron gate {g!r}")

    @property
    def k(self) -> int:
        return len(self.tau_f)

    @property
    def total_duration(self) -> float:
        return 4.0 * float(np.sum(self.tau_f))


@dataclass(frozen=True)
class SynthesisReport:
    """The outcome of `synthesize`. `iterations` counts the work of the
    search: every objective evaluation of every polish plus every candidate
    gate the discrete sweeps compared, not L-BFGS-B iterations; a report
    read from a gate file has 0."""
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
        self._bath_blocks = {}
        self._workspaces = {}

    def free_propagator(self, t: float) -> np.ndarray:
        return (self._vecs * np.exp(-2j * np.pi * self._vals * t)) @ self._vecs.conj().T

    def units(self, taus):
        """DD units F(tau) Pi F(2 tau) Pi F(tau) for all spacings at once, a
        (k, 4, 4) stack: V b V^dag with b the unit in the eigenbasis from
        `eigen_units`, the same unit weights the sweep uses."""
        return self._vecs @ self.eigen_units(taus) @ self._vecs.conj().T

    @cached_property
    def _unit_weights(self):
        """W[m, s, a, b]: Pi'_am Pi'_mb at s = 0, and -2 pi i (h_a + h_b + 2 h_m)
        times it at s = 1. A unit b = D1 Pi' D2 Pi' D1 in the eigenbasis is
        b_ab = d1_a d1_b sum_m d2_m W[m, 0, a, b], and its d/dtau the same
        sum over W[m, 1, a, b]."""
        h, pi = self._vals, self._pi
        w = pi.T[:, :, None] * pi[:, None, :]  # Pi'_am Pi'_mb
        dw = -2j * np.pi * (2 * h[:, None, None] + h[:, None] + h) * w
        return np.stack([w, dw], axis=1)

    @cached_property
    def _gate_kernels(self):
        """K_g[(m, b), (s, a, c)] = W[m, s, a, b] G'_g[b, c] for each electron
        gate g in `_GATE_NAMES` order, G'_g in the eigenbasis: a (5, 16, 32)
        stack, the unit weights with the gate of a slot folded in."""
        kernels = np.einsum("msab,gbc->gmbsac", self._unit_weights, self._eigen_gates)
        return kernels.reshape(-1, 16, 32)

    @cached_property
    def _eigen_gates(self):
        """The electron gates G'_g in the eigenbasis, in `_GATE_NAMES` order."""
        return self.to_eigenbasis(_ALL_GATES)

    def polish_workspace(self, k: int) -> _PolishWorkspace:
        """The arrays the objectives of k units write, built on first use."""
        if k not in self._workspaces:
            self._workspaces[k] = _PolishWorkspace(k, self._vals)
        return self._workspaces[k]

    def eigen_units(self, taus):
        """The units b = D1 Pi' D2 Pi' D1 in the eigenbasis for all spacings
        at once, a (k, 4, 4) stack: one (k, 4) @ (4, 16) product of d2 with
        the unit weights, scaled by d1_a d1_b."""
        d1 = np.exp(-2j * np.pi * np.multiply.outer(np.asarray(taus, float), self._vals))
        w = self._unit_weights[:, 0].reshape(4, 16)
        return ((d1 * d1) @ w).reshape(-1, 4, 4) * (d1[:, :, None] * d1[:, None, :])

    def to_eigenbasis(self, ops):
        """V^dag A V for an operator, or a stack of them, on (electron, nucleus)."""
        return self._vecs.conj().T @ ops @ self._vecs

    def bath_blocks(self, seq: DDSequence):
        """The noiseless products of `seq` between the bath rotations that
        `noisy_sequence_unitary` keeps, built once per sequence: returns
        (products, signs, tail). The rotation of block b is by
        sum_j s phi_j over the (unit j, sign s) pairs of signs[b] and acts
        after products[b]; the gate `tail`, if not None, acts last.

        The rotation D(phi_j) after unit j commutes with every unit, which
        is electron block-diagonal, and with each gate of `_BATH_SIGN` up to
        its sign, so it moves past them to just before the next Rx90 or
        Ry90, or to the end of the sequence."""
        key = (tuple(seq.tau_f), tuple(seq.electron_gates))  # a list field cannot hash
        if key not in self._bath_blocks:
            factors = self.units(seq.tau_f) @ _gate_stack(seq.electron_gates[:-1])
            products, signs = [], []
            for j, (name, f) in enumerate(zip(seq.electron_gates, factors)):
                if name in _BATH_SIGN and signs:
                    products[-1] = f @ products[-1]
                    signs[-1] = [(i, s * _BATH_SIGN[name]) for i, s in signs[-1]] + [(j, 1)]
                else:
                    products.append(f)
                    signs.append([(j, 1)])
            last = seq.electron_gates[-1]
            tail = _GATE_4X4[last]
            if last in _BATH_SIGN and signs:
                products[-1] = tail @ products[-1]
                signs[-1] = [(i, s * _BATH_SIGN[last]) for i, s in signs[-1]]
                tail = None
            self._bath_blocks[key] = (products, signs, tail)
        return self._bath_blocks[key]


def dd_unit(tau_f: float, compiler: UnitCompiler) -> np.ndarray:
    """F(tau) Pi F(2 tau) Pi F(tau) on (electron, nucleus)."""
    _check_spacings((tau_f,))
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
    by `phases[..., j]` (rad) after DD unit j: its toggling-frame bath
    phase, `noise.unit_phases`. The bath term commutes with the
    electron-diagonal free Hamiltonian and Pi D(b) = D(-b) Pi, so the three
    rotations of a unit's free segments fold exactly into that one.
    Phases shaped (k,) give one 4x4 unitary, phases shaped (..., k) a
    (..., 4, 4) stack: (T, k) for T trajectories, or (n, T, k) for n
    instances of the sequence in one call, which is how `protocol`
    assembles a schedule's repeats of a gate, a few thousand
    trajectory-columns per call.

    The rotations merge further: between two Rx90 or Ry90 gates they all
    commute to one place (`UnitCompiler.bath_blocks`), so a column is the
    shared noiseless block products with one rotation after each. The
    running products of all columns are held as one (4, 4, cols) array,
    entry [a, b] of every product side by side, so each block after the
    first is one (4, 4) @ (4, 4 cols) GEMM and its rotation an in-place
    scaling of rows 0:2 by half = exp(-i theta / 2) and rows 2:4 by its
    conjugate. Every operation acts on each column alone, in an order that
    does not depend on the number of columns, so a column's bits do not
    depend on which others share the call."""
    phases = np.asarray(phases, float)
    lead = phases.shape[:-1]
    t = int(np.prod(lead))
    rows = phases.reshape(t, phases.shape[-1])  # reshape(-1, 0) cannot size (T, 0)
    products, signs, tail = compiler.bath_blocks(seq)
    u = None
    for w, block in zip(products, signs):
        theta = np.zeros(t)
        for j, sign in block:
            if sign > 0:
                theta += rows[:, j]
            else:
                theta -= rows[:, j]
        half = np.exp(-0.5j * theta)
        if u is None:
            u = np.empty((4, 4, t), dtype=complex)
            np.multiply(half, w[:2, :, None], out=u[:2])
            np.multiply(half.conj(), w[2:, :, None], out=u[2:])
        else:
            u = (w @ u.reshape(4, 4 * t)).reshape(4, 4, t)
            np.multiply(half, u[:2], out=u[:2])
            np.multiply(half.conj(), u[2:], out=u[2:])
    if u is None:
        u = np.broadcast_to(tail[:, :, None], (4, 4, t))
    elif tail is not None:
        u = (tail @ u.reshape(4, 4 * t)).reshape(4, 4, t)
    return np.ascontiguousarray(u.transpose(2, 0, 1)).reshape(lead + (4, 4))


def gate_fidelity(u: np.ndarray, target: np.ndarray) -> float:
    """|Tr(target^dag u)| / d -- global-phase-invariant overlap, clipped to
    1, which rounding can exceed by a few ulps for a near-perfect gate."""
    if u.shape != target.shape:
        raise ValueError("dimension mismatch")
    d = u.shape[0]
    return min(float(abs(np.trace(target.conj().T @ u)) / d), 1.0)


# ------------------------------------------------------------ optimization

def _doubling_scan(prefix):
    """The (later, earlier) view pairs that turn the stack prefix = [1, f_0,
    ..., f_{k-1}] into R_i = f_{i-1} ... f_0 in place: step s = 1, 2, 4, ...
    replaces R_j by R_j R_{j-s} for every j > s at once, so log2(k) batched
    products scan the whole stack (`np.matmul` copies an operand that
    overlaps its output first)."""
    pairs, step = [], 1
    while step < len(prefix) - 1:
        pairs.append((prefix[step + 1:], prefix[1:-step]))
        step *= 2
    return pairs


def _prefix_pass(factors, last, target_h):
    """For U' = G'_k f_{k-1} ... f_0 with f_i = b_i G'_i in the eigenbasis:
    the prefixes R_i = f_{i-1} ... f_0, a (k+1, 4, 4) stack (R_0 = 1) built
    by doubling, and X = T'^dag U' = target_h G'_k R_k, with Tr X = Tr(T^dag U)."""
    prefix = np.concatenate([_ALL_GATES[:1], factors])  # gate "I" as R_0
    for later, earlier in _doubling_scan(prefix):
        np.matmul(later, earlier, out=later)
    return prefix, target_h @ last @ prefix[-1]


# The real form rho(C) = Re C (x) 1_2 + Im C (x) J of a complex matrix C, with
# J = [[0, -1], [1, 0]]: rho(AB) = rho(A) rho(B), rho(A^dag) = rho(A)^T and
# Tr(rho(A)^T rho(B)) = 2 Re Tr(A^dag B). Row a of a 4x4 C, read as the floats
# (Re C_a0, Im C_a0, ...), maps through _RHO_ROWS to rows 2a and 2a + 1 of
# rho(C) side by side; _RHO_TRACES holds rho(1) and rho(i), flattened and
# halved, so that _RHO_TRACES @ rho(M).ravel() = (Re Tr M, Im Tr M).
_J = np.array([[0.0, -1.0], [1.0, 0.0]])
_RHO_ROWS = np.einsum("cd,sij->csidj", np.eye(4), np.stack([np.eye(2), _J])).reshape(8, 16)


def _rho(c):
    """rho(C) of a 4x4 complex C, or of a (..., 4, 4) stack: (..., 8, 8)."""
    c = np.ascontiguousarray(c, dtype=complex)
    return (c.view(float) @ _RHO_ROWS).reshape(c.shape[:-2] + (8, 8))


_RHO_TRACES = _rho(np.array([np.eye(4), 1j * np.eye(4)])).reshape(2, 64) / 2


class _PolishWorkspace:
    """Every array an evaluation of `_objective` for k units writes, with the
    views it writes them through, built once per (UnitCompiler, k) and shared
    by all objectives of that unit count. An evaluation overwrites each array
    before it reads it, so objectives sharing one may be called in any
    order, though not at the same time."""

    def __init__(self, k, vals):
        self.phases = -2j * np.pi * vals
        self.d1 = np.empty((k, 4), complex)
        self.d2 = np.empty((k, 4), complex)
        self.d1_a, self.d1_b = self.d1[:, None, :, None], self.d1[:, None, :]
        self.d2_m = self.d2[:, :, None]
        self.v = np.empty((k, 1, 16), complex)  # d2_m d1_b
        self.v_mb = self.v.reshape(k, 4, 4)
        self.f = np.empty((k, 1, 32), complex)  # f_i and df_i, entries (s, a, c)
        self.f_sac = self.f.reshape(k, 2, 4, 4)
        self.f_real = self.f_sac.view(float).transpose(1, 0, 2, 3)
        buf = np.zeros((2, k + 1, 8, 8))  # [rho(R_i), rho(df_{i-1})]
        buf[0, 0] = np.eye(8)
        prefix, self.d_factors = buf[0], buf[1, 1:]
        self.rows = buf.reshape(2, k + 1, 4, 16)[:, 1:]  # the row pairs of rho(f_i), rho(df_i)
        self.scan = _doubling_scan(prefix)
        self.final = prefix[-1]
        self.before = prefix[:-1].reshape(-1, 8)  # R_0 ... R_{k-1} stacked, for one GEMM
        self.after = prefix[1:].reshape(k, 64, 1)
        self.x = np.empty((8, 8))
        self.x_flat, self.x_pairs = self.x.reshape(64), self.x.reshape(32, 2)
        self.traces = np.empty(2)
        self.scale = np.empty((2, 2))
        self.x_scaled = np.empty((32, 2))
        self.x_scaled_8 = self.x_scaled.reshape(8, 8)
        self.rx = np.empty((8 * k, 8))  # rho(R_i) times the scaled X
        self.rx_i = self.rx.reshape(k, 8, 8)
        self.y = np.empty((k, 8, 8))
        self.y_rows = self.y.reshape(k, 1, 64)
        self.grad = np.empty((k, 1, 1))
        self.grad_flat = self.grad.reshape(k)


def _objective(gate_names, target_h, compiler):
    """The cost function of a polish: taus -> (1 - F, -dF/dtau) with
    F = |Tr(T^dag U)| / 4, for the k + 1 electron gates `gate_names` and
    `target_h` = T^dag in the eigenbasis (`UnitCompiler.to_eigenbasis`),
    which stay fixed while the spacings move.

    Of what does not depend on the spacings, the slots' kernels and the last
    gate are picked here, once per polish, and the arrays an evaluation
    writes come from the compiler's workspace for k units
    (`UnitCompiler.polish_workspace`), which every numpy call writes into
    through `out=`; only the returned gradient is new. The factor
    f_i = b_i G'_i of `eigen_units`' unit b_i is
    f_ac = d1_a sum_{m,b} d2_m d1_b W[m, 0, a, b] G'_bc, so with each slot's
    gate folded into the unit weights (`UnitCompiler._gate_kernels`), every f_i
    and df_i = db_i G'_i is one (k, 1, 16) @ (k, 16, 32) product scaled by
    d1_a. From there the arithmetic is real: one product with `_RHO_ROWS`
    writes rho(f_i) and rho(df_i) into the workspace, where the prefixes
    rho(R_i), R_i = f_{i-1} ... f_0 (R_0 = 1), are scanned in place by
    doubling. Every factor is unitary, so the part of U' after unit i is
    U' R_{i+1}^dag, and with X = T'^dag U' the prefix pass alone gives
    d Tr(T'^dag U') / dtau_i = Tr(R_{i+1}^dag df_i R_i X). This is the
    forward/backward-propagator gradient of GRAPE."""
    k = len(gate_names) - 1
    kernel = compiler._gate_kernels[[_GATE_NAMES.index(g) for g in gate_names[:-1]]]
    last = _rho(target_h @ compiler._eigen_gates[_GATE_NAMES.index(gate_names[-1])])
    w = compiler.polish_workspace(k)
    phases, d1, d2, d1_a, d1_b, d2_m = w.phases, w.d1, w.d2, w.d1_a, w.d1_b, w.d2_m
    v, v_mb, f, f_sac, f_real, rows, scan = w.v, w.v_mb, w.f, w.f_sac, w.f_real, w.rows, w.scan
    final, x, x_flat, x_pairs, traces, scale = w.final, w.x, w.x_flat, w.x_pairs, w.traces, w.scale
    x_scaled, x_scaled_8, before, rx, rx_i = w.x_scaled, w.x_scaled_8, w.before, w.rx, w.rx_i
    d_factors, y, y_rows, after = w.d_factors, w.y, w.y_rows, w.after
    grad, grad_flat = w.grad, w.grad_flat

    def cost_and_gradient(taus):
        np.multiply.outer(taus, phases, out=d1)
        np.exp(d1, out=d1)
        np.multiply(d1, d1, out=d2)
        np.multiply(d2_m, d1_b, out=v_mb)
        np.matmul(v, kernel, out=f)
        np.multiply(f_sac, d1_a, out=f_sac)
        np.matmul(f_real, _RHO_ROWS, out=rows)
        for later, earlier in scan:
            np.matmul(later, earlier, out=later)
        np.matmul(last, final, out=x)
        np.matmul(_RHO_TRACES, x_flat, out=traces)
        re, im = traces.tolist()
        size = math.hypot(re, im)
        if size <= 1e-300:
            return 1 - size / 4, np.zeros(k)
        # dF = Re(z^* dz) / 4|z|: X times rho(-z^* / 8|z|), halved as Tr rho = 2 Re Tr
        c = -0.125 / size
        scale[0, 0] = scale[1, 1] = c * re
        scale[0, 1] = c * im
        scale[1, 0] = -c * im
        np.matmul(x_pairs, scale, out=x_scaled)
        np.matmul(before, x_scaled_8, out=rx)
        np.matmul(d_factors, rx_i, out=y)
        np.matmul(y_rows, after, out=grad)
        return 1 - size / 4, grad_flat.copy()

    return cost_and_gradient


# L-BFGS-B stops once a step lowers 1 - F by at most _FTOL (the objective lies
# in [0, 1], so scipy's relative test is absolute here). F near 1 is resolved
# only to ~1.1e-16, so a tolerance at that scale fires only on steps that leave
# F's float unchanged and the polish ends in rounding noise; 1e-12 is ~1e4
# times that resolution and far below any fidelity gap the search compares.
# It stops too once no projected gradient entry exceeds _GTOL.
_FTOL, _GTOL = 1e-12, 1e-14


@cache
def _lbfgsb_setulb():
    """scipy's compiled L-BFGS-B step `setulb`, loaded from its extension file
    in scipy/optimize. `import scipy` runs scipy's own package init (its numpy
    version check); `scipy.optimize`'s init, which imports some 300 scipy
    modules for 49 MB and about 0.4 s, never runs. When `scipy.optimize` is
    already loaded the loader hands back its module, so both orders share one
    `setulb`."""
    import importlib.machinery as machinery
    import importlib.util
    import os

    import scipy

    where = os.path.join(os.path.dirname(scipy.__file__), "optimize")
    finder = machinery.FileFinder(
        where, (machinery.ExtensionFileLoader, machinery.EXTENSION_SUFFIXES))
    spec = finder.find_spec("scipy.optimize._lbfgsb")
    if spec is None:
        raise ImportError(f"scipy {scipy.__version__} has no compiled L-BFGS-B "
                          f"step (_lbfgsb) in {where}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.setulb


def minimize(fun, x0, lb, ub, maxiter):
    """Minimizes fun(x) -> (value, gradient) over lb <= x <= ub, with finite
    0 < lb < ub, from x0: returns (x, value, evaluations). These are the x,
    fun and nfev of scipy.optimize.minimize(fun, x0, jac=True,
    method="L-BFGS-B", bounds=[(lb, ub)] * len(x0), options=dict(
    maxiter=maxiter, ftol=_FTOL, gtol=_GTOL)), bit for bit.

    It drives scipy's compiled L-BFGS-B step (`setulb`, Byrd, Lu, Nocedal &
    Zhu 1995), a reverse-communication routine, with the loop of scipy's own
    `_minimize_lbfgsb` and none of its wrappers: the start is clipped into the
    bounds and evaluated once, and each later request for the value and
    gradient (task 3) evaluates `fun` only at an x that differs, byte for
    byte, from the last evaluated one (scipy's `ScalarFunction` caches the
    same way). `fun` receives the routine's own x, which the next step
    overwrites, so it must not keep it. Bounds that are not finite with
    0 < lb < ub raise ValueError before any evaluation (setulb would stop at
    its start without asking for a value). `setulb` is loaded on first use by
    `_lbfgsb_setulb`, alone, so that the package loads no scipy for runs that
    only simulate and only 11 scipy modules (+3 MB) for a synthesis."""
    if not 0 < lb < ub < math.inf:
        raise ValueError(f"minimize needs finite bounds 0 < lb < ub, got lb = {lb} "
                         f"and ub = {ub}")
    setulb = _lbfgsb_setulb()
    x = np.clip(np.asarray(x0, dtype=float).ravel(), lb, ub)  # setulb steps x in place
    n, m = x.size, 10  # m: scipy's default number of stored corrections
    lo, hi = np.full(n, float(lb)), np.full(n, float(ub))
    value, grad = fun(x)
    nfev, nit, last = 1, 0, x.tobytes()
    f, g = 0.0, np.zeros(n)
    nbd = np.full(n, 2, np.int32)  # both bounds on every variable
    factr = _FTOL / np.finfo(float).eps
    wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
    iwa = np.zeros(3 * n, np.int32)
    task, ln_task, lsave = np.zeros(2, np.int32), np.zeros(2, np.int32), np.zeros(4, np.int32)
    isave, dsave = np.zeros(44, np.int32), np.zeros(29)
    while True:
        setulb(m, x, lo, hi, nbd, f, g, factr, _GTOL, wa, iwa, task, lsave, isave, dsave,
               20, ln_task)  # maxls: at most 20 line-search steps
        if task[0] == 3:  # FG: the value and gradient at x
            if x.tobytes() != last:  # x > lb > 0, so no -0.0 or NaN to compare
                value, grad = fun(x)
                nfev, last = nfev + 1, x.tobytes()
            f, g = value, np.array(grad, dtype=float)  # a fresh copy, as scipy's
        elif task[0] == 1:  # NEW_X: an iteration is complete
            nit += 1
            if nit >= maxiter:
                task[:] = 5, 504
            elif nfev > 15000:  # scipy's default maxfun
                task[:] = 5, 502
        else:
            return x, f, nfev


def _polish(taus, gate_names, target_h, compiler, lb, ub, maxiter=800):
    """L-BFGS-B over the spacings in [lb, ub] at fixed electron gates, from
    `taus`: returns (spacings, fidelity, evaluations). The objective is built
    once per polish (`_objective`), for the gates and target it holds fixed."""
    x, cost, evaluations = minimize(
        _objective(gate_names, target_h, compiler), taus, lb, ub, maxiter)
    return x, 1 - cost, evaluations


def _slot_fidelities(units, names, target_h, candidates):
    """|Tr(T^dag U)| / 4 with each electron gate in each slot, the others held
    fixed: a (k+1, len(_GATE_NAMES)) table. The units, `target_h` = T^dag and
    `candidates` (`_ALL_GATES`) are in the eigenbasis. The overlap is linear in
    the gate G of slot i, Tr(M_i G) with M_i = R_i X R_i^dag G'_i^dag, for the
    last slot too, so every entry costs one contraction."""
    gates = candidates[[_GATE_NAMES.index(g) for g in names]]
    prefix, x = _prefix_pass(units @ gates[:-1], gates[-1], target_h)
    env = prefix @ x @ prefix.conj().transpose(0, 2, 1) @ gates.conj().transpose(0, 2, 1)
    return np.abs(np.einsum("gab,sba->sg", candidates, env)) / 4


def _discrete_sweep(taus, gate_names, target_h, compiler, rng):
    """Coordinate-wise sweep over the electron-gate slots at fixed spacings,
    accepting any candidate that raises the fidelity by more than 1e-12; the
    table of candidate fidelities is rebuilt only after a slot changes."""
    names = list(gate_names)
    units = compiler.eigen_units(taus)
    candidates = compiler._eigen_gates
    table = _slot_fidelities(units, names, target_h, candidates)
    best = table[0, _GATE_NAMES.index(names[0])]
    improved = True
    evals = 0
    while improved:
        improved = False
        for slot in rng.permutation(len(names)):
            current = names[slot]
            for cand, f in zip(_GATE_NAMES, table[slot].tolist()):
                if cand == current:
                    continue
                evals += 1
                if f > best + 1e-12:
                    best, improved = f, True
                    names[slot] = cand
            if names[slot] != current:
                table = _slot_fidelities(units, names, target_h, candidates)
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
    The reported `unitary_fidelity` is clipped to 1, which rounding in the
    objective can pass by a few ulp.
    """
    target_name = target if isinstance(target, str) else "custom"
    if isinstance(target, str):
        if target not in TARGETS:
            raise KeyError(f"unknown target {target!r}, not one of {', '.join(TARGETS)}")
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
    for name, value in (("lb", lb), ("ub", ub), ("duration_limit", duration_limit)):
        if value is not None and not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and > 0, got {value}")

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
    target_h = compiler.to_eigenbasis(target.conj().T)
    rng = np.random.default_rng(seed)
    best_f, best_x, best_names = 0.0, None, None
    evals = 0

    def admissible(x):
        return duration_limit is None or 4 * np.sum(x) <= duration_limit

    def descend(x, names):
        nonlocal evals
        x, _, polished = _polish(x, names, target_h, compiler, lb, ub)
        names, _, swept = _discrete_sweep(x, names, target_h, compiler, rng)
        x, f, repolished = _polish(x, names, target_h, compiler, lb, ub)
        evals += polished + swept + repolished
        return x, f, names

    for k in ks:
        for _ in range(restarts):
            names = ["I"] + [_GATE_NAMES[rng.integers(len(_GATE_NAMES))] for _ in range(k)]
            x, f, names = descend(rng.uniform(start_lo, start_hi, size=k), names)
            for _ in range(hops):
                if f >= threshold and admissible(x):
                    break
                xp, fp, names_p = descend(np.clip(x + rng.normal(0, 8e-9, size=k), lb, ub), names)
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
        x, f, ne = _polish(best_x, best_names, target_h, compiler, lb, ub, maxiter=3000)
        evals += ne
        if f >= best_f and (admissible(x) or not admissible(best_x)):
            best_x, best_f = x, f

    seq = DDSequence(tuple(float(t) for t in best_x), tuple(best_names))
    met = best_f >= threshold and admissible(best_x)
    return SynthesisReport(seq, min(float(best_f), 1.0), evals, target_name, met)


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
    from .noise import unit_phases

    if trials < 100:
        raise ValueError("need at least 100 trajectories")
    compiler = UnitCompiler(p)
    inputs = np.array(TOMOGRAPHY_INPUTS).T
    refs = sequence_unitary(seq, compiler) @ inputs
    rng = np.random.default_rng(noise.seed if seed is None else seed)
    phases = unit_phases(noise, seq.tau_f, trials, rng)
    outs = noisy_sequence_unitary(seq, compiler, phases) @ inputs
    per_traj = np.mean(np.abs(np.sum(refs.conj() * outs, axis=1)) ** 2, axis=1)
    mean_overlap = float(np.mean(per_traj))
    se_overlap = float(np.std(per_traj, ddof=1) / np.sqrt(trials))
    fid = np.sqrt(max(mean_overlap, 0.0))
    se = se_overlap / (2 * fid) if fid > 0 else se_overlap
    return float(fid), float(se)


# ------------------------------------------------------------ serialization

def serialize_sequence(report: SynthesisReport, p: SpinSystemParams) -> str:
    seq = report.sequence
    values = (
        SERIAL_FORMAT_VERSION, report.target_name, repr(p.a_par), repr(p.a_perp), repr(p.gamma_e),
        repr(p.gamma_n), " ".join(map(repr, p.b_field)), repr(report.unitary_fidelity),
        int(report.met_threshold), seq.k,
    )  # one per key of _SERIAL_FIELDS but final_gate, which follows the units
    lines = [f"{key} {value}" for key, value in zip(_SERIAL_FIELDS, values)]
    lines += [f"unit {t!r} {g}" for t, g in zip(seq.tau_f, seq.electron_gates)]
    return "\n".join(lines + [f"final_gate {seq.electron_gates[-1]}", ""])


def deserialize_sequence(text: str):
    """Returns (SynthesisReport, SpinSystemParams); the stored fidelity is
    clipped to 1, as `synthesize` reports it. Raises ValueError if a field
    is missing or `k` is not the number of `unit` lines, and names the line
    that is blank, has an unknown key, or lacks a value, spacing or gate."""
    fields = {}
    units = []
    lead = len(text) - len(text.lstrip())
    for number, line in enumerate(text.strip().splitlines(), start=text[:lead].count("\n") + 1):
        parts = line.split()
        if not parts:
            raise ValueError(f"gate file line {number} is blank")
        if parts[0] == "unit":
            if len(parts) != 3:
                raise ValueError(f"gate file line {number} is not 'unit <spacing> <gate>'")
            units.append((float(parts[1]), parts[2]))
        elif parts[0] not in _SERIAL_FIELDS:
            raise ValueError(f"gate file line {number} has the unknown key {parts[0]!r}")
        elif len(parts) < 2:
            raise ValueError(f"gate file line {number} has no value for {parts[0]!r}")
        else:
            fields[parts[0]] = parts[1:]
    missing = [name for name in _SERIAL_FIELDS if name not in fields]
    if missing:
        raise ValueError(f"gate file is missing {', '.join(missing)}")
    if int(fields["format_version"][0]) != SERIAL_FORMAT_VERSION:
        raise ValueError("unsupported gate-file version")
    if int(fields["k"][0]) != len(units):
        raise ValueError(f"gate file says k {fields['k'][0]} but has {len(units)} unit lines")
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
        unitary_fidelity=min(float(fields["fidelity"][0]), 1.0),
        iterations=0,
        target_name=fields["target"][0],
        met_threshold=bool(int(fields["met_threshold"][0])),
    )
    return report, p
