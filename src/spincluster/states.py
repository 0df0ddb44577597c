"""Dense state-vector / density-matrix engine with role-labeled wires.

Registers are small (<= ~14 qubits), so everything is plain dense numpy.
Wire 0 is the leftmost tensor factor. States are immutable: every operation
returns a new QuantumState.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

NORM_TOL = 1e-12
UNITARY_TOL = 1e-10
PSD_TOL = -1e-10


class RoleKind(Enum):
    ELECTRON = "electron"
    NUCLEAR = "nuclear"
    PHOTON = "photon"


@dataclass(frozen=True)
class QubitRole:
    kind: RoleKind
    index: int = 0

    def __str__(self):
        if self.kind is RoleKind.ELECTRON:
            return "e"
        return f"{self.kind.value[0]}{self.index}"


def electron() -> QubitRole:
    return QubitRole(RoleKind.ELECTRON)


def nuclear(i: int) -> QubitRole:
    return QubitRole(RoleKind.NUCLEAR, i)


def photon(i: int) -> QubitRole:
    return QubitRole(RoleKind.PHOTON, i)


def _check_roles(wires: Sequence[QubitRole]):
    electrons = [w for w in wires if w.kind is RoleKind.ELECTRON]
    if len(electrons) > 1:
        raise ValueError("register admits at most one electron wire")
    for kind in (RoleKind.NUCLEAR, RoleKind.PHOTON):
        idx = sorted(w.index for w in wires if w.kind is kind)
        if idx != list(range(len(idx))):
            raise ValueError(f"{kind.value} indices must be contiguous from 0")


def _check_hermitian(mat: np.ndarray):
    """Raise unless ||mat - mat^dagger||_F <= 1e-9. The norm is summed over
    16 row blocks, so no temporary is larger than a sixteenth of mat."""
    step = -(-len(mat) // 16)
    sq = 0.0
    for i in range(0, len(mat), step):
        sq += np.linalg.norm(mat[i:i + step] - mat[:, i:i + step].conj().T) ** 2
    if np.sqrt(sq) > 1e-9:
        raise ValueError("density matrix is not Hermitian")


class QuantumState:
    """Pure state (vector) or mixed state (density matrix) over labeled wires."""

    def __init__(self, data: np.ndarray, wires: Sequence[QubitRole], validate: bool = True):
        data = np.asarray(data, dtype=complex)
        self.wires = tuple(wires)
        n = len(self.wires)
        dim = 2 ** n
        if data.ndim == 1:
            if data.shape != (dim,):
                raise ValueError(f"state vector length {data.shape} != 2^{n}")
            self.pure = True
        elif data.ndim == 2:
            if data.shape != (dim, dim):
                raise ValueError(f"density matrix shape {data.shape} != (2^{n}, 2^{n})")
            self.pure = False
        else:
            raise ValueError("state data must be a vector or a square matrix")
        self.data = data
        if validate:
            _check_roles(self.wires)
            self._check_normalisation()

    @property
    def n_qubits(self) -> int:
        return len(self.wires)

    @property
    def dim(self) -> int:
        return 2 ** self.n_qubits

    def _check_normalisation(self):
        if self.pure:
            if abs(np.linalg.norm(self.data) - 1.0) > 1e-9:
                raise ValueError("pure state is not normalised")
        else:
            if abs(np.trace(self.data).real - 1.0) > 1e-9:
                raise ValueError("density matrix trace != 1")
            _check_hermitian(self.data)

    def wire_index(self, role: QubitRole) -> int:
        return self.wires.index(role)

    def density_matrix(self) -> np.ndarray:
        if self.pure:
            return np.outer(self.data, self.data.conj())
        return self.data

    def to_mixed(self) -> "QuantumState":
        return QuantumState(self.density_matrix(), self.wires, validate=False)

    def copy(self) -> "QuantumState":
        return QuantumState(self.data.copy(), self.wires, validate=False)


@dataclass(frozen=True)
class Unitary:
    matrix: np.ndarray
    arity: int

    @staticmethod
    def of(matrix: np.ndarray) -> "Unitary":
        matrix = np.asarray(matrix, dtype=complex)
        d = matrix.shape[0]
        arity = int(round(np.log2(d)))
        if matrix.shape != (d, d) or 2 ** arity != d:
            raise ValueError("unitary must be square with power-of-two dimension")
        if np.linalg.norm(matrix.conj().T @ matrix - np.eye(d)) > UNITARY_TOL:
            raise ValueError("matrix is not unitary within tolerance")
        return Unitary(matrix, arity)


# Common gates
I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
CZ = np.diag([1, 1, 1, -1]).astype(complex)
CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


def rx(theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def ry(theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def rz(theta: float) -> np.ndarray:
    return np.array(
        [[np.exp(-1j * theta / 2), 0], [0, np.exp(1j * theta / 2)]], dtype=complex
    )


def _apply_matrix_vec(vecs: np.ndarray, u: np.ndarray, targets: Sequence[int], n: int) -> np.ndarray:
    """Apply a 2^k x 2^k matrix, or a (T, 2^k, 2^k) stack of them, to the
    given wires of every row of a (T, 2^n) batch of vectors."""
    k = len(targets)
    src = [1 + t for t in targets]
    dst = list(range(1, k + 1))
    psi = np.moveaxis(vecs.reshape([-1] + [2] * n), src, dst)
    psi = u @ psi.reshape(len(vecs), 2 ** k, -1)
    psi = np.moveaxis(psi.reshape([-1] + [2] * n), dst, src)
    return psi.reshape(len(psi), -1)


def apply_gate(state: QuantumState, u: Unitary | np.ndarray, targets: Sequence[int]) -> QuantumState:
    if isinstance(u, Unitary):
        mat, arity = u.matrix, u.arity
    else:
        mat = np.asarray(u, dtype=complex)
        arity = int(round(np.log2(mat.shape[0])))
    targets = list(targets)
    if len(targets) != arity:
        raise ValueError(f"gate arity {arity} != {len(targets)} targets")
    if len(set(targets)) != len(targets):
        raise ValueError("duplicate target wire")
    n = state.n_qubits
    if any(t < 0 or t >= n for t in targets):
        raise ValueError("target wire out of range")
    if state.pure:
        out = _apply_matrix_vec(state.data[None], mat, targets, n)[0]
    else:
        # U rho U^dagger in two passes: rho's rows give rho U^dagger, its columns U(.)
        half = _apply_matrix_vec(state.data, mat.conj(), targets, n)
        out = _apply_matrix_vec(half.T, mat, targets, n).T
    return QuantumState(out, state.wires, validate=False)


def add_photon_qubit(state: QuantumState, initial: int = 0) -> QuantumState:
    if not state.pure:
        raise ValueError("photon wires can only be appended to pure states")
    if initial not in (0, 1):
        raise ValueError("initial basis label must be 0 or 1")
    n_photons = sum(1 for w in state.wires if w.kind is RoleKind.PHOTON)
    ket = np.zeros(2, dtype=complex)
    ket[initial] = 1.0
    data = np.kron(state.data, ket)
    return QuantumState(data, state.wires + (photon(n_photons),), validate=False)


_BASIS_ROT = {
    "z": I2,
    "x": H,
    "y": H @ np.diag([1, -1j]).astype(complex),  # maps |+i>,|-i> -> |0>,|1>
}


def project_measure(
    state: QuantumState,
    wire: int,
    basis: str = "z",
    outcome: int | None = None,
    rng: np.random.Generator | None = None,
):
    """Projective measurement of one wire. Returns (outcome, collapsed, probability).

    With `outcome=None` the result is sampled from the Born rule using `rng`,
    which must then be given (ValueError otherwise): one seed sets every
    random draw of a run.
    """
    n = state.n_qubits
    if wire < 0 or wire >= n:
        raise ValueError("wire out of range")
    rot = _BASIS_ROT[basis]
    rotated = apply_gate(state, rot, [wire]) if basis != "z" else state

    diag = np.abs(rotated.data) ** 2 if rotated.pure else np.real(np.diag(rotated.data))
    probs = [float(np.sum(np.take(diag.reshape([2] * n), m, axis=wire))) for m in (0, 1)]

    if outcome is None:
        if rng is None:
            raise ValueError("sampling an outcome needs an rng")
        m = int(rng.random() >= probs[0])
    else:
        m = int(outcome)
        if probs[m] < 1e-12:
            raise ValueError(f"forced outcome {m} has probability ~0")
    p = probs[m]

    proj = np.outer(I2[m], I2[m])
    collapsed = apply_gate(rotated, proj, [wire]).data / (np.sqrt(p) if rotated.pure else p)
    out = QuantumState(collapsed, state.wires, validate=False)
    if basis != "z":
        out = apply_gate(out, rot.conj().T, [wire])
    return m, out, p


def discard_wire(state: QuantumState, wire: int) -> QuantumState:
    """Drop a wire that is in a product |0> or |1> state after measurement."""
    n = state.n_qubits
    if state.pure:
        psi = state.data.reshape([2] * n)
        sub0 = np.take(psi, 0, axis=wire).reshape(-1)
        sub1 = np.take(psi, 1, axis=wire).reshape(-1)
        sub = sub0 if np.linalg.norm(sub0) >= np.linalg.norm(sub1) else sub1
        data = sub / np.linalg.norm(sub)
    else:
        keep = [i for i in range(n) if i != wire]
        return partial_trace(state, keep)
    wires = _renumber([w for i, w in enumerate(state.wires) if i != wire])
    return QuantumState(data, wires, validate=False)


def _renumber(wires):
    counters = {RoleKind.NUCLEAR: 0, RoleKind.PHOTON: 0}
    out = []
    for w in wires:
        if w.kind is RoleKind.ELECTRON:
            out.append(w)
        else:
            out.append(QubitRole(w.kind, counters[w.kind]))
            counters[w.kind] += 1
    return out


def partial_trace(state: QuantumState, keep: Sequence[int]) -> QuantumState:
    keep = list(keep)
    if not keep:
        raise ValueError("must keep at least one wire")
    n = state.n_qubits
    rho = state.density_matrix()
    traced = [i for i in range(n) if i not in keep]
    t = rho.reshape([2] * (2 * n))
    row_perm = keep + traced
    perm = row_perm + [n + i for i in row_perm]
    t = np.transpose(t, perm)
    dk, dt = 2 ** len(keep), 2 ** len(traced)
    t = t.reshape(dk, dt, dk, dt)
    reduced = np.trace(t, axis1=1, axis2=3)
    wires = _renumber([state.wires[i] for i in keep])
    return QuantumState(reduced, wires, validate=False)


def state_fidelity(rho: QuantumState, psi: QuantumState) -> float:
    """sqrt(<psi|rho|psi>) -- note the square-root convention, used throughout."""
    if rho.n_qubits != psi.n_qubits:
        raise ValueError("dimension mismatch")
    if not psi.pure:
        raise ValueError("reference state must be pure")
    vec = psi.data
    overlap = np.real(vec.conj() @ rho.density_matrix() @ vec)
    return float(np.sqrt(max(overlap, 0.0)))


def max_pure_fidelity(rho: QuantumState) -> float:
    """max over pure |a> of sqrt(<a|rho|a>) = sqrt of the largest eigenvalue."""
    mat = rho.density_matrix()
    _check_hermitian(mat)
    lam = np.linalg.eigvalsh(mat)[-1]
    return float(np.sqrt(max(lam, 0.0)))
