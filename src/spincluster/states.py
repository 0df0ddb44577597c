"""Dense states over role-labeled wires, gates on state vectors, and the
fidelities of mixed states.

Registers are small (<= ~14 qubits), so everything is plain dense numpy.
Wire 0 is the leftmost tensor factor. States are immutable: every operation
returns a new QuantumState. Gates act on pure states; a density matrix is
an output (a noisy run's rho, a dephased emission pair) that is only read.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np


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

    def _check_normalisation(self):
        if self.pure:
            if abs(np.linalg.norm(self.data) - 1.0) > 1e-9:
                raise ValueError("pure state is not normalised")
        else:
            if abs(np.trace(self.data).real - 1.0) > 1e-9:
                raise ValueError("density matrix trace != 1")
            _check_hermitian(self.data)

    def density_matrix(self) -> np.ndarray:
        if self.pure:
            return np.outer(self.data, self.data.conj())
        return self.data


# Common gates
I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
CZ = np.diag([1, 1, 1, -1]).astype(complex)
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


# One GEMM for a shared matrix pays two transposing copies to save one small
# GEMM call per row. With single-threaded OpenBLAS on a 2-core x86-64 VM it
# was faster from about 10 rows while each row holds at most 32 amplitudes
# per matrix index; at 128 the copies cost more than the calls they save.
# Below 4 amplitudes the per-row product runs another BLAS kernel, whose
# last bits differ from the GEMM's.
_GEMM_MIN_ROWS = 16
_GEMM_SPANS = range(4, 33)


def _apply_matrix_vec(vecs: np.ndarray, u: np.ndarray, targets: Sequence[int], n: int) -> np.ndarray:
    """Apply a 2^k x 2^k matrix, or a (T, 2^k, 2^k) stack of them, to the
    given wires of every row of a (T, 2^n) batch of vectors.

    Targets that are already the leading wires need no axis moves. A shared
    2-D matrix on short rows is one GEMM over all T rows rather than T
    small ones, on the spans where that is faster and bit for bit the
    stacked product."""
    k, rows = len(targets), len(vecs)
    leading = list(targets) == list(range(k))
    if leading:
        psi = vecs.reshape(rows, 2 ** k, -1)
    else:
        src = [1 + t for t in targets]
        dst = list(range(1, k + 1))
        psi = np.moveaxis(vecs.reshape([-1] + [2] * n), src, dst).reshape(rows, 2 ** k, -1)
    if np.ndim(u) == 2 and rows >= _GEMM_MIN_ROWS and psi.shape[2] in _GEMM_SPANS:
        psi = u @ psi.transpose(1, 0, 2).reshape(2 ** k, -1)
        psi = psi.reshape(2 ** k, rows, -1).transpose(1, 0, 2)
    else:
        psi = u @ psi
    if not leading:
        psi = np.moveaxis(psi.reshape([-1] + [2] * n), dst, src)
    return psi.reshape(rows, -1)


def apply_gate(state: QuantumState, u: np.ndarray, targets: Sequence[int]) -> QuantumState:
    if not state.pure:
        raise ValueError("gates apply to pure states only")
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
    out = _apply_matrix_vec(state.data[None], mat, targets, n)[0]
    return QuantumState(out, state.wires, validate=False)


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
