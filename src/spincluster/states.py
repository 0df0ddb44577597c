"""Dense pure states over role-labeled wires, and the gates that act on them.

Registers are small (<= ~14 qubits), so everything is plain dense numpy.
Wire 0 is the leftmost tensor factor. States are immutable: every operation
returns a new QuantumState.
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


class QuantumState:
    """Normalised state vector over labeled wires."""

    def __init__(self, data: np.ndarray, wires: Sequence[QubitRole], validate: bool = True):
        data = np.asarray(data, dtype=complex)
        self.wires = tuple(wires)
        n = len(self.wires)
        if data.shape != (2 ** n,):
            raise ValueError(f"state data of shape {data.shape} is not a vector of length 2^{n}")
        self.data = data
        if validate:
            _check_roles(self.wires)
            if abs(np.linalg.norm(data) - 1.0) > 1e-9:
                raise ValueError("pure state is not normalised")

    @property
    def n_qubits(self) -> int:
        return len(self.wires)


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
    given wires of every row of a (T, 2^n) batch of amplitudes. A row may hold
    2^n e entries, e per index of the n wires, which then lead its index.

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
        shape = [rows] + [2] * n + [-1]
        psi = np.moveaxis(vecs.reshape(shape), src, dst).reshape(rows, 2 ** k, -1)
    if np.ndim(u) == 2 and rows >= _GEMM_MIN_ROWS and psi.shape[2] in _GEMM_SPANS:
        psi = u @ psi.transpose(1, 0, 2).reshape(2 ** k, -1)
        psi = psi.reshape(2 ** k, rows, -1).transpose(1, 0, 2)
    else:
        psi = u @ psi
    if not leading:
        psi = np.moveaxis(psi.reshape(shape), dst, src)
    return psi.reshape(rows, -1)


def apply_gate(state: QuantumState, u: np.ndarray, targets: Sequence[int]) -> QuantumState:
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
