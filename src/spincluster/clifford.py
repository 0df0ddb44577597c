"""Stabiliser tableau of the ideal-gate schedule, the completion
corrections it gives exactly (Aaronson & Gottesman, PRA 70, 052328 (2004)),
and an exact local-Clifford equivalence test of two stabiliser states.

Only what that schedule does is supported: the RY_PROTO rotation ry(-pi/2),
CZ and SWAP on register wires, and the emission of a photon in |0> followed
by a CNOT from wire 0 onto it. Row i of the tableau is stabiliser generator
i: bool x and z parts over the wires, in the executor's wire order (spins,
then photons in emission order), and a sign bit; (x, z) = (1, 1) on a wire
is Y.
"""
from __future__ import annotations

import copy

import numpy as np


def _phase_exponent(x1, z1, x2, z2) -> int:
    """Power of i in the product of the Paulis (x1, z1) and (x2, z2), summed
    over wires (the function g of Aaronson & Gottesman)."""
    x1, z1, x2, z2 = (np.asarray(v, dtype=int) for v in (x1, z1, x2, z2))
    g = np.where(
        x1 & z1, z2 - x2,
        np.where(x1, z2 * (2 * x2 - 1), np.where(z1, x2 * (1 - 2 * z2), 0)),
    )
    return int(g.sum())


class Tableau:
    """Stabiliser generators of a pure register state, starting from |0...0>,
    or from |1...1> with `ones`."""

    def __init__(self, n: int, ones: bool = False):
        self.x = np.zeros((n, n), dtype=bool)
        self.z = np.eye(n, dtype=bool)
        self.r = np.full(n, ones)

    @classmethod
    def graph(cls, adjacency) -> "Tableau":
        """Graph state: generator k is X_k times Z on the neighbours of k."""
        tab = cls(len(adjacency))
        tab.x, tab.z = tab.z, np.array(adjacency, dtype=bool)
        return tab

    def ry(self, a: int):
        """ry(-pi/2) on wire a: X -> Z, Z -> -X, Y -> Y."""
        x, z = self.x[:, a].copy(), self.z[:, a].copy()
        self.r ^= z & ~x
        self.x[:, a], self.z[:, a] = z, x

    def cz(self, a: int, b: int):
        xa, xb = self.x[:, a], self.x[:, b]
        self.r ^= xa & xb & (self.z[:, a] ^ self.z[:, b])
        self.z[:, a] ^= xb
        self.z[:, b] ^= xa

    def swap(self, a: int, b: int):
        self.x[:, [a, b]] = self.x[:, [b, a]]
        self.z[:, [a, b]] = self.z[:, [b, a]]

    def emit(self):
        """Append a photon in |0> (generator Z_new) and CNOT wire 0 onto it:
        X_0 -> X_0 X_new, Z_new -> Z_0 Z_new, no sign changes."""
        n = len(self.r)
        x, z = np.zeros((2, n + 1, n + 1), dtype=bool)
        x[:n, :n], z[:n, :n] = self.x, self.z
        x[:n, n] = self.x[:, 0]
        z[n, [0, n]] = True
        self.x, self.z, self.r = x, z, np.append(self.r, False)

    def run(self, items) -> "Tableau":
        """Apply the gate and emit items of an ideal-gate schedule."""
        for item in items:
            if item.kind == "emit":
                self.emit()
            elif item.kind == "gate":
                getattr(self, item.gate)(*item.wires)
        return self

    def _multiply(self, h: int, i: int):
        """Generator h becomes generator i times generator h, sign included."""
        e = 2 * (int(self.r[h]) + int(self.r[i])) + _phase_exponent(
            self.x[i], self.z[i], self.x[h], self.z[h]
        )
        self.r[h] = e % 4 == 2
        self.x[h] ^= self.x[i]
        self.z[h] ^= self.z[i]

    def echelon(self, cols) -> list:
        """Bring the generators to row echelon form on the columns `cols` of
        [x | z], taken in that order, by multiplying generators together (the
        stabiliser group is unchanged). Returns the pivot column of each of
        the leading rows."""
        pivots = []
        for c in cols:
            k = len(pivots)
            rows = k + np.flatnonzero(np.hstack([self.x, self.z])[k:, c])
            if not rows.size:
                continue
            for a in (self.x, self.z, self.r):
                a[[k, rows[0]]] = a[[rows[0], k]]
            for h in rows[1:]:
                self._multiply(h, k)
            pivots.append(c)
        return pivots


def completion_corrections(tab: Tableau, m: int):
    """Photon Pauli corrections of a z measurement of wires 0..m-1, and the
    photons' tableau in the all-|1> branch.

    Branch o is reachable iff o xor 1...1 lies in the GF(2) span of the spin
    x parts of the stabilisers. A stabiliser P (x) Q whose spin x part is
    o xor 1...1 gives <1...1|P (x) Q|psi> = <1...1|psi>, so its photon part
    Q maps branch o onto the all-|1> branch up to phase. Q is the first
    combination that forward elimination over the generators, in schedule
    order, finds. The generators past the spin x pivots have no spin x part;
    their photon parts, each sign times <1...1|spin Z part|1...1>, stabilise
    the all-|1> branch.

    Returns ({outcome bits: (x, z) bool photon parts of Q, or None for a
    branch of probability zero}, branch Tableau). Raises ValueError if the
    all-|1> branch has probability zero."""
    tab = copy.deepcopy(tab)
    n = len(tab.r)
    photons = [*range(m, n), *range(n + m, 2 * n)]
    pivots = tab.echelon([*range(m), *photons])
    k = sum(c < m for c in pivots)
    # <1...1|(-1)^r Z^z|1...1> = (-1)^(r + |z|) for a row with no spin x part
    signs = tab.r ^ (tab.z[:, :m].sum(axis=1) % 2 == 1)
    # the rows past the pivots are +-Z strings on the spins alone, which the
    # all-|1> outcome must satisfy
    if np.any(signs[len(pivots):]):
        raise ValueError("all-|1> completion branch has zero probability")
    out = {}
    for bits in np.ndindex(*(2,) * m):
        d = ~np.array(bits, dtype=bool)
        qx, qz = np.zeros(n - m, dtype=bool), np.zeros(n - m, dtype=bool)
        for row, c in enumerate(pivots[:k]):
            if d[c]:
                d ^= tab.x[row, :m]
                qx ^= tab.x[row, m:]
                qz ^= tab.z[row, m:]
        out[bits] = None if d.any() else (qx, qz)
    branch, rows = Tableau(n - m), slice(k, len(pivots))
    branch.x, branch.z, branch.r = tab.x[rows, m:], tab.z[rows, m:], signs[rows]
    return out, branch


def _nullspace(a: np.ndarray) -> np.ndarray:
    """Rows spanning the GF(2) nullspace of the bool matrix `a`: the rows of
    I that forward elimination of [a^T | I] leaves beside zero rows."""
    t, k = np.hstack([a.T, np.eye(a.shape[1], dtype=bool)]), 0
    for c in range(a.shape[0]):
        rows = k + np.flatnonzero(t[k:, c])
        if rows.size:
            t[[k, rows[0]]] = t[[rows[0], k]]
            t[rows[1:]] ^= t[k]
            k += 1
    return t[k:, a.shape[0]:]


def lc_equivalence(a: Tableau, b: Tableau):
    """Per-qubit GF(2) maps Q_i = (a_i b_i; c_i d_i) of the (x, z) parts,
    a bool (n, 2, 2) array, that take the stabilisers of `a` onto those of
    `b` up to sign; None if the states are not local-Clifford equivalent
    (Van den Nest, Dehaene & De Moor, PRA 70, 034302 (2004)).

    Q does so iff every stabiliser of `b` commutes with Q applied to every
    stabiliser of `a`: n^2 linear equations in 4n unknowns. Invertibility,
    a_i d_i + b_i c_i = 1, couples one qubit's unknowns only, so the search
    splits over blocks of qubits that share a nullspace basis vector: all of
    a block of dimension <= 4, else its basis vectors and their pairwise
    sums (Bouchet, Combinatorica 11, 315 (1991))."""
    if a.x.shape != b.x.shape:
        raise ValueError("qubit counts differ")
    n = len(a.r)
    # <s2, Q s1> = sum_i z2 (a x1 + b z1) + x2 (c x1 + d z1) over row pairs
    eqs = np.einsum("pji,qki->jkpqi", np.stack([b.z, b.x]), np.stack([a.x, a.z]))
    basis = _nullspace(eqs.reshape(n * n, 4 * n))
    support = basis.reshape(-1, 4, n).any(axis=1)
    # blocks: qubits joined by shared vectors, by union-find on their roots;
    # a qubit in none is a block of its own and must map to 0
    root = list(range(n))

    def find(q):
        while root[q] != q:
            root[q] = root[root[q]]
            q = root[q]
        return q

    for first, *rest in map(np.flatnonzero, support):
        for q in rest:
            root[find(q)] = find(first)
    block = np.array([find(q) for q in range(n)])
    found = np.zeros(4 * n, dtype=bool)
    for qubits in block == np.unique(block)[:, None]:
        vecs = basis[support[:, qubits].any(axis=1)]
        if len(vecs) <= 4:
            combos = np.arange(2 ** len(vecs))[:, None] >> np.arange(len(vecs)) & 1
            cands = (combos @ vecs) % 2 == 1
        else:
            i, j = np.triu_indices(len(vecs), 1)
            cands = np.vstack([vecs, vecs[i] ^ vecs[j]])
        qa, qb, qc, qd = cands.reshape(-1, 4, n).transpose(1, 0, 2)
        ok = ((qa & qd) ^ (qb & qc))[:, qubits].all(axis=1)
        if not ok.any():
            return None
        found ^= cands[ok.argmax()]
    return found.reshape(4, n).T.reshape(n, 2, 2)
