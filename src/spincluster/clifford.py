"""Stabiliser tableau of the ideal-gate schedule and the completion
corrections it gives exactly (Aaronson & Gottesman, PRA 70, 052328 (2004)).

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


def completion_corrections(tab: Tableau, m: int) -> dict:
    """Photon Pauli corrections of a z measurement of wires 0..m-1.

    Branch o is reachable iff o xor 1...1 lies in the GF(2) span of the spin
    x parts of the stabilisers. A stabiliser P (x) Q whose spin x part is
    o xor 1...1 gives <1...1|P (x) Q|psi> = <1...1|psi>, so its photon part
    Q maps branch o onto the all-|1> branch up to phase. Q is the first
    combination that forward elimination over the generators, in schedule
    order, finds.

    Returns {outcome bits: (x, z) bool photon parts of Q, or None for a
    branch of probability zero}. Raises ValueError if the all-|1> branch has
    probability zero."""
    tab = copy.deepcopy(tab)
    n = len(tab.r)
    photons = [*range(m, n), *range(n + m, 2 * n)]
    pivots = tab.echelon([*range(m), *photons])
    k = sum(c < m for c in pivots)
    # the rows past the pivots are +-Z strings on the spins alone, which the
    # all-|1> outcome must satisfy: <1...1|(-1)^r Z^z|1...1> = (-1)^(r + |z|)
    rest = slice(len(pivots), None)
    if np.any(tab.r[rest] ^ (tab.z[rest, :m].sum(axis=1) % 2 == 1)):
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
    return out
