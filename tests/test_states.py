import numpy as np
import pytest

from spincluster.protocol import emit_photon
from spincluster.states import (
    CZ, H, I2, SWAP, X, QuantumState, RoleKind, apply_gate, electron, nuclear,
    photon, ry,
)


def _pure(vec, wires):
    return QuantumState(np.asarray(vec, complex), wires)


class TestApplyGate:
    def test_x_flips(self):
        s = _pure([1, 0], (electron(),))
        out = apply_gate(s, X, [0])
        np.testing.assert_allclose(out.data, [0, 1])

    def test_identity(self, rng):
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        v /= np.linalg.norm(v)
        s = _pure(v, (electron(), nuclear(0)))
        out = apply_gate(s, np.kron(I2, I2), [0, 1])
        np.testing.assert_allclose(out.data, v)

    def test_cz_on_plus_plus(self):
        s = _pure([0.5, 0.5, 0.5, 0.5], (electron(), nuclear(0)))
        out = apply_gate(s, CZ, [0, 1])
        np.testing.assert_allclose(out.data, [0.5, 0.5, 0.5, -0.5])

    def test_norm_preserved_random(self, rng):
        v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        v /= np.linalg.norm(v)
        s = _pure(v, (electron(), nuclear(0), nuclear(1)))
        for targets, gate in (([1], H), ([0, 2], CZ), ([2, 1], SWAP)):
            s = apply_gate(s, gate, targets)
        assert abs(np.linalg.norm(s.data) - 1) < 1e-10

    def test_disjoint_targets_commute(self, rng):
        v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        v /= np.linalg.norm(v)
        s = _pure(v, (electron(), nuclear(0), nuclear(1)))
        ab = apply_gate(apply_gate(s, H, [0]), ry(0.7), [2])
        ba = apply_gate(apply_gate(s, ry(0.7), [2]), H, [0])
        assert np.linalg.norm(ab.data - ba.data) < 1e-10

    def test_duplicate_target_rejected(self):
        s = _pure([1, 0, 0, 0], (electron(), nuclear(0)))
        with pytest.raises(ValueError):
            apply_gate(s, CZ, [0, 0])

    def test_arity_mismatch_rejected(self):
        s = _pure([1, 0, 0, 0], (electron(), nuclear(0)))
        with pytest.raises(ValueError):
            apply_gate(s, CZ, [0])

    def test_mixed_state_application(self):
        # gates act on state vectors, and a state is one: a density matrix
        # is refused before a gate can meet it
        with pytest.raises(ValueError, match="not a vector of length 2"):
            QuantumState(np.eye(2) / 2, (electron(),))


class TestRoles:
    def test_two_electrons_rejected(self):
        with pytest.raises(ValueError):
            QuantumState(np.array([1, 0, 0, 0], complex), (electron(), electron()))

    def test_noncontiguous_photons_rejected(self):
        with pytest.raises(ValueError):
            QuantumState(np.array([1, 0, 0, 0], complex), (photon(0), photon(2)))


class TestAddPhoton:
    # a photon joins the register through emit_photon, which appends it in
    # |0> and copies the electron's z value onto it
    def test_product_extension(self):
        s = _pure([1, 0], (electron(),))
        out = emit_photon(s)
        assert out.wires == (electron(), photon(0))
        np.testing.assert_allclose(out.data, [1, 0, 0, 0])

    def test_norm_unchanged(self):
        s = _pure([1, 1] / np.sqrt(2), (electron(),))
        out = emit_photon(s)
        assert abs(np.linalg.norm(out.data) - 1) < 1e-12

    def test_photon_counting(self):
        s = _pure([1, 0, 0, 0], (electron(), nuclear(0)))
        for _ in range(4):
            s = emit_photon(s)
        assert s.n_qubits == 6
        assert [w.index for w in s.wires if w.kind is RoleKind.PHOTON] == [0, 1, 2, 3]


class TestPartialTrace:
    def test_linear_cluster_end_qubit_entropy(self):
        # 3-photon linear cluster: end qubits are maximally entangled with
        # the rest -> 1 bit of entropy each. The end qubit's reduced state
        # has the squared Schmidt values of the (2, 4) split as eigenvalues.
        from spincluster.protocol import linear_graph_state

        cluster = linear_graph_state(3)
        for end in (0, 2):
            amps = np.moveaxis(cluster.data.reshape(2, 2, 2), end, 0)
            lam = np.linalg.svd(amps.reshape(2, -1), compute_uv=False) ** 2
            entropy = -np.sum(lam * np.log2(np.clip(lam, 1e-300, 1)))
            assert abs(entropy - 1.0) < 1e-9
