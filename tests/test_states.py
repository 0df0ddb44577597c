import numpy as np
import pytest

from spincluster.states import (
    CZ, H, I2, SWAP, X, Z, QuantumState, QubitRole, RoleKind, Unitary,
    add_photon_qubit, apply_gate, discard_wire, electron, max_pure_fidelity,
    nuclear, partial_trace, photon, project_measure, ry, state_fidelity,
)


def _pure(vec, wires):
    return QuantumState(np.asarray(vec, complex), wires)


def _bell():
    return _pure([1, 0, 0, 1] / np.sqrt(2), (photon(0), photon(1)))


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
        rho = QuantumState(np.eye(2) / 2, (electron(),))
        out = apply_gate(rho, H, [0])
        np.testing.assert_allclose(out.data, np.eye(2) / 2, atol=1e-12)
        assert abs(np.trace(out.data) - 1) < 1e-10


class TestRoles:
    def test_two_electrons_rejected(self):
        with pytest.raises(ValueError):
            QuantumState(np.array([1, 0, 0, 0], complex), (electron(), electron()))

    def test_noncontiguous_photons_rejected(self):
        with pytest.raises(ValueError):
            QuantumState(np.array([1, 0, 0, 0], complex), (photon(0), photon(2)))


class TestAddPhoton:
    def test_product_extension(self):
        s = _pure([1, 0], (electron(),))
        out = add_photon_qubit(s, 0)
        assert out.wires == (electron(), photon(0))
        np.testing.assert_allclose(out.data, [1, 0, 0, 0])

    def test_norm_unchanged(self):
        s = _pure([1, 1] / np.sqrt(2), (electron(),))
        out = add_photon_qubit(s, 1)
        assert abs(np.linalg.norm(out.data) - 1) < 1e-12

    def test_photon_counting(self):
        s = _pure([1, 0, 0, 0], (electron(), nuclear(0)))
        for _ in range(4):
            s = add_photon_qubit(s, 0)
        assert s.n_qubits == 6
        assert [w.index for w in s.wires if w.kind is RoleKind.PHOTON] == [0, 1, 2, 3]


class TestMeasure:
    def test_born_rule_on_plus(self):
        s = _pure([1, 1] / np.sqrt(2), (electron(),))
        m, collapsed, p = project_measure(s, 0, "z", outcome=0)
        assert m == 0
        assert abs(p - 0.5) < 1e-12
        np.testing.assert_allclose(collapsed.data, [1, 0], atol=1e-12)

    def test_deterministic_outcome(self):
        s = _pure([0, 1], (electron(),))
        m, _, p = project_measure(s, 0, "z", rng=np.random.default_rng(0))
        assert m == 1 and abs(p - 1) < 1e-12

    def test_sampling_needs_an_rng(self):
        s = _pure(np.array([1, 1]) / np.sqrt(2), (electron(),))
        with pytest.raises(ValueError, match="rng"):
            project_measure(s, 0, "z")

    def test_entangled_collapse(self):
        s = QuantumState(
            np.array([1, 0, 0, 1], complex) / np.sqrt(2), (electron(), photon(0))
        )
        m, collapsed, p = project_measure(s, 0, "z", outcome=0)
        assert abs(p - 0.5) < 1e-12
        np.testing.assert_allclose(collapsed.data, [1, 0, 0, 0], atol=1e-12)

    def test_basis_eigenstates_are_deterministic(self):
        # |+>, |-> in the x basis and |+i>, |-i> in the y basis give 0 and 1
        # with certainty, and are left unchanged
        for basis, phase in (("x", 1), ("y", 1j)):
            for m, sign in ((0, 1), (1, -1)):
                s = _pure(np.array([1, sign * phase]) / np.sqrt(2), (electron(),))
                got, out, p = project_measure(s, 0, basis, outcome=m)
                assert got == m and abs(p - 1) < 1e-12
                np.testing.assert_allclose(out.data, s.data, atol=1e-12)

    def test_zero_probability_forced(self):
        s = _pure([1, 0], (electron(),))
        with pytest.raises(ValueError):
            project_measure(s, 0, "z", outcome=1)


class TestFidelity:
    def test_pure_self(self):
        b = _bell()
        assert abs(state_fidelity(b.to_mixed(), b) - 1) < 1e-12

    def test_maximally_mixed(self):
        rho = QuantumState(np.eye(2) / 2, (electron(),))
        psi = _pure([1, 0], (electron(),))
        assert abs(state_fidelity(rho, psi) - np.sqrt(0.5)) < 1e-12

    def test_direct_mixture(self):
        psi = _pure([1, 0], (electron(),))
        rho = QuantumState(np.diag([0.9, 0.1]).astype(complex), (electron(),))
        assert abs(state_fidelity(rho, psi) - np.sqrt(0.9)) < 1e-12

    def test_orthogonal_sum_bound(self):
        rho = QuantumState(np.diag([0.6, 0.4]).astype(complex), (electron(),))
        p0 = _pure([1, 0], (electron(),))
        p1 = _pure([0, 1], (electron(),))
        total = state_fidelity(rho, p0) ** 2 + state_fidelity(rho, p1) ** 2
        assert total <= 1 + 1e-10

    def test_dimension_mismatch(self):
        rho = QuantumState(np.eye(2) / 2, (electron(),))
        with pytest.raises(ValueError):
            state_fidelity(rho, _bell())


class TestMaxPureFidelity:
    def test_pure(self):
        assert abs(max_pure_fidelity(_bell().to_mixed()) - 1) < 1e-12

    def test_maximally_mixed(self):
        rho = QuantumState(np.eye(2) / 2, (electron(),))
        assert abs(max_pure_fidelity(rho) - np.sqrt(0.5)) < 1e-12

    def test_eigendecomposition(self):
        rho = QuantumState(np.diag([0.75, 0.25]).astype(complex), (electron(),))
        assert abs(max_pure_fidelity(rho) - np.sqrt(0.75)) < 1e-12

    def test_dominates_state_fidelity(self, rng):
        rho = QuantumState(np.diag([0.5, 0.3, 0.15, 0.05]).astype(complex),
                           (electron(), nuclear(0)))
        for _ in range(10):
            v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            v /= np.linalg.norm(v)
            psi = _pure(v, (electron(), nuclear(0)))
            assert max_pure_fidelity(rho) >= state_fidelity(rho, psi) - 1e-12

    def test_non_hermitian_rejected(self):
        bad = np.array([[0.5, 0.4], [0.1, 0.5]], complex)
        s = QuantumState(np.eye(2) / 2, (electron(),))
        s.data = bad  # bypass constructor check to exercise the guard
        s.pure = False
        with pytest.raises(ValueError):
            max_pure_fidelity(s)


class TestPartialTrace:
    def test_bell_reduces_to_mixed(self):
        red = partial_trace(_bell(), [0])
        np.testing.assert_allclose(red.data, np.eye(2) / 2, atol=1e-12)

    def test_keep_everything(self):
        b = _bell()
        red = partial_trace(b, [0, 1])
        np.testing.assert_allclose(red.data, b.density_matrix(), atol=1e-12)

    def test_empty_keep_rejected(self):
        with pytest.raises(ValueError):
            partial_trace(_bell(), [])

    def test_linear_cluster_end_qubit_entropy(self):
        # 3-photon linear cluster: end qubits are maximally entangled with
        # the rest -> 1 bit of entropy each
        from spincluster.protocol import linear_graph_state

        cluster = linear_graph_state(3)
        for end in (0, 2):
            red = partial_trace(cluster, [end])
            lam = np.linalg.eigvalsh(red.data)
            entropy = -np.sum(lam * np.log2(np.clip(lam, 1e-300, 1)))
            assert abs(entropy - 1.0) < 1e-9

    def test_trace_preserved(self):
        red = partial_trace(_bell(), [1])
        assert abs(np.trace(red.data).real - 1) < 1e-12


class TestDiscardAndUnitary:
    def test_discard_measured_wire(self):
        s = _pure([0, 0, 1, 0], (electron(), photon(0)))  # |1>|0>
        out = discard_wire(s, 0)
        assert out.wires == (photon(0),)
        np.testing.assert_allclose(out.data, [1, 0])

    def test_unitary_validation(self):
        with pytest.raises(ValueError):
            Unitary.of(np.array([[1, 1], [0, 1]], complex))
        u = Unitary.of(H)
        assert u.arity == 1
