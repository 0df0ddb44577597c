import warnings

import numpy as np
import pytest

from references import evolve, propagator_expm
from spincluster.hamiltonian import (
    GAMMA_N_SI29, PrecessionAxes, SecularApproximationWarning, SpinSystemParams,
    free_hamiltonian, precession_axes, propagator, resonance_spacing,
)
from spincluster.states import I2, QuantumState, X, Y, Z, electron, nuclear


def _kron_oracle(p, include_a_perp=False):
    # independent construction, term by term, for cross-checking
    bx, by, bz = p.b_field
    h = p.a_par * np.kron(Z, Z) / 4
    h = h + p.gamma_n * (bx * np.kron(I2, X) + by * np.kron(I2, Y) + bz * np.kron(I2, Z)) / 2
    if include_a_perp:
        h = h + p.a_perp * (np.kron(X, X) + np.kron(Y, Y)) / 4
    return h


class TestHamiltonianMatrix:
    def test_matches_independent_construction(self, siv):
        for a_perp in (False, True):
            h = free_hamiltonian(siv, include_a_perp=a_perp)
            np.testing.assert_allclose(h, _kron_oracle(siv, a_perp), atol=1e-3)

    def test_hermitian(self, siv):
        h = free_hamiltonian(siv, include_a_perp=True)
        np.testing.assert_allclose(h, h.conj().T, atol=1e-6)

    def test_axial_field_is_diagonal(self):
        p = SpinSystemParams(a_par=70e6, b_field=(0.0, 0.0, 0.6))
        h = free_hamiltonian(p)
        np.testing.assert_allclose(h, np.diag(np.diag(h)), atol=1e-9)

    def test_decoupled_limit(self):
        # vanishing hyperfine: only the nuclear Zeeman term remains, and it
        # leaves the electron alone
        p = SpinSystemParams(a_par=1e-6, b_field=(0.3, 0.0, 0.6))
        h = free_hamiltonian(p)
        expect = GAMMA_N_SI29 * np.kron(I2, 0.3 * X + 0.6 * Z) / 2
        np.testing.assert_allclose(h, expect, atol=1e-3)

    def test_eigenvalues_axial(self):
        # diagonal case: E(ms, mi) = A*ms*mi/4 + gn*Bz*mi/2
        a, gn, bz = 70e6, -8.465e6, 0.6
        p = SpinSystemParams(a_par=a, gamma_n=gn, b_field=(0.0, 0.0, bz))
        h = free_hamiltonian(p)
        expect = sorted(
            a * ms * mi / 4 + gn * bz * mi / 2
            for ms in (+1, -1) for mi in (+1, -1)
        )
        np.testing.assert_allclose(np.linalg.eigvalsh(h), expect, rtol=1e-12)

    def test_a_perp_mixing_shrinks_with_field(self):
        # the flip-flop terms are increasingly off-resonant as the nuclear
        # Zeeman splitting grows, so the eigenstates approach product states
        mixing = []
        for scale in (1.0, 4.0, 16.0):
            p = SpinSystemParams(a_par=70e6, a_perp=70e6,
                                 b_field=(0.0, 0.0, 0.6 * scale))
            h = free_hamiltonian(p, include_a_perp=True)
            _, vecs = np.linalg.eigh(h)
            mixing.append(1.0 - np.min(np.max(np.abs(vecs), axis=0)))
        assert mixing[0] > mixing[1] > mixing[2]

    def test_secular_warning_at_working_point(self, siv):
        assert not siv.secular_valid
        with pytest.warns(SecularApproximationWarning):
            with warnings.catch_warnings():
                warnings.simplefilter("always")
                free_hamiltonian(siv)

    def test_no_warning_for_small_transverse_field(self):
        p = SpinSystemParams(a_par=70e6, b_field=(0.01, 0.0, 0.6))
        assert p.secular_valid
        with warnings.catch_warnings():
            warnings.simplefilter("error", SecularApproximationWarning)
            free_hamiltonian(p)

    def test_invalid_a_par(self):
        for a_par in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="a_par must be finite and positive"):
                SpinSystemParams(a_par=a_par)

    def test_free_hamiltonian_drops_drive(self, siv):
        # no term flips the electron but the optional a_perp flip-flop
        h = free_hamiltonian(siv)
        assert np.all(h[:2, 2:] == 0) and np.all(h[2:, :2] == 0)
        h = free_hamiltonian(siv, include_a_perp=True)
        flip_flop = siv.a_perp * (np.kron(X, X) + np.kron(Y, Y)) / 4
        np.testing.assert_allclose(h[:2, 2:], flip_flop[:2, 2:], atol=1e-6)

    def test_drive_commutator(self):
        # with no drive term the free Hamiltonian conserves electron z
        p = SpinSystemParams(a_par=70e6, a_perp=0.0, b_field=(0.6, 0.0, 0.6))
        h = free_hamiltonian(p)
        sz = np.kron(Z, I2)
        assert np.linalg.norm(h @ sz - sz @ h) < 1e-6


class TestPrecessionAxes:
    def test_formula(self, siv):
        axes = precession_axes(siv)
        gn, (bx, _, bz), a = siv.gamma_n, siv.b_field, siv.a_par
        np.testing.assert_allclose(
            axes.omega_plus, 2 * np.pi * np.array([gn * bx / 2, 0, gn * bz / 2 + a / 4]))
        np.testing.assert_allclose(
            axes.omega_minus, 2 * np.pi * np.array([gn * bx / 2, 0, gn * bz / 2 - a / 4]))

    def test_working_point_nearly_antiparallel(self, siv):
        # |gn * B| << A/2, so the hyperfine term dominates both axes
        axes = precession_axes(siv)
        assert axes.antiparallel

    def test_weak_coupling_parallel(self):
        p = SpinSystemParams(a_par=1e3, gamma_n=-8.465e6, b_field=(0.1, 0.0, 0.1))
        assert not precession_axes(p).antiparallel

    def test_by_rejected(self):
        p = SpinSystemParams(a_par=70e6, b_field=(0.1, 0.2, 0.5))
        with pytest.raises(ValueError):
            precession_axes(p)


class TestResonanceSpacing:
    def test_harmonic_ratios(self, siv):
        t1 = resonance_spacing(siv, 1, "conditional")
        t2 = resonance_spacing(siv, 2, "conditional")
        u1 = resonance_spacing(siv, 1, "unconditional")
        u3 = resonance_spacing(siv, 3, "unconditional")
        assert abs(t2 / t1 - 3.0) < 1e-12
        assert abs(u1 / t1 - 2.0) < 1e-12
        assert abs(u3 / u1 - 3.0) < 1e-12

    def test_working_point_magnitudes(self, siv):
        # A_par = 70 MHz dominates: spacing ~ pi / (2 pi A/2) = 1/A ~ 10 ns
        # scale, pushed to ~100 ns by the nuclear Zeeman contribution
        t1 = resonance_spacing(siv, 1, "conditional")
        assert 5e-8 < t1 < 2e-7

    def test_invalid_arguments(self, siv):
        with pytest.raises(ValueError):
            resonance_spacing(siv, 0, "conditional")
        with pytest.raises(ValueError):
            resonance_spacing(siv, 1, "sideways")
        degenerate = SpinSystemParams(a_par=70e6, gamma_n=0.0,
                                      b_field=(0.0, 0.0, 0.0))
        # a_par alone gives |w+| = |w-|: antiparallel axes of equal length
        with pytest.raises(ValueError):
            resonance_spacing(degenerate, 1, "conditional")

    def test_scan_locates_conditional_spacing(self, siv):
        # brute-force oracle: scan the interpulse spacing and locate the
        # points where the two electron-conditional nuclear rotations of one
        # decoupling unit coincide; the first-harmonic conditional spacing
        # must sit on such a point
        from spincluster.synthesis import UnitCompiler, dd_unit

        comp = UnitCompiler(siv)

        def conditionality(tau):
            u = dd_unit(tau, comp)
            assert np.linalg.norm(u[:2, 2:]) < 1e-9  # block diagonal
            return 1.0 - abs(np.trace(u[:2, :2].conj().T @ u[2:, 2:])) / 2.0

        t1 = resonance_spacing(siv, 1, "conditional")
        grid = np.linspace(0.5 * t1, 2.5 * t1, 4001)
        vals = np.array([conditionality(t) for t in grid])
        zeros = [grid[i] for i in range(1, len(grid) - 1)
                 if vals[i] <= vals[i - 1] and vals[i] <= vals[i + 1]
                 and vals[i] < 1e-4]
        assert zeros, "no conditionality zeros found in scan"
        nearest = min(zeros, key=lambda z: abs(z - t1))
        assert abs(nearest - t1) / t1 < 0.01
        # exactly on the analytic spacing the blocks agree to rounding
        assert conditionality(t1) < 1e-6


class TestPropagator:
    def test_identity_at_zero(self, siv):
        h = free_hamiltonian(siv)
        np.testing.assert_allclose(propagator(h, 0.0), np.eye(4), atol=1e-12)

    def test_unitary(self, siv):
        u = propagator(free_hamiltonian(siv), 3.7e-8)
        np.testing.assert_allclose(u @ u.conj().T, np.eye(4), atol=1e-10)

    def test_semigroup(self, siv):
        h = free_hamiltonian(siv)
        u = propagator(h, 2e-8) @ propagator(h, 5e-8)
        np.testing.assert_allclose(u, propagator(h, 7e-8), atol=1e-10)

    def test_matches_expm(self, siv):
        h = free_hamiltonian(siv, include_a_perp=True)
        np.testing.assert_allclose(propagator(h, 1.3e-8),
                                   propagator_expm(h, 1.3e-8), atol=1e-9)

    def test_two_pi_convention(self):
        # H = f * Z/2 in Hz returns to identity after t = 1/f
        h = 1e6 * Z / 2
        u = propagator(h, 1e-6)
        assert abs(abs(np.trace(u)) - 2.0) < 1e-10

    def test_negative_time_rejected(self, siv):
        with pytest.raises(ValueError):
            propagator(free_hamiltonian(siv), -1e-9)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            propagator(np.array([[0, 1], [0, 0]], complex), 1e-9)

    def test_evolve_targets(self, siv):
        h = free_hamiltonian(siv)
        s = QuantumState(np.array([1, 0, 0, 0], complex), (electron(), nuclear(0)))
        out = evolve(s, h, 5e-8)
        assert abs(np.linalg.norm(out.data) - 1) < 1e-10
        # evolving a subsystem of a larger register
        s3 = QuantumState(np.kron([1, 0, 0, 0], [1, 0]).astype(complex),
                          (electron(), nuclear(0), nuclear(1)))
        out3 = evolve(s3, h, 5e-8, targets=[0, 1])
        np.testing.assert_allclose(out3.data[0::2], out.data, atol=1e-10)

    def test_gamma_n_default(self):
        assert abs(GAMMA_N_SI29 + 8.465e6) < 1.0
