import numpy as np
import pytest

from references import dephased_state, emission_fidelity_numeric
from spincluster.emission import (
    EmissionParams, coherence_magnitude, colour_encoding_floor, emission_fidelity,
)


class TestParams:
    def test_direct_route(self):
        # delta_omega is angular (rad/s) and enters as delta_omega * tau, with
        # no 2 pi: at delta_omega = 1 / tau the coherence drops by 1/sqrt(2)
        p = EmissionParams(tau=1.7e-9, delta_omega=1 / 1.7e-9)
        assert abs(coherence_magnitude(p) - 0.5 / np.sqrt(2)) < 1e-12

    def test_hz_convention(self):
        # a splitting quoted in Hz enters as 2 pi f; it is stored as given
        f, tau = 3e9 / (2 * np.pi), 1.7e-9
        p = EmissionParams(tau=tau, delta_omega=2 * np.pi * f)
        assert p.delta_omega == 2 * np.pi * f
        x = 2 * np.pi * f * tau
        assert abs(emission_fidelity(p) - np.sqrt(0.5 * (1 + 1 / np.sqrt(1 + x * x)))) < 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            EmissionParams(tau=0.0, delta_omega=1e9)
        with pytest.raises(TypeError):
            EmissionParams(tau=1e-9)
        with pytest.raises(ValueError):
            EmissionParams(tau=1e-9, delta_omega=-1e9)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="lifetime must be finite"):
                EmissionParams(tau=bad, delta_omega=1e9)
            with pytest.raises(ValueError, match="delta_omega must be finite"):
                EmissionParams(tau=1e-9, delta_omega=bad)


class TestFidelity:
    def test_closed_form_vs_quadrature(self):
        for x in np.geomspace(1e-3, 100, 12):
            p = EmissionParams(tau=1.0, delta_omega=float(x))
            assert abs(emission_fidelity(p) - emission_fidelity_numeric(p)) < 1e-8

    def test_zero_mismatch_limit(self):
        p = EmissionParams(tau=1.7e-9, delta_omega=0.0)
        assert abs(emission_fidelity(p) - 1.0) < 1e-12

    def test_large_mismatch_limit(self):
        p = EmissionParams(tau=1.0, delta_omega=1e12)
        assert abs(emission_fidelity(p) - np.sqrt(0.5)) < 1e-6

    def test_depends_only_on_product(self):
        # omega * tau is the only scale in the problem
        base = emission_fidelity(EmissionParams(tau=1.7e-9, delta_omega=3e9))
        for a in (2.0, 10.0):
            scaled = emission_fidelity(
                EmissionParams(tau=1.7e-9 / a, delta_omega=3e9 * a)
            )
            assert abs(scaled - base) < 1e-12

    def test_strictly_decreasing(self):
        xs = np.linspace(0, 20, 20)
        fs = [emission_fidelity(EmissionParams(tau=1.0, delta_omega=float(x)))
              for x in xs]
        assert all(a > b for a, b in zip(fs, fs[1:]))

    def test_siv_working_point(self):
        # 1.7 ns lifetime, 3e9 rad/s branch mismatch
        p = EmissionParams(tau=1.7e-9, delta_omega=3e9)
        f = emission_fidelity(p)
        assert abs(f - 0.7721) < 5e-4
        assert abs(f - 0.8) < 0.05


class TestDephasedState:
    def test_structure(self):
        rho = dephased_state(EmissionParams(tau=1.0, delta_omega=2.0))
        assert abs(np.trace(rho) - 1) < 1e-9
        assert abs(rho[0, 0] - 0.5) < 1e-9 and abs(rho[3, 3] - 0.5) < 1e-9
        assert abs(rho[1, 1]) < 1e-12 and abs(rho[2, 2]) < 1e-12
        np.testing.assert_allclose(rho, rho.conj().T, atol=1e-12)

    def test_coherence_magnitude(self):
        for x in (0.0, 0.5, 3.0):
            p = EmissionParams(tau=1.0, delta_omega=x)
            rho = dephased_state(p)
            assert abs(abs(rho[0, 3]) - coherence_magnitude(p)) < 1e-9
            assert abs(coherence_magnitude(p) - 0.5 / np.sqrt(1 + x * x)) < 1e-12

    def test_coherence_phase(self):
        # the exponential average tilts the coherence into the imaginary axis
        p = EmissionParams(tau=1.0, delta_omega=1.0)
        rho = dephased_state(p)
        assert abs(rho[3, 0] - (0.25 + 0.25j)) < 1e-9


class TestColourFloor:
    def test_floor_value(self):
        p = EmissionParams(tau=1.7e-9, delta_omega=3e9)
        floor = colour_encoding_floor(p)
        expect = np.sqrt(0.5 * (1 + 1 / np.sqrt(1 + (2 * np.pi) ** 2)))
        assert abs(floor - expect) < 1e-12
        assert abs(floor - 0.7607) < 5e-4

    def test_floor_independent_of_mismatch(self):
        a = colour_encoding_floor(EmissionParams(tau=1.7e-9, delta_omega=1e9))
        b = colour_encoding_floor(EmissionParams(tau=1.7e-9, delta_omega=9e9))
        assert abs(a - b) < 1e-12
