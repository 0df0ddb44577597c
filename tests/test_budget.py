import contextlib
import warnings

import numpy as np
import pytest

from spincluster.budget import (
    EfficiencyBudget, FidelityBudget, extrapolated_fidelity, generation_rate,
    minimize_sequence_field,
)
from spincluster.hamiltonian import (
    SecularApproximationWarning, SpinSystemParams, resonance_spacing,
)


class TestEfficiencyBudget:
    def test_combined_product(self):
        e = EfficiencyBudget(0.9, 0.8, 0.7, 0.6)
        assert abs(e.combined - 0.9 * 0.8 * 0.7 * 0.6) < 1e-15

    def test_from_combined(self):
        e = EfficiencyBudget.from_combined(0.85)
        assert abs(e.combined - 0.85) < 1e-15

    def test_range_validation(self):
        with pytest.raises(ValueError):
            EfficiencyBudget(1.2, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            EfficiencyBudget(0.9, -0.1, 1.0, 1.0)


class TestExtrapolation:
    def test_ten_photon_example(self):
        # 2x5 lattice with per-component values 0.999 / 0.998 / 0.94
        b = FidelityBudget(f_prep=0.999, f_block=0.998, f_photon_gate=0.94,
                           m=2, n=5)
        f = extrapolated_fidelity(b)
        assert abs(f - 0.999 * 0.998 ** 5 * 0.94 ** 10) < 1e-12
        assert abs(f - 0.533) < 1e-3
        assert f > 0.5

    def test_fifty_column_spin_only(self):
        # unit photon fidelity isolates the spin-gate contribution
        b = FidelityBudget(f_prep=0.999, f_block=0.998, f_photon_gate=1.0,
                           m=2, n=50)
        f = extrapolated_fidelity(b)
        assert abs(f - 0.999 * 0.998 ** 50) < 1e-12
        assert abs(f - 0.904) < 1e-3
        assert f > 0.90

    def test_multiplicativity(self):
        # adding a column multiplies by f_block * f_photon^m
        for n in (1, 4):
            a = extrapolated_fidelity(FidelityBudget(0.99, 0.995, 0.97, 3, n))
            b = extrapolated_fidelity(FidelityBudget(0.99, 0.995, 0.97, 3, n + 1))
            assert abs(b / a - 0.995 * 0.97 ** 3) < 1e-12

    def test_zero_columns(self):
        b = FidelityBudget(0.99, 0.9, 0.9, 2, 0)
        assert abs(extrapolated_fidelity(b) - 0.99) < 1e-15

    def test_validation(self):
        with pytest.raises(ValueError):
            FidelityBudget(1.1, 0.9, 0.9, 2, 1)
        with pytest.raises(ValueError):
            FidelityBudget(0.9, 0.9, 0.9, 0, 1)


class TestGenerationRate:
    def test_ten_photon_example(self):
        e = EfficiencyBudget.from_combined(0.85)
        r = generation_rate(e, photons=10, scheme_duration=3e-6)
        assert abs(r - 0.85 ** 10 / 3e-6) < 1.0
        assert abs(r - 65.6e3) < 1e3

    def test_hundred_photon_example(self):
        e = EfficiencyBudget.from_combined(0.85)
        r = generation_rate(e, photons=100, scheme_duration=30e-6)
        assert abs(r - 0.85 ** 100 / 30e-6) / r < 1e-12
        assert 1e-3 < r < 1e-2  # a few events per thousand seconds

    def test_log_linear_in_photons(self):
        e = EfficiencyBudget.from_combined(0.8)
        rates = [generation_rate(e, k, 1e-6) for k in (5, 10, 15)]
        assert abs(rates[1] / rates[0] - rates[2] / rates[1]) < 1e-9

    def test_validation(self):
        e = EfficiencyBudget.from_combined(0.8)
        with pytest.raises(ValueError):
            generation_rate(e, 10, 0.0)
        for duration in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="duration must be finite"):
                generation_rate(e, 10, duration)
        for photons in (0, -1):
            with pytest.raises(ValueError, match="photons must be >= 1"):
                generation_rate(e, photons, 1e-6)


class TestFieldSelection:
    # loose threshold keeps the searches fast
    CHEAP = dict(threshold=0.7, restarts=10, ks=[8], hops=3, seed=0)

    def test_single_point(self):
        bx, bz, total = minimize_sequence_field(
            70e6, [(0.6, 0.6)], synth_kwargs=self.CHEAP
        )
        assert (bx, bz) == (0.6, 0.6)
        assert total > 0

    def test_picks_shorter_block(self):
        grid = [(0.6, 0.6), (1.2, 1.2)]
        bx, bz, total = minimize_sequence_field(
            70e6, grid, synth_kwargs=self.CHEAP
        )
        assert (bx, bz) in grid
        for other in grid:
            alt = minimize_sequence_field(
                70e6, [other], synth_kwargs=self.CHEAP
            )
            assert total <= alt[2] + 1e-15

    def test_threshold_change_not_served_stale(self):
        # a pass at a loose threshold must not answer a later call whose
        # stricter settings fail at the same point
        minimize_sequence_field(70e6, [(0.6, 0.6)], synth_kwargs=self.CHEAP)
        strict = dict(threshold=0.9999999, ks=[2], restarts=1, hops=0, seed=0)
        with pytest.raises(RuntimeError):
            minimize_sequence_field(70e6, [(0.6, 0.6)], synth_kwargs=strict)

    def test_mw_ceiling(self):
        with pytest.raises(ValueError):
            minimize_sequence_field(
                70e6, [(0.6, 10.0)], mw_ceiling=20e9,
                synth_kwargs=self.CHEAP,
            )

    def test_secular_warning_follows_gamma_e(self):
        # each point is synthesized with the caller's gamma_e: at Bx = 0.2 T,
        # gamma_e Bx is 2.8 GHz at 14 GHz/T and 5.6 GHz at 28 GHz/T, against
        # 0.1 lambda_SO = 5 GHz, so only the second is outside the secular
        # approximation (and Bz = 0.6 T stays under both microwave ceilings).
        # The warning comes with the point's Hamiltonian, before the search,
        # so whether this short search meets its threshold does not matter.
        quick = dict(threshold=0.6, ks=[2], restarts=1, hops=0, seed=0)

        def select(**kw):
            with contextlib.suppress(RuntimeError):
                minimize_sequence_field(70e6, [(0.2, 0.6)], synth_kwargs=quick, **kw)

        with warnings.catch_warnings():
            warnings.simplefilter("error", SecularApproximationWarning)
            select()
        with pytest.warns(SecularApproximationWarning):
            select(gamma_e=28e9)

    def test_spacing_shrinks_with_hyperfine(self):
        # stronger parallel coupling shortens the resonance spacing, the
        # basic scale of every synthesized sequence
        spacings = [
            resonance_spacing(
                SpinSystemParams(a_par=a, b_field=(0.6, 0.0, 0.6)), 1,
                "conditional",
            )
            for a in (35e6, 70e6, 140e6)
        ]
        assert spacings[0] > spacings[1] > spacings[2]
