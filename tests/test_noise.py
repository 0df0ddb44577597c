import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest

from references import (
    fid_echo_signals, fit_decay, fold_segment_phases, ou_segments_whole, sample_trajectory,
)
from spincluster.noise import (
    OUNoise, _ou_segments, coherence_decays, echo_variance, fid_variance, ou_from_coherence,
    segment_phases, unit_phases,
)


class TestCalibration:
    def test_round_trip(self):
        n = ou_from_coherence(t2_star=3e-6, t2_hahn=300e-6)
        assert abs(n.t2_star - 3e-6) / 3e-6 < 1e-12
        assert abs(n.t2_hahn - 300e-6) / 300e-6 < 1e-12

    def test_b_inverse_in_t2star(self):
        a = ou_from_coherence(1e-6, 100e-6)
        b = ou_from_coherence(2e-6, 100e-6)
        assert abs(a.b / b.b - 2.0) < 1e-12

    def test_sigma_st(self):
        n = OUNoise(b=2e5, tau_c=1e-3)
        assert abs(n.sigma_st - 2e5 / np.sqrt(2)) < 1e-6

    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            ou_from_coherence(t2_star=10e-6, t2_hahn=5e-6)
        with pytest.raises(ValueError):
            ou_from_coherence(t2_star=-1e-6, t2_hahn=5e-6)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            OUNoise(b=0.0, tau_c=1e-3)
        with pytest.raises(ValueError):
            OUNoise(b=1e5, tau_c=-1.0)
        # NaN fails every comparison, so a bare "<= 0" check lets it through
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="b and tau_c"):
                OUNoise(b=bad, tau_c=1e-3)
            with pytest.raises(ValueError, match="b and tau_c"):
                OUNoise(b=1e5, tau_c=bad)
            with pytest.raises(ValueError, match=r"T2\* must"):
                ou_from_coherence(bad, 300e-6)
            with pytest.raises(ValueError, match="T2 must"):
                ou_from_coherence(3e-6, bad)


class TestTrajectories:
    def test_moments(self):
        n = OUNoise(b=1e5, tau_c=1e-5, seed=7)
        traj = sample_trajectory(n, duration=1e-2)
        assert abs(np.mean(traj)) < 0.1 * n.sigma_st
        assert abs(np.std(traj) / n.sigma_st - 1.0) < 0.05

    def test_autocorrelation_time(self):
        n = OUNoise(b=1e5, tau_c=1e-5, seed=3)
        traj = sample_trajectory(n, duration=2e-2)
        dt = min(n.tau_c / 50, 2e-2 / 20)  # sample_trajectory's grid
        lag = int(round(n.tau_c / dt))
        x = traj - traj.mean()
        corr = np.dot(x[:-lag], x[lag:]) / np.dot(x, x) * len(x) / (len(x) - lag)
        assert abs(corr - np.exp(-1)) < 0.08

    def test_seed_reproducibility(self):
        n = OUNoise(b=1e5, tau_c=1e-5, seed=42)
        a = sample_trajectory(n, duration=1e-4)
        b = sample_trajectory(n, duration=1e-4)
        np.testing.assert_array_equal(a, b)
        c = sample_trajectory(OUNoise(b=1e5, tau_c=1e-5, seed=43), duration=1e-4)
        assert not np.array_equal(a, c)

    def test_duration_validation(self):
        with pytest.raises(ValueError):
            sample_trajectory(OUNoise(b=1e5, tau_c=1e-5), duration=0.0)

    def test_segment_phase_variance_quasi_static(self):
        # for seg << tau_c the phase is ~ B0 * seg with B0 ~ N(0, sigma_st^2)
        n = OUNoise(b=1e5, tau_c=1.0)
        rng = np.random.default_rng(0)
        seg = 1e-5
        phases = segment_phases(n, np.array([seg]), 40000, rng)
        expect = n.sigma_st * seg
        assert abs(np.std(phases[:, 0]) / expect - 1.0) < 0.03

    def test_segment_phases_continuous_bath(self):
        # adjacent short segments are strongly correlated (bath not reset)
        n = OUNoise(b=1e5, tau_c=1.0)
        rng = np.random.default_rng(1)
        phases = segment_phases(n, np.array([1e-6, 1e-6]), 20000, rng)
        r = np.corrcoef(phases[:, 0], phases[:, 1])[0, 1]
        assert r > 0.99


class TestBlockedMean:
    """`_ou_segments` forms the mean term of the phases a block of rows at a
    time; `references.ou_segments_whole` forms it over all rows at once."""

    @staticmethod
    def _durations(n_seg):
        return np.random.default_rng(n_seg).uniform(1e-9, 2e-7, n_seg)

    @pytest.mark.parametrize("n_traj,n_seg", [(1, 50), (37, 1777), (1000, 600), (20, 6000)])
    def test_byte_identical_to_whole_array_sampler(self, n_traj, n_seg):
        noise = ou_from_coherence(3e-6, 300e-6, seed=1)
        d = self._durations(n_seg)
        got = _ou_segments(noise, d, n_traj, np.random.default_rng(3))
        ref = ou_segments_whole(noise, d, n_traj, np.random.default_rng(3))
        assert all(np.array_equal(a, r) for a, r in zip(got, ref))
        phases = segment_phases(noise, d, n_traj, np.random.default_rng(3))
        assert phases.tobytes() == ref[1].tobytes()

    def test_sample_trajectory_byte_identical(self):
        n = OUNoise(b=1e5, tau_c=1e-5, seed=42)
        dt = min(n.tau_c / 50, 1e-4 / 20)  # sample_trajectory's grid
        count = int(np.ceil(1e-4 / dt))
        ref = ou_segments_whole(n, np.full(count, dt), 1, np.random.default_rng(42))[0][0]
        assert sample_trajectory(n, duration=1e-4).tobytes() == ref.tobytes()

    def test_peak_is_two_phase_arrays(self):
        # b (T, S + 1) and the phases (T, S) and no third array: the bound
        # 2.2 x the phases' bytes leaves 0.2 x for the mean's row blocks
        noise = ou_from_coherence(3e-6, 300e-6, seed=1)
        d = self._durations(6000)
        tracemalloc.start()
        try:
            phases = segment_phases(noise, d, 1000, np.random.default_rng(3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.2 * phases.nbytes


class TestExactIntegral:
    """Second moments of the sampled phases against their closed forms.

    The phases have mean zero, so mean(phi^2) estimates the variance with
    relative standard error sqrt(2 / T); every bound is four of those."""

    T = 40000
    BOUND = 4 * np.sqrt(2 / T)
    XS = [1e-7, 1e-4, 1e-2, 0.3, 1.0, 10.0]

    @pytest.mark.parametrize("x", XS)
    def test_single_segment(self, x):
        n = OUNoise(b=1e5, tau_c=2e-3)
        phases = segment_phases(n, np.array([x * n.tau_c]), self.T, np.random.default_rng(31))
        expect = 2 * n.sigma_st ** 2 * n.tau_c ** 2 * fid_variance(x)
        assert abs(np.mean(phases[:, 0] ** 2) / expect - 1) < self.BOUND

    @pytest.mark.parametrize("x", XS)
    def test_sum_over_segments(self, x):
        # a bath reset between segments would give sum fid_variance(x_i) instead
        n = OUNoise(b=1e5, tau_c=0.5)
        parts = x * np.array([0.1, 0.5, 0.15, 0.25])
        phases = segment_phases(n, parts * n.tau_c, self.T, np.random.default_rng(32))
        expect = 2 * n.sigma_st ** 2 * n.tau_c ** 2 * fid_variance(x)
        assert abs(np.mean(phases.sum(axis=1) ** 2) / expect - 1) < self.BOUND

    @pytest.mark.parametrize("x", XS)
    def test_hahn_echo_phase(self, x):
        # fid_echo_signals' grid {0, t/2, t}: phi(t) - 2 phi(t/2) = p_2 - p_1
        n = OUNoise(b=1e5, tau_c=1e-6)
        half = x * n.tau_c / 2
        p = segment_phases(n, np.array([half, half]), self.T, np.random.default_rng(33))
        expect = 2 * n.sigma_st ** 2 * n.tau_c ** 2 * echo_variance(x)
        assert abs(np.mean((p[:, 1] - p[:, 0]) ** 2) / expect - 1) < self.BOUND

    @pytest.mark.parametrize("x", [1e-3, 1.0, 10.0])
    def test_signals_are_gaussian_decays(self, x):
        # Gaussian phases: <cos phi> = exp(-Var / 2); b puts Var(phi(t)) at 1
        # for the middle time, and t/2 of the last time is the middle time
        tau_c = 1e-4
        n = OUNoise(b=1 / (tau_c * np.sqrt(fid_variance(x))), tau_c=tau_c, seed=34)
        times = x * tau_c * np.array([0.5, 1.0, 2.0])
        fid, echo = fid_echo_signals(n, times, self.T)
        for got, expect in zip((fid, echo), coherence_decays(n, times)):
            # the SD of cos phi over one path: (1 + F^4) / 2 - F^2 is its variance
            sd = np.sqrt(((1 + expect ** 4) / 2 - expect ** 2) / self.T)
            assert np.all(np.abs(got - expect) <= 4 * sd + 1e-12)


def decimal_variances(x):
    """x - 1 + e^-x and x - 3 + 4 e^(-x/2) - e^-x from their direct forms in
    60-digit decimal arithmetic, which keeps ~30 digits after the worst
    cancellation (x^3 / 12 at x = 1e-9)."""
    with localcontext() as ctx:
        ctx.prec = 60
        x = Decimal(x)
        return x - 1 + (-x).exp(), x - 3 + 4 * (-x / 2).exp() - (-x).exp()


class TestExactDecays:
    """The closed forms of `coherence_decays` in double precision against
    decimal arithmetic, with bounds fixed before the run."""

    # a log grid, and the last point below the x = 1e-2 switch to the direct
    # forms, where the series' truncation error is largest
    XS = np.append(np.logspace(-9, 2, 111), np.nextafter(1e-2, 0))

    def test_variances_match_decimal(self):
        exact = np.array([[float(v) for v in decimal_variances(x)] for x in self.XS])
        for got, ref in ((fid_variance(self.XS), exact[:, 0]), (echo_variance(self.XS), exact[:, 1])):
            assert np.max(np.abs(got / ref - 1)) <= 1e-10

    def test_verify_pair(self):
        # the bath set from T2* = 1 us and T2 = 10 us, read at those times:
        # s = 1 / T2* and tau_c = T2^3 / (6 T2*^2), so with r = T2 / T2*,
        # -ln F = (r^3 / 6)^2 v(x) at x = 6 / r^3 (T2*) and x = 6 / r^2 (T2)
        with localcontext() as ctx:
            ctx.prec = 60
            r = Decimal(10)
            scale = (r ** 3 / 6) ** 2
            fid_rate = float(scale * decimal_variances(6 / r ** 3)[0])
            echo_rate = float(scale * decimal_variances(6 / r ** 2)[1])
        fid, echo = coherence_decays(ou_from_coherence(1e-6, 10e-6), [1e-6, 10e-6])
        assert abs(-np.log(fid[0]) - fid_rate) <= 1e-9
        assert abs(-np.log(echo[1]) - echo_rate) <= 1e-9
        assert (f"{fid_rate:.6f}", f"{echo_rate:.6f}") == ("0.499001", "0.488906")


class TestCoherenceOracles:
    def test_fid_matches_t2star(self):
        n = OUNoise(b=2e5, tau_c=1e-2, seed=11)  # quasi-static regime
        times = np.linspace(0.1, 2.5, 14) * n.t2_star
        fid, _ = fid_echo_signals(n, times, n_traj=4000)
        fitted = fit_decay(times, fid, 2)
        assert abs(fitted - n.t2_star) / n.t2_star < 0.05

    def test_echo_matches_t2_hahn(self):
        # quasi-static regime (T2 << tau_c), where the cubic envelope holds
        n = OUNoise(b=2e5, tau_c=1e-4, seed=12)
        times = np.linspace(0.2, 2.0, 12) * n.t2_hahn
        _, echo = fid_echo_signals(n, times, n_traj=4000)
        fitted = fit_decay(times, echo, 3)
        assert abs(fitted - n.t2_hahn) / n.t2_hahn < 0.10

    def test_echo_beats_fid(self):
        n = OUNoise(b=2e5, tau_c=1e-5, seed=13)
        times = np.array([0.5, 1.0, 1.5]) * n.t2_star * 5
        fid, echo = fid_echo_signals(n, times, n_traj=2000)
        assert np.all(echo >= fid - 0.02)
        assert echo[1] > fid[1]

    def test_quasi_static_gaussian_envelope(self):
        # tau_c >> t: envelope should be exp(-b^2 t^2 / 4) analytically
        n = OUNoise(b=2e5, tau_c=10.0, seed=14)
        times = np.linspace(0.2, 1.6, 8) * n.t2_star
        fid, _ = fid_echo_signals(n, times, n_traj=20000)
        expect = np.exp(-(n.b * times) ** 2 / 4)
        assert np.max(np.abs(fid - expect)) < 0.02


class IdentityNormals:
    """An rng whose `standard_normal((n, cols))` returns the next `cols`
    columns of the n x n identity. A sampler that is linear in its n normals
    then returns, for n trajectories, its linear map L as rows: the output
    has covariance L^T L."""

    def __init__(self, n):
        self.basis, self.used = np.eye(n), 0

    def standard_normal(self, shape):
        rows, cols = shape
        assert rows == len(self.basis)
        block = self.basis[:, self.used:self.used + cols].copy()
        self.used += cols
        return block


def linear_map(sampler, n):
    rng = IdentityNormals(n)
    out = sampler(n, rng)
    assert rng.used == n
    return out


class TestUnitPhases:
    """`unit_phases` draws each DD unit's toggling-frame phase directly; the
    reference is the (+, -, +) fold of `segment_phases` over the unit's
    segments (tau, 2 tau, tau). Both are linear in their normals, so their
    covariances are compared exactly, not by sampling."""

    RATIOS = np.array([1.0, 0.7, 1.3, 1.0, 0.05])

    @pytest.mark.parametrize("x", np.logspace(-9, 3, 49))
    def test_covariance_matches_folded_segments(self, x):
        noise = OUNoise(b=1e5, tau_c=1e-6)
        taus = x * noise.tau_c * self.RATIOS
        k = len(taus)
        units = linear_map(lambda n, rng: unit_phases(noise, taus, n, rng), 2 * k + 1)
        durations = np.array([d for t in taus for d in (t, 2 * t, t)])
        segments = linear_map(lambda n, rng: segment_phases(noise, durations, n, rng), 6 * k + 1)
        got = units.T @ units
        ref = fold_segment_phases(segments).T @ fold_segment_phases(segments)
        scale = np.sqrt(np.outer(np.diag(ref), np.diag(ref)))
        assert np.max(np.abs(got - ref) / scale) <= 1e-12

    def test_peak_is_two_phase_arrays(self):
        # B at the unit ends (T, K + 1) and the phases (T, K), as for
        # `segment_phases`
        noise = ou_from_coherence(3e-6, 300e-6, seed=1)
        taus = np.random.default_rng(6000).uniform(1e-9, 9e-8, 6000)
        tracemalloc.start()
        try:
            phases = unit_phases(noise, taus, 1000, np.random.default_rng(3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.2 * phases.nbytes
