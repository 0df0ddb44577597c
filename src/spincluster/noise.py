"""Ornstein-Uhlenbeck dephasing bath acting on the electron spin.

The noise field B(t) enters as B(t) * sigma_z/2 on the electron, with B in
rad/s. Calibration against coherence measurements uses

    T2* = sqrt(2) / b        T2 = (12 tau_c / b^2)^(1/3)

with the stationary deviation fixed to sigma_st = b / sqrt(2), so that the
quasi-static free-induction envelope is exp(-b^2 t^2 / 4) and both formulas
correspond to the exp(-1/2) point of the decays. `coherence_decays` gives
the bath's free-induction and Hahn-echo decays in closed form (Cywinski et
al., PRB 77, 174509 (2008)); they cross exp(-1/2) at T2* and T2 up to the
offsets of these motional-narrowing formulas.

Because the bath term commutes with every free-precession Hamiltonian used
here (electron-diagonal), a noisy free segment is exactly the noiseless
propagator followed by an electron z rotation by the integrated phase
phi = int B dt.

Every sampler draws from one exact update: over a segment of length
Delta, the end value B(Delta) and the integral int B dt given B(0) are
jointly Gaussian with closed-form moments (D. T. Gillespie, Phys. Rev. E
54, 2084 (1996)). One draw per segment is exact for any segment length, so
no sampler has a step size: `segment_phases` draws the integrals over a
list of segments. The update composes: `unit_phases` draws, for each DD
unit, the toggling-frame phase of its three segments as one update of the
same form, which is what the DD gates of a run need (Cywinski et al.).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class OUNoise:
    b: float  # rad/s
    tau_c: float  # s
    seed: int = 0

    def __post_init__(self):
        if not all(math.isfinite(v) and v > 0 for v in (self.b, self.tau_c)):
            raise ValueError(f"b and tau_c must be finite and positive, got {self.b}, {self.tau_c}")

    @property
    def sigma_st(self) -> float:
        return self.b / np.sqrt(2)

    @property
    def t2_star(self) -> float:
        return np.sqrt(2) / self.b

    @property
    def t2_hahn(self) -> float:
        return (12 * self.tau_c / self.b ** 2) ** (1 / 3)


def ou_from_coherence(t2_star: float, t2_hahn: float, seed: int = 0) -> OUNoise:
    if not (math.isfinite(t2_star) and t2_star > 0):
        raise ValueError(f"T2* must be finite and positive, got {t2_star}")
    if not (math.isfinite(t2_hahn) and t2_hahn > t2_star):
        raise ValueError(f"T2 must be finite and exceed T2* (motional-narrowing formulas), "
                         f"got {t2_hahn}")
    b = np.sqrt(2) / t2_star
    tau_c = t2_hahn ** 3 * b ** 2 / 12
    return OUNoise(b=b, tau_c=tau_c, seed=seed)


def fid_variance(x):
    """x - 1 + e^-x: the variance of int_0^t B dt over 2 s^2 tau_c^2, for
    x = t / tau_c. Below 1e-2 its series avoids the x^2 cancellation."""
    x = np.asarray(x, float)
    series = x ** 2 / 2 - x ** 3 / 6 + x ** 4 / 24 - x ** 5 / 120
    return np.where(x < 1e-2, series, x + np.expm1(-x))


def echo_variance(x):
    """x - 3 + 4 e^(-x/2) - e^-x: the variance of the Hahn-echo phase
    phi(t) - 2 phi(t/2) over 2 s^2 tau_c^2. It starts at x^3 / 12, and
    below 1e-2 its series avoids the cancellation of the direct form."""
    x = np.asarray(x, float)
    series = x ** 3 / 12 - x ** 4 / 32 + 7 * x ** 5 / 960 - x ** 6 / 768
    return np.where(x < 1e-2, series, x + 4 * np.expm1(-x / 2) - np.expm1(-x))


def coherence_decays(noise: OUNoise, times) -> tuple[np.ndarray, np.ndarray]:
    """Exact free-induction and Hahn-echo decays <cos phi> at `times`, the
    echo with its pi pulse at t/2: the phases are Gaussian, so each is
    exp(-Var phi / 2) = exp(-s^2 tau_c^2 v(t / tau_c)) with v the
    `fid_variance` or `echo_variance`. Returns (fid, echo)."""
    x = np.asarray(times, float) / noise.tau_c
    scale = (noise.sigma_st * noise.tau_c) ** 2
    return np.exp(-scale * fid_variance(x)), np.exp(-scale * echo_variance(x))


# elements of the temporary that `_ou_integrals` forms its mean term in
_BLOCK = 1 << 16


def _excess(x: np.ndarray) -> np.ndarray:
    """x - 2 tanh(x / 2), which cancels to ~x^3/12. It is
    2 (y cosh y - sinh y) / cosh y with y = x / 2, and below x = 2 the
    numerator is summed from its series sum_n 2n y^(2n+1) / (2n+1)!, whose
    terms are all positive (ten of them reach rounding at y = 1); above 2
    the direct difference loses a few ulp at most."""
    excess = x - 2 * np.tanh(x / 2)
    small = x < 2
    y = x[small] / 2
    y2 = y * y
    series = np.zeros_like(y)
    for n in range(10, 0, -1):
        series = series * y2 + 2 * n / math.factorial(2 * n + 1)
    excess[small] = 2 * y * y2 * series / np.cosh(y)
    return excess


def _ou_integrals(noise: OUNoise, x: np.ndarray, mean: np.ndarray, sd: np.ndarray,
                  n_traj: int, rng: np.random.Generator):
    """Exact joint draw of B at the ends of consecutive intervals of lengths
    x tau_c and of one linear functional of B per interval, for n_traj
    stationary OU paths continuous across the intervals.

    Returns (b, phases) shaped (n_traj, S + 1) and (n_traj, S). Given B at
    its two ends, the functional over interval j is Gaussian with mean
    mean_j (B0 + B1) and standard deviation sd_j. B is drawn from S + 1
    normals and the functionals from S more.
    """
    s = noise.sigma_st
    # B_j = mu_j B_(j-1) + s sqrt(1 - mu_j^2) xi_j as a prefix scan: log2(S)
    # vectorised passes; decay 0 in front makes B_0 = s xi_0 stationary
    b = rng.standard_normal((n_traj, len(x) + 1))
    b *= s * np.sqrt(np.concatenate(([1.0], -np.expm1(-2 * x))))
    decay = np.concatenate(([0.0], np.exp(-x)))
    d = 1
    while d < len(decay):
        b[:, d:] += decay[d:] * b[:, :-d]
        decay[d:] = decay[d:] * decay[:-d]
        d *= 2
    phases = rng.standard_normal((n_traj, len(x)))
    phases *= sd
    # the mean term a block of rows at a time, so that b and the phases are
    # the only (n_traj, S) arrays held
    rows = max(1, _BLOCK // max(1, len(x)))
    for r in range(0, n_traj, rows):
        term = b[r:r + rows, :-1] + b[r:r + rows, 1:]
        term *= mean
        phases[r:r + rows] += term
    return b, phases


def _ou_segments(noise: OUNoise, durations: np.ndarray, n_traj: int, rng: np.random.Generator):
    """Exact joint draw of B at the segment ends and of int B dt over each
    segment, for n_traj stationary OU paths continuous across the segments.

    Returns (b, phases) shaped (n_traj, S + 1) and (n_traj, S). With
    x = Delta / tau_c, mu = exp(-x) and s = sigma_st, given B0:
    B1 ~ N(mu B0, s^2 (1 - mu^2)), and given B0 and B1 the integral has
    mean tau_c (1 - mu) B0 + tau_c (1 - mu) / (1 + mu) (B1 - mu B0), which
    is tau_c tanh(x / 2) (B0 + B1), and variance
    2 s^2 tau_c^2 (x - 2 tanh(x / 2)).
    """
    x = np.asarray(durations, float) / noise.tau_c
    s, tau = noise.sigma_st, noise.tau_c
    sd = s * tau * np.sqrt(2 * _excess(x))
    return _ou_integrals(noise, x, tau * np.tanh(x / 2), sd, n_traj, rng)


def unit_phases(noise: OUNoise, tau_f, n_traj: int, rng: np.random.Generator) -> np.ndarray:
    """Toggling-frame bath phase of every DD unit, shape (n_traj, K): the
    integral of B over unit j's free segments (tau, 2 tau, tau) with signs
    (+, -, +), the sign the electron's z axis has in each segment between
    the unit's two pi pulses. The units are contiguous and the bath is
    continuous across them.

    Exact, from 2K + 1 normals per trajectory: composing the three
    segments' updates of `_ou_segments` makes a unit one update of the same
    form. With x = tau / tau_c and t = tanh(x / 2), B at the unit's end has
    decay exp(-4 x), and given B0 and B1 at its ends the phase has mean
    tau_c 8 t^3 / (1 + 6 t^2 + t^4) (B0 + B1) and variance
    8 s^2 tau_c^2 (x - 2 t + 2 t^3 (1 + t^2) / (1 + 6 t^2 + t^4)), where
    x - 2 t is the segment's cancelling difference, `_excess`, and the rest
    has no cancellation.
    """
    x = np.asarray(tau_f, float) / noise.tau_c
    s, tau = noise.sigma_st, noise.tau_c
    t = np.tanh(x / 2)
    t2 = t * t
    norm = 1 + 6 * t2 + t2 * t2
    excess = _excess(x) + 2 * t * t2 * (1 + t2) / norm
    sd = s * tau * np.sqrt(8 * excess)
    return _ou_integrals(noise, 4 * x, tau * 8 * t * t2 / norm, sd, n_traj, rng)[1]


def segment_phases(
    noise: OUNoise,
    durations: np.ndarray,
    n_traj: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Integrated phases int B dt per free segment, shape (n_traj, n_segments).

    One independent stationary OU path per trajectory, continuous across
    segments (the bath does not reset between gates).
    """
    return _ou_segments(noise, durations, n_traj, rng)[1]
