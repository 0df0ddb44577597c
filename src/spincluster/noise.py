"""Ornstein-Uhlenbeck dephasing bath acting on the electron spin.

The noise field B(t) enters as B(t) * sigma_z/2 on the electron, with B in
rad/s. Calibration against coherence measurements uses

    T2* = sqrt(2) / b        T2 = (12 tau_c / b^2)^(1/3)

with the stationary deviation fixed to sigma_st = b / sqrt(2), so that the
quasi-static free-induction envelope is exp(-b^2 t^2 / 4) and both formulas
correspond to the exp(-1/2) point of the fitted envelopes. The Monte-Carlo
free-induction oracle in the tests is the binding check on this convention.

Because the bath term commutes with every free-precession Hamiltonian used
here (electron-diagonal), a noisy free segment is exactly the noiseless
propagator followed by an electron z rotation by the integrated phase
phi = int B dt.

Every sampler draws from one exact update: over a segment of length
Delta, the end value B(Delta) and the integral int B dt given B(0) are
jointly Gaussian with closed-form moments (D. T. Gillespie, Phys. Rev. E
54, 2084 (1996)). One draw per segment is exact for any segment length, so
no sampler has a step size: `segment_phases` draws the integrals over a
list of segments, `fid_echo_signals` reads them on the grid {0, t/2, t},
and `sample_trajectory` keeps the B values on its output grid. The update
composes: `unit_phases` draws, for each DD unit, the toggling-frame phase
of its three segments as one update of the same form, which is what the
DD gates of a run need (Cywinski et al., PRB 77, 174509 (2008)).
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
        if self.b <= 0 or self.tau_c <= 0:
            raise ValueError("b and tau_c must be positive")

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
    if t2_star <= 0:
        raise ValueError("T2* must be positive")
    if t2_hahn <= t2_star:
        raise ValueError("T2 must exceed T2* (motional-narrowing formulas)")
    b = np.sqrt(2) / t2_star
    tau_c = t2_hahn ** 3 * b ** 2 / 12
    return OUNoise(b=b, tau_c=tau_c, seed=seed)


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


def sample_trajectory(noise: OUNoise, duration: float, rng: np.random.Generator | None = None) -> np.ndarray:
    """Stationary OU samples B(0), B(dt), ..., covering [0, duration], on
    the grid dt = min(tau_c / 50, duration / 20)."""
    if duration <= 0:
        raise ValueError("duration must be positive")
    rng = np.random.default_rng(noise.seed) if rng is None else rng
    dt = min(noise.tau_c / 50, duration / 20)
    n = int(np.ceil(duration / dt)) + 1
    return _ou_segments(noise, np.full(n - 1, dt), 1, rng)[0][0]


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


# ---------------------------------------------------------------- oracles

def fid_echo_signals(noise: OUNoise, times: np.ndarray, n_traj: int, seed: int | None = None):
    """Monte-Carlo <sigma_x> for free induction and Hahn echo at the given times.

    Times must be positive; the echo places its pi pulse at t/2. Returns
    (fid_signal, echo_signal) arrays.
    """
    rng = np.random.default_rng(noise.seed if seed is None else seed)
    times = np.asarray(times, float)
    # one path over the sorted grid {0, t/2, t}; phi(t) is its running sum
    grid = np.unique(np.concatenate(([0.0], times / 2, times)))
    cum = np.zeros((n_traj, len(grid)))
    cum[:, 1:] = np.cumsum(segment_phases(noise, np.diff(grid), n_traj, rng), axis=1)
    phi = cum[:, np.searchsorted(grid, times)]
    phi_half = cum[:, np.searchsorted(grid, times / 2)]
    fid = np.mean(np.cos(phi), axis=0)
    echo = np.mean(np.cos(phi - 2 * phi_half), axis=0)
    return fid, echo


def _fit_decay(times: np.ndarray, signal: np.ndarray, power: int) -> float:
    """|T| of the least-squares fit of exp(-(t/T)^power / 2) to `signal`,
    from the start T0 = times[len(times) // 2]. Gauss-Newton in the one
    parameter r = (T0/T)^power of the model exp(-r w), w = (t/T0)^power / 2:
    a step that would not lower the squared residual, or make r <= 0, is
    halved, and the search ends once a step moves r by 1e-13 of itself."""
    times = np.asarray(times, float)
    t0 = times[len(times) // 2]
    w = (times / t0) ** power / 2
    y = np.asarray(signal, float)

    def misfit(r):
        return float(np.sum((np.exp(-r * w) - y) ** 2))

    r, now = 1.0, misfit(1.0)
    for _ in range(200):
        model = np.exp(-r * w)
        slope = w * model  # -d model / dr
        step = float(slope @ (model - y) / (slope @ slope))
        while r + step <= 0 or misfit(r + step) > now:
            step /= 2
        r += step
        now = misfit(r)
        if abs(step) <= 1e-13 * r:
            break
    return float(abs(t0 * r ** (-1 / power)))


def fit_t2star(times: np.ndarray, signal: np.ndarray) -> float:
    """Fit exp(-(t/T2*)^2 / 2) to a free-induction decay (`_fit_decay`)."""
    return _fit_decay(times, signal, 2)


def fit_t2_hahn(times: np.ndarray, signal: np.ndarray) -> float:
    """Fit exp(-(t/T2)^3 / 2) to a Hahn-echo decay (`_fit_decay`)."""
    return _fit_decay(times, signal, 3)
