"""Acceptance criteria for the full simulator, one test per criterion.

Each test prints a single PASS/FAIL line (run pytest with -s to see them
inline; they also appear in captured output). The checks are end-to-end:
they rebuild results from scratch rather than trusting cached numbers,
except where the packaged gate files are themselves the object under test.
"""
import subprocess
import sys

import numpy as np
import pytest

from references import emission_fidelity_numeric, fid_echo_signals, fit_decay
from spincluster.budget import (
    EfficiencyBudget, FidelityBudget, extrapolated_fidelity, generation_rate,
)
from spincluster.emission import EmissionParams, emission_fidelity
from spincluster.noise import OUNoise, ou_from_coherence
from spincluster.protocol import (
    ProtocolSpec, ideal_library, run, verify_appendix_a,
)
from spincluster.synthesis import (
    TARGETS, UnitCompiler, deserialize_sequence, gate_fidelity,
    sequence_unitary, synthesize,
)


def _report(num: int, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, detail


def test_criterion_1_appendix_state_tracking():
    """M=3, N=1 ideal-gate walkthrough reaches a state locally equivalent to
    the 3-qubit linear graph state."""
    rep = verify_appendix_a()
    ok = rep.equivalent and rep.overlap > 1 - 1e-6 and rep.all_ones_probability > 0
    _report(1, ok,
            f"appendix walkthrough overlap={rep.overlap:.9f} "
            f"p(all-1)={rep.all_ones_probability:.4f}")


def test_criterion_2_noiseless_grid():
    """Ideal gates give unit fidelity against the target for every lattice in
    {2,3} x {1,2,3}."""
    worst = 1.0
    for m in (2, 3):
        for n in (1, 2, 3):
            res = run(ProtocolSpec(m=m, n=n, gate_library=ideal_library()))
            worst = min(worst, res.fidelity)
    ok = abs(worst - 1.0) < 1e-9
    _report(2, ok, f"noiseless {{2,3}}x{{1,2,3}} worst fidelity={worst:.12f}")


# criterion 3's synthesis jobs; the benchmark's synth_cz workload is the CZ one
CRITERION_3_JOBS = {
    "cz": dict(threshold=0.999, seed=101, restarts=40, ks=[10, 12, 14, 16], ub=9e-8,
               duration_limit=2.2e-6),
    "swap": dict(threshold=0.999, seed=202, restarts=60, ks=[12, 14, 16, 18, 20], ub=9e-8,
                 duration_limit=3.2e-6),
}


@pytest.mark.slow
def test_criterion_3_gate_synthesis(siv, packaged):
    """Fresh deterministic synthesis reaches >= 0.999 unitary fidelity for cz
    and swap within a factor 2 of microsecond-scale durations, and the
    packaged gate files replay to their stored fidelities."""
    details = []
    ok = True
    for name, kw in CRITERION_3_JOBS.items():
        rep = synthesize(name, siv, **kw)
        dur = rep.sequence.total_duration
        got = rep.met_threshold and rep.unitary_fidelity >= kw["threshold"]
        got = got and dur <= kw["duration_limit"]
        ok = ok and got
        details.append(f"{name} f={rep.unitary_fidelity:.5f} "
                       f"dur={dur * 1e6:.2f}us k={rep.sequence.k}")

    lib, params, fids = packaged
    comp = UnitCompiler(params)
    for name in ("cz", "swap"):
        f = gate_fidelity(sequence_unitary(lib[name], comp), TARGETS[name])
        replay_ok = abs(f - fids[name]) < 1e-12 and f >= 0.999
        ok = ok and replay_ok
        details.append(f"packaged {name} replay f={f:.5f}")

    _report(3, ok, "; ".join(details))


def test_criterion_4_noise_calibration():
    """Monte-Carlo free induction and Hahn echo reproduce the calibrated
    coherence times (5% and 10%)."""
    fid_noise = OUNoise(b=2e5, tau_c=1e-2, seed=21)
    times = np.linspace(0.1, 2.5, 14) * fid_noise.t2_star
    fid, _ = fid_echo_signals(fid_noise, times, n_traj=3000)
    t2s = fit_decay(times, fid, 2)
    err_star = abs(t2s - fid_noise.t2_star) / fid_noise.t2_star

    echo_noise = OUNoise(b=2e5, tau_c=1e-4, seed=22)
    times = np.linspace(0.2, 2.0, 12) * echo_noise.t2_hahn
    _, echo = fid_echo_signals(echo_noise, times, n_traj=3000)
    t2 = fit_decay(times, echo, 3)
    err_hahn = abs(t2 - echo_noise.t2_hahn) / echo_noise.t2_hahn

    ok = err_star < 0.05 and err_hahn < 0.10
    _report(4, ok,
            f"T2* fit error {err_star * 100:.1f}% (<5%), "
            f"Hahn T2 fit error {err_hahn * 100:.1f}% (<10%)")


def test_criterion_5_two_by_two_fidelity(packaged):
    """Noisy 2x2 cluster fidelity with the packaged gates lands in
    [0.998, 1.0] for T2 of 8 us and 300 us, and degrades for 2 us."""
    lib, params, _ = packaged
    fids = {}
    for t2 in (300e-6, 8e-6, 2e-6):
        noise = ou_from_coherence(t2_star=0.01 * t2, t2_hahn=t2, seed=0)
        spec = ProtocolSpec(m=2, n=2, gate_library=lib, params=params,
                            style="lean", noise=noise, trials=1000, seed=5)
        fids[t2] = run(spec).fidelity
    ok = (0.998 <= fids[300e-6] <= 1.0 and 0.998 <= fids[8e-6] <= 1.0
          and fids[2e-6] < fids[8e-6])
    _report(5, ok,
            f"F(300us)={fids[300e-6]:.5f} F(8us)={fids[8e-6]:.5f} "
            f"F(2us)={fids[2e-6]:.5f}")


def test_criterion_6_fidelity_extrapolation():
    """Component-wise extrapolation reproduces the multiplicative budget for
    a 2x5 lattice (> 0.5) and a spin-only 2x50 run (> 0.90)."""
    f10 = extrapolated_fidelity(
        FidelityBudget(f_prep=0.999, f_block=0.998, f_photon_gate=0.94,
                       m=2, n=5))
    f50 = extrapolated_fidelity(
        FidelityBudget(f_prep=0.999, f_block=0.998, f_photon_gate=1.0,
                       m=2, n=50))
    ok = (abs(f10 - 0.999 * 0.998 ** 5 * 0.94 ** 10) < 1e-12
          and abs(f10 - 0.533) < 1e-3 and f10 > 0.5
          and abs(f50 - 0.999 * 0.998 ** 50) < 1e-12
          and abs(f50 - 0.904) < 1e-3 and f50 > 0.90)
    _report(6, ok, f"F(2x5)={f10:.4f} (>0.5), F(2x50 spin-only)={f50:.4f} (>0.90)")


def test_criterion_7_generation_rate():
    """Efficiency-to-the-photon-number rate model: ~65.6 kHz for 10 photons
    in 3 us at 0.85 combined efficiency; mHz scale for 100 photons."""
    e = EfficiencyBudget.from_combined(0.85)
    r10 = generation_rate(e, 10, 3e-6)
    r100 = generation_rate(e, 100, 30e-6)
    ok = abs(r10 - 65.6e3) < 1e3 and 1e-3 < r100 < 1e-2
    _report(7, ok, f"rate(10 ph, 3us)={r10 / 1e3:.1f} kHz, "
                   f"rate(100 ph, 30us)={r100 * 1e3:.2f} mHz")


def test_criterion_8_emission_fidelity():
    """Closed-form emission fidelity matches quadrature to 1e-8 across the
    mismatch range, obeys both limits, and gives ~0.77 at the working
    point (1.7 ns lifetime, 3e9 rad/s branch mismatch)."""
    worst = 0.0
    for x in np.linspace(0.0, 100.0, 41):
        p = EmissionParams(tau=1.0, delta_omega=float(x))
        worst = max(worst, abs(emission_fidelity(p) - emission_fidelity_numeric(p)))
    f0 = emission_fidelity(EmissionParams(tau=1.0, delta_omega=0.0))
    finf = emission_fidelity(EmissionParams(tau=1.0, delta_omega=1e15))
    fwp = emission_fidelity(EmissionParams(tau=1.7e-9, delta_omega=3e9))
    ok = (worst < 1e-8 and abs(f0 - 1.0) < 1e-12
          and abs(finf - np.sqrt(0.5)) < 1e-6 and abs(fwp - 0.8) < 0.05)
    _report(8, ok, f"closed-form vs quadrature max err={worst:.2e}, "
                   f"F(working point)={fwp:.4f}")


@pytest.mark.slow
def test_criterion_9_cli_verify():
    """The command-line invariant suite passes end to end in a fresh
    process."""
    proc = subprocess.run(
        [sys.executable, "-m", "spincluster.cli", "verify", "--seed", "0"],
        capture_output=True, text=True, timeout=600,
    )
    ok = proc.returncode == 0 and "FAIL" not in proc.stdout
    tail = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "no output"
    _report(9, ok, f"spincluster verify exit={proc.returncode} ({tail})")
