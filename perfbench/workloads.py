"""Workloads of the spincluster benchmark: inputs built from the seed, the one
public-API call each workload times, the output numbers it records and the
checks those numbers must pass.

Run as a script, `python3 perfbench/workloads.py WORKLOAD SEED` builds the
workload's inputs and exits; run.py times that in a fresh interpreter as the
set-up cost.
"""
from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from spincluster import noise, presets, protocol, synthesis  # noqa: E402
from spincluster.hamiltonian import SecularApproximationWarning  # noqa: E402

# the SiV working point sits past the Hamiltonian's soft validity bound on
# purpose; the warning it raises on every compiler build is noise here
warnings.simplefilter("ignore", SecularApproximationWarning)

# Fig. 3b working point: Hahn-echo T2 = 300 us with T2* = T2 / 100, the
# per-T2 job of `spincluster figure fig3b`
T2_STAR, T2_HAHN = 3e-6, 300e-6

# criterion 3's CZ job. Its random stream is part of the job: another seed is
# a different amount of search (or a search that misses the threshold), so
# the benchmark seed does not reach it.
SYNTH_CZ = dict(
    threshold=0.999, seed=101, restarts=40, ks=[10, 12, 14, 16], ub=9e-8,
    duration_limit=2.2e-6,
)


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int], object]  # seed -> inputs
    call: Callable[[object], object]  # inputs -> result; the timed call
    outputs: Callable[[object], dict]  # result -> recorded numbers
    check: Callable[[dict], list]  # recorded numbers -> failed checks
    trials: int | None  # trajectories per call, for traj_per_s
    ensemble_bytes: int  # 16 * 4^(M*N): dense rho held by run(), computed


def _lean_spec(n: int, trials: int, seed: int):
    lib, params, _ = protocol.packaged_gate_library()
    return protocol.ProtocolSpec(
        m=2, n=n, gate_library=lib, params=params, style="lean",
        completion="corrected", trials=trials, seed=seed,
        noise=noise.ou_from_coherence(T2_STAR, T2_HAHN, seed=seed),
    )


def _lean_outputs(res) -> dict:
    return {
        "fidelity": res.fidelity,
        "fidelity_se": res.fidelity_se,
        "prep_fidelity": res.prep_fidelity,
        "block_fidelity": res.block_fidelity,
        "postselect_probability": res.postselect_probability,
        "wall_clock_model_s": res.wall_clock_model,
        "trials": res.trials,
    }


def _lean_check(f_min: float, components: bool):
    def check(out: dict) -> list:
        bad = []
        if not f_min <= out["fidelity"] <= 1.0:
            bad.append(f"fidelity {out['fidelity']!r} outside [{f_min}, 1]")
        se = out["fidelity_se"]
        if not (math.isfinite(se) and se > 0):
            bad.append(f"fidelity_se {se!r} not finite and > 0")
        if components:
            for key in ("prep_fidelity", "block_fidelity"):
                v = out[key]
                if v is None or not 0.99 < v <= 1.0:
                    bad.append(f"{key} {v!r} outside (0.99, 1]")
        return bad
    return check


def _lean(name: str, n: int, trials: int, components: bool, f_min: float) -> Workload:
    return Workload(
        name=name,
        build=lambda seed: _lean_spec(n, trials, seed),
        # protocol.run is read at call time so that the tracer's wrapper runs
        call=lambda spec: protocol.run(spec, components=components),
        outputs=_lean_outputs,
        check=_lean_check(f_min, components),
        trials=trials,
        ensemble_bytes=16 * 4 ** (2 * n),
    )


def _synth_outputs(rep) -> dict:
    return {
        "fidelity": float(rep.unitary_fidelity),
        "met_threshold": bool(rep.met_threshold),
        "k": int(rep.sequence.k),
        "duration_s": float(rep.sequence.total_duration),
        "iterations": int(rep.iterations),
        "tau_f": [float(t) for t in rep.sequence.tau_f],
        "electron_gates": list(rep.sequence.electron_gates),
    }


def _synth_check(out: dict) -> list:
    bad = []
    if not out["met_threshold"]:
        bad.append("met_threshold is false")
    if not out["fidelity"] >= SYNTH_CZ["threshold"]:
        bad.append(f"fidelity {out['fidelity']!r} < {SYNTH_CZ['threshold']}")
    if not out["duration_s"] <= SYNTH_CZ["duration_limit"]:
        bad.append(f"duration {out['duration_s']!r} s > {SYNTH_CZ['duration_limit']} s")
    return bad


WORKLOADS = {
    w.name: w
    for w in (
        _lean("lean2x2", n=2, trials=200, components=True, f_min=0.998),
        _lean("lean2x6", n=6, trials=20, components=False, f_min=0.99),
        Workload(
            name="synth_cz",
            build=lambda seed: presets.spin_params("siv29"),
            call=lambda params: synthesis.synthesize("cz", params, **SYNTH_CZ),
            outputs=_synth_outputs,
            check=_synth_check,
            trials=None,
            ensemble_bytes=0,
        ),
    )
}


if __name__ == "__main__":
    WORKLOADS[sys.argv[1]].build(int(sys.argv[2]))
