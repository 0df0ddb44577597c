"""The benchmark under perfbench/ reaches into the package by name: its
tracer wraps module attributes listed in `TARGETS`, and each workload builds
its inputs through the public API. A refactor that renames, moves or hoists
one of those names would otherwise fail only when the benchmark runs.

This reads perfbench and changes nothing there.
"""
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]

_spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


@pytest.mark.parametrize("owner,attr", [t[:2] for t in tracer.TARGETS],
                         ids=[t[2] for t in tracer.TARGETS])
def test_trace_target_resolves(owner, attr):
    assert callable(getattr(tracer._owner(owner), attr))


def test_traced_noisy_run_reaches_the_protocol_layers(packaged):
    # the spans exist only if each call goes through the wrapped attribute,
    # e.g. run() must look segment_phases up on spincluster.noise at call time
    from spincluster import protocol
    from spincluster.noise import ou_from_coherence

    lib, params, _ = packaged
    spec = protocol.ProtocolSpec(
        m=2, n=1, gate_library=lib, params=params, style="lean",
        noise=ou_from_coherence(3e-6, 300e-6, seed=1), trials=100, seed=1,
    )
    t = tracer.Tracer(run_id=0)
    with t.installed():
        protocol.run(spec, components=True)  # read at call time, as workloads.py does
    layers = t.layers()
    for name in ("protocol.run", "protocol.component_fidelities", "protocol.find_corrections",
                 "noise.segment_phases", "synthesis.noisy_sequence_unitary"):
        assert layers.get(name, {}).get("calls", 0) > 0, name


@pytest.mark.slow
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_builds(workload):
    # a fresh interpreter, as run.py times set-up; nothing is imported here
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "workloads.py"), workload, "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


def test_synth_cz_is_criterion_3s_cz_job(monkeypatch):
    # the workload times criterion 3's CZ job; the two must not drift apart
    from test_acceptance import CRITERION_3_JOBS

    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclass looks itself up there
    spec.loader.exec_module(workloads)
    assert workloads.SYNTH_CZ == CRITERION_3_JOBS["cz"]
