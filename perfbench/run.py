#!/usr/bin/env python3
"""spincluster benchmark runner.

    python3 perfbench/run.py --workload lean2x2 --seed 1 --seconds 20 --trace 0

Runs one workload through the package's public API in this process, checks
every output, and prints a human-readable report followed, as the last line,
by one JSON object {"correct", "attempted", "failed", "metrics"}.

--trace 0 measures the end-to-end metrics: set-up time (median of fresh
interpreters), the wall time of each call repeated for --seconds (median),
and the process's peak resident set.
--trace 1 makes one untraced and one traced call and reports per-layer
counts and times from spans recorded around the package's functions, plus
the tracing overhead.

Every run writes its full record (environment, outputs, per-call times,
per-layer totals) to .perfbench/ in the checkout; a traced run also writes its
spans there. Outputs and exact counts of a seed are kept under
.perfbench/ref/ per code version, and a later run that disagrees with them
counts as failed.
"""
import os

# BLAS threads are pinned before numpy loads; 1 <= nproc on any machine
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
WORKLOAD_NAMES = ("lean2x2", "lean2x6", "synth_cz")
SETUP_REPEATS = 3  # timed fresh-interpreter set-ups, after one untimed warm-up

# (span name, fields) reported as per-layer metrics; a layer a workload does
# not reach reads 0
LAYER_FIELDS = (
    ("protocol.run", ("s", "self_s")),
    ("protocol.component_fidelities", ("s",)),
    ("protocol.find_corrections", ("s",)),
    ("protocol.ideal_target", ("s",)),
    ("protocol.emit_photon", ("calls", "s")),
    ("states.apply_gate", ("calls", "s")),
    ("noise.segment_phases", ("calls", "s")),
    ("synthesis.noisy_sequence_unitary", ("calls", "s", "self_s")),
    ("synthesis.UnitCompiler.free_propagator", ("calls", "s")),
    ("synthesis.synthesize", ("s", "self_s")),
    ("synthesis.minimize", ("calls",)),
    ("synthesis.objective", ("calls", "s")),
    ("synthesis.sequence_unitary", ("calls", "s")),
)


def _canon(obj):
    """JSON round trip: floats keep every bit, and records compare as saved."""
    return json.loads(json.dumps(obj))


def code_hash() -> str:
    h = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for p in sorted(base.rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts:
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()


def blas_threads() -> dict:
    """Thread count reported by each OpenBLAS this process has loaded."""
    out = {}
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return out
    paths = sorted({ln.split()[-1] for ln in maps if "openblas" in ln.lower()})
    for path in paths:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                out[Path(path).name] = fn()
                break
    return out


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads": blas_threads(),
    }


def measure_setup(workload: str, seed: int) -> list:
    """Wall time from interpreter start to inputs built, per fresh process."""
    cmd = [sys.executable, str(HERE / "workloads.py"), workload, str(seed)]
    samples = []
    for i in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=120)
        if i:
            samples.append(time.perf_counter() - t0)
    return samples


def timed_call(w, inputs) -> dict:
    """One call: its wall time and recorded outputs, or the error it raised."""
    t0 = time.perf_counter()
    try:
        result = w.call(inputs)
    except Exception:
        return {"s": time.perf_counter() - t0, "error": traceback.format_exc()}
    s = time.perf_counter() - t0
    return {"s": s, "outputs": _canon(w.outputs(result))}


def tail(samples: list):
    """Highest percentile with at least ten samples beyond it, as
    (percentile, value), or None when there are too few samples."""
    n = len(samples)
    if n < 11:
        return None
    rank = n - 10
    return 100.0 * rank / n, sorted(samples)[rank - 1]


def per_layer_metrics(layers: dict, w, outputs: dict, overhead_pct: float) -> dict:
    units = {"calls": "count", "s": "s", "self_s": "s"}
    m = {}
    for name, fields in LAYER_FIELDS:
        for f in fields:
            m[f"{name}.{f}"] = (layers.get(name, {}).get(f, 0), units[f])
    # minimize's only wrapped children are its objective calls
    m["synthesis.lbfgs_overhead_s"] = (
        layers.get("synthesis.minimize", {}).get("self_s", 0), "s")
    m["synthesis.evaluations"] = (outputs.get("iterations", 0), "count")
    m["protocol.ensemble_bytes"] = (w.ensemble_bytes, "B")
    m["trace.overhead_pct"] = (overhead_pct, "%")
    return m


def exact_counts(metrics: dict) -> dict:
    return {k: v for k, (v, unit) in metrics.items() if unit in ("count", "B")}


def check_reference(path: Path, outputs: dict, counts: dict | None) -> list:
    """Compare with the outputs (and counts) an earlier run of this code and
    seed saved; save whatever is not there yet."""
    ref = json.loads(path.read_text()) if path.exists() else {}
    bad = []
    if "outputs" in ref and ref["outputs"] != outputs:
        bad.append(f"outputs differ from an earlier run of this code and seed: "
                   f"{ref['outputs']} != {outputs}")
    if counts is not None and "counts" in ref and ref["counts"] != counts:
        diff = {k: (ref["counts"].get(k), v) for k, v in counts.items()
                if ref["counts"].get(k) != v}
        bad.append(f"exact counts differ from an earlier run: {diff}")
    if not bad:
        ref.setdefault("outputs", outputs)
        if counts is not None:
            ref.setdefault("counts", counts)
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(ref, indent=1))
        os.replace(tmp, path)
    return bad


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "spincluster" / "__init__.py").is_file():
        print(f"spincluster sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    import workloads
    from tracer import Tracer

    w = workloads.WORKLOADS[args.workload]
    digest = code_hash()
    setup = measure_setup(w.name, args.seed) if args.trace == 0 else []
    inputs = w.build(args.seed)

    calls = []
    spans_file = None
    layers = {}
    if args.trace == 0:
        # a call starts only if it should end less than half a call late, so
        # one run of a call longer than --seconds makes exactly one call
        t_end = time.perf_counter() + args.seconds
        while not calls or time.perf_counter() + calls[-1]["s"] / 2 < t_end:
            calls.append(timed_call(w, inputs))
            if "error" in calls[-1]:
                break
    else:
        calls.append(timed_call(w, inputs))
        tracer = Tracer(run_id=len(calls))
        with tracer.installed():
            calls.append(timed_call(w, inputs))
        layers = tracer.layers()
        OUT.mkdir(exist_ok=True)
        spans_file = OUT / f"spans-{w.name}-seed{args.seed}.npz"
        tracer.save(spans_file)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # every call must pass its checks and agree bit for bit with the first
    failures, bad_calls = [], set()
    first = calls[0].get("outputs")
    for i, c in enumerate(calls):
        if "error" in c:
            msgs = [f"raised:\n{c['error']}"]
        else:
            msgs = w.check(c["outputs"])
            if c["outputs"] != first:
                msgs.append("outputs differ from call 0"
                            + (" (traced vs untraced)" if args.trace else ""))
        if msgs:
            bad_calls.add(i)
            failures += [f"call {i}: {m}" for m in msgs]

    times = [c["s"] for c in calls]
    metrics = {}
    if args.trace == 0:
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "call_s": (statistics.median(times), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    elif first is not None:
        overhead_pct = 100.0 * (times[1] - times[0]) / times[0]
        metrics = per_layer_metrics(layers, w, first, overhead_pct)

    (OUT / "ref").mkdir(parents=True, exist_ok=True)
    if not failures:
        counts = exact_counts(metrics) if args.trace else None
        ref = OUT / "ref" / f"{w.name}-seed{args.seed}-{digest[:16]}.json"
        run_level = check_reference(ref, first, counts)
        if run_level:
            failures += run_level
            bad_calls = set(range(len(calls)))

    record = {
        "workload": w.name, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "code_sha256": digest, "env": environment(),
        "setup_s_samples": setup, "calls": calls,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "layers": layers, "spans_file": spans_file and spans_file.name,
        "failures": failures,
    }
    (OUT / f"{w.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    report(args, w, record, times, setup, layers, len(bad_calls))
    correct = not failures and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": len(calls),
        "failed": len(bad_calls),
        "metrics": record["metrics"],
    }))
    return 0 if correct else 1


def report(args, w, record, times, setup, layers, failed) -> None:
    env = record["env"]
    print(f"spincluster benchmark: workload={w.name} seed={args.seed} "
          f"trace={args.trace} code={record['code_sha256'][:12]}")
    print(f"  env: nproc={env['nproc']} python={env['python']} "
          f"numpy={env['numpy']} scipy={env['scipy']} blas={env['blas']} "
          f"blas_threads={env['blas_threads']} (pinned {env['blas_threads_pinned']})")
    what = "run()" if w.trials else "synthesize()"
    if args.trace == 0:
        n = len(times)
        print(f"  setup_s      {statistics.median(setup):.4f} s    "
              f"median of {len(setup)} fresh-interpreter set-ups")
        t = tail(times)
        tail_txt = (f"p{t[0]:.1f} {t[1]:.4f} s" if t else
                    "no percentile has >= 10 samples beyond it")
        print(f"  call_s       {statistics.median(times):.4f} s    "
              f"median of {n} {what} calls; {tail_txt}")
        if w.trials:
            print(f"  traj_per_s   {w.trials / statistics.median(times):.2f} 1/s  "
                  f"{w.trials} trials / call_s")
        else:
            print(f"  synth_s      {statistics.median(times):.4f} s    = call_s")
        print(f"  peak_rss_mb  {record['metrics']['peak_rss_mb']['value']:.1f} MB")
        print(f"  fail_frac    {failed / n:.4g} ratio  {failed} of {n} call(s) failed")
    else:
        print(f"  untraced {times[0]:.4f} s, traced {times[1]:.4f} s "
              f"({100 * (times[1] - times[0]) / times[0]:+.1f}% tracing overhead on "
              f"{'traj_per_s' if w.trials else 'synth_s'})")
        print(f"  {'layer':42s} {'calls':>9s} {'s':>9s} {'self_s':>9s}")
        for name, v in sorted(layers.items(), key=lambda kv: -kv[1]["s"]):
            print(f"  {name:42s} {v['calls']:9d} {v['s']:9.4f} {v['self_s']:9.4f}")
        print(f"  protocol.ensemble_bytes {w.ensemble_bytes} B (computed, 16*4^(M*N))")
    print(f"  outputs: {json.dumps(record['calls'][0].get('outputs'))}")
    for f in record["failures"]:
        print(f"  FAILED: {f}")


if __name__ == "__main__":
    sys.exit(main())
