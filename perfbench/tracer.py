"""Outside-in tracer for the spincluster benchmark.

It wraps package functions from outside, changing nothing under src/: each
wrapper sits on the attribute its caller actually reads, records one span per
call (name, start, end, parent span, run id) in memory, and every original is
put back afterwards. Layer totals and self times are computed from the spans
once the traced call has returned.
"""
from __future__ import annotations

import importlib
import time
from contextlib import contextmanager

import numpy as np

# (owner, attribute, span name). protocol imports its helpers by name, so
# they are wrapped in protocol's namespace; run() imports segment_phases from
# noise at call time; synthesis reaches minimize and sequence_unitary through
# its own globals; free_propagator is looked up on the class.
TARGETS = (
    ("spincluster.protocol", "run", "protocol.run"),
    ("spincluster.protocol", "component_fidelities", "protocol.component_fidelities"),
    ("spincluster.protocol", "find_corrections", "protocol.find_corrections"),
    ("spincluster.protocol", "ideal_target", "protocol.ideal_target"),
    ("spincluster.protocol", "emit_photon", "protocol.emit_photon"),
    ("spincluster.protocol", "apply_gate", "states.apply_gate"),
    ("spincluster.protocol", "noisy_sequence_unitary", "synthesis.noisy_sequence_unitary"),
    ("spincluster.protocol", "sequence_unitary", "synthesis.sequence_unitary"),
    ("spincluster.noise", "segment_phases", "noise.segment_phases"),
    ("spincluster.synthesis", "synthesize", "synthesis.synthesize"),
    ("spincluster.synthesis", "sequence_unitary", "synthesis.sequence_unitary"),
    ("spincluster.synthesis", "minimize", "synthesis.minimize"),
    ("spincluster.synthesis:UnitCompiler", "free_propagator",
     "synthesis.UnitCompiler.free_propagator"),
)
OBJECTIVE = "synthesis.objective"  # the cost-and-gradient `fun` given to minimize


def _owner(spec: str):
    module, _, cls = spec.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Single-threaded span recorder; spans are parallel lists indexed by id."""

    def __init__(self, run_id: int):
        self.names, self.parents, self.runs = [], [], []
        self.starts, self.ends = [], []
        self.run_id = run_id  # index of the traced call in the run's record
        self._open = [-1]

    def wrap(self, name: str, fn):
        names, parents, runs = self.names, self.parents, self.runs
        starts, ends, open_ = self.starts, self.ends, self._open
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            i = len(names)
            names.append(name)
            parents.append(open_[-1])
            runs.append(self.run_id)
            ends.append(0)
            open_.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                open_.pop()

        return traced

    def _wrap_minimize(self, fn):
        def minimize(fun, *args, **kwargs):
            return fn(self.wrap(OBJECTIVE, fun), *args, **kwargs)
        return self.wrap("synthesis.minimize", minimize)

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block; raises if any
        original could not be restored."""
        saved = []
        try:
            for owner_spec, attr, name in TARGETS:
                owner = _owner(owner_spec)
                orig = getattr(owner, attr)
                saved.append((owner, attr, orig))
                wrapped = (
                    self._wrap_minimize(orig) if name == "synthesis.minimize"
                    else self.wrap(name, orig)
                )
                setattr(owner, attr, wrapped)
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)
            left = [a for o, a, orig in saved if getattr(o, a) is not orig]
            if left:
                raise RuntimeError(f"tracer left wrappers on {left}")

    def arrays(self) -> dict:
        table = sorted(set(self.names))
        code = {n: i for i, n in enumerate(table)}
        return {
            "name_table": np.array(table),
            "name": np.array([code[n] for n in self.names], dtype=np.int32),
            "start_ns": np.array(self.starts, dtype=np.int64),
            "end_ns": np.array(self.ends, dtype=np.int64),
            "parent": np.array(self.parents, dtype=np.int64),
            "run": np.array(self.runs, dtype=np.int32),
        }

    def layers(self) -> dict:
        """{span name: {"calls", "s", "self_s"}}. Self time is a span's
        duration minus the time its direct children cover; spans of one
        thread nest, so that is the sum of the children's durations."""
        a = self.arrays()
        dur = (a["end_ns"] - a["start_ns"]).astype(float)
        has_parent = a["parent"] >= 0
        child = np.bincount(
            a["parent"][has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        self_ns = dur - child
        out = {}
        for i, name in enumerate(a["name_table"]):
            sel = a["name"] == i
            out[str(name)] = {
                "calls": int(sel.sum()),
                "s": float(dur[sel].sum()) / 1e9,
                "self_s": float(self_ns[sel].sum()) / 1e9,
            }
        return out

    def save(self, path) -> None:
        np.savez_compressed(path, **self.arrays())
