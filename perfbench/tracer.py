"""Outside-in tracer: spans around the public functions of each layer.

The tracer wraps each function or method in LAYER_TARGETS and replaces every
binding of that function object across the ``clifbundle.*`` module globals,
because ``spinor``, ``fields`` and ``cli`` bind names such as ``clifford``
and ``gamma_set_for_signature`` with ``from ... import``.  Methods are
replaced on their class.  Nothing inside the program changes, and
``uninstall`` puts every original binding back.

Each call records one span: name, start, end, parent span and operation id.
Spans are kept in compact arrays in memory and written out once, when the
run ends.  A span's self time is its duration minus the time its direct
child spans cover; calls are single-threaded, so children nest inside their
parent and never overlap one another.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from array import array

import numpy as np

# (module, attribute path) of every traced function, grouped by layer
LAYER_TARGETS = (
    ("clifbundle.ga", "clifford"),
    ("clifbundle.ga", "wedge"),
    ("clifbundle.ga", "interior"),
    ("clifbundle.exact", "rref"),
    ("clifbundle.spinor", "find_primitive_idempotent"),
    ("clifbundle.spinor", "minimal_left_ideal"),
    ("clifbundle.spinor", "spinor_rep_matrices"),
    ("clifbundle.spinor", "gamma_set_for_signature"),
    ("clifbundle.spinor", "GammaSet.anticommutator_residuals"),
    ("clifbundle.spinor", "sigma_generators"),
    ("clifbundle.spinor", "verify_iso_table"),
    ("clifbundle.transport", "evolve"),
    ("clifbundle.transport", "HamiltonianSpec.matrix"),
    ("clifbundle.transport", "Transport.fibre_evolution"),
    ("clifbundle.fields", "dirac_hamiltonian"),
    ("clifbundle.fields", "klein_gordon_hamiltonian"),
    ("clifbundle.fields", "dirac_hamiltonian_evolve"),
    ("clifbundle.fields", "klein_gordon_evolve"),
    ("clifbundle.fields", "minkowski_gamma_set"),
    ("clifbundle.cli", "main"),
    ("clifbundle.report", "Report.to_json"),
)

# per-layer metrics: name -> (unit, better)
PER_LAYER_METRICS = {
    "ga.clifford.calls": ("count", "lower"),
    "ga.clifford.self_s": ("s", "lower"),
    "ga.clifford.term_pairs": ("count", "lower"),
    "ga.clifford.pairs_per_s": ("1/s", "higher"),
    "ga.wedge.calls": ("count", "lower"),
    "ga.wedge.self_s": ("s", "lower"),
    "ga.interior.calls": ("count", "lower"),
    "ga.interior.self_s": ("s", "lower"),
    "exact.rref.calls": ("count", "lower"),
    "exact.rref.self_s": ("s", "lower"),
    "exact.rref.cells": ("count", "lower"),
    "exact.rref.rank_ratio": ("ratio", "higher"),
    "spinor.find_primitive_idempotent.calls": ("count", "lower"),
    "spinor.find_primitive_idempotent.self_s": ("s", "lower"),
    "spinor.find_primitive_idempotent.clifford_calls": ("count", "lower"),
    "spinor.minimal_left_ideal.calls": ("count", "lower"),
    "spinor.minimal_left_ideal.self_s": ("s", "lower"),
    "spinor.spinor_rep_matrices.calls": ("count", "lower"),
    "spinor.spinor_rep_matrices.self_s": ("s", "lower"),
    "spinor.gamma_set_for_signature.calls": ("count", "lower"),
    "spinor.GammaSet.anticommutator_residuals.self_s": ("s", "lower"),
    "spinor.sigma_generators.self_s": ("s", "lower"),
    "spinor.verify_iso_table.self_s": ("s", "lower"),
    "transport.evolve.calls": ("count", "lower"),
    "transport.evolve.self_s": ("s", "lower"),
    "transport.evolve.steps": ("count", "lower"),
    "transport.evolve.steps_per_s": ("1/s", "higher"),
    "transport.HamiltonianSpec.matrix.calls": ("count", "lower"),
    "transport.HamiltonianSpec.matrix.self_s": ("s", "lower"),
    "transport.Transport.fibre_evolution.calls": ("count", "lower"),
    "transport.fibre_cache_hit_ratio": ("ratio", "higher"),
    "fields.dirac_hamiltonian.calls": ("count", "lower"),
    "fields.dirac_hamiltonian.self_s": ("s", "lower"),
    "fields.dirac_hamiltonian.sites_per_s": ("1/s", "higher"),
    "fields.klein_gordon_hamiltonian.calls": ("count", "lower"),
    "fields.klein_gordon_hamiltonian.self_s": ("s", "lower"),
    "fields.dirac_hamiltonian_evolve.self_s": ("s", "lower"),
    "fields.klein_gordon_evolve.self_s": ("s", "lower"),
    "fields.minkowski_gamma_set.calls": ("count", "lower"),
    "fields.minkowski_gamma_set.self_s": ("s", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "report.Report.to_json.self_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


def span_name(module: str, attr: str) -> str:
    """``clifbundle.ga`` + ``clifford`` -> ``ga.clifford``."""
    return module.split(".", 1)[1] + "." + attr


def _steps(args, kwargs) -> int:
    """RK4 steps evolve(h, t, s, dt) takes, read from its arguments."""
    bound = dict(zip(("h", "t", "s", "dt"), args), **kwargs)
    span = abs(bound["t"] - bound["s"])
    return 0 if span == 0 else max(1, math.ceil(span / bound["dt"]))


# Work counted at the call boundary, from the arguments and the result.
# Each counter returns {metric suffix: increment}; `outer` is False for a
# call made while another span of the same function is open.
def _count_clifford(args, kwargs, result, outer):
    if not outer:
        return {}
    a, b = args[0], args[1]
    return {"term_pairs": len(a.terms) * len(b.terms)}


def _count_rref(args, kwargs, result, outer):
    mat = args[0] if args else kwargs["mat"]
    rows, cols = mat.shape
    return {"cells": rows * cols, "rows": rows, "pivots": len(result[1])}


def _count_evolve(args, kwargs, result, outer):
    return {"steps": _steps(args, kwargs)}


def _count_dirac_hamiltonian(args, kwargs, result, outer):
    grid = args[1] if len(args) > 1 else kwargs["grid"]
    return {"sites": grid.volume}


COUNTERS = {
    "ga.clifford": _count_clifford,
    "exact.rref": _count_rref,
    "transport.evolve": _count_evolve,
    "fields.dirac_hamiltonian": _count_dirac_hamiltonian,
}


class Tracer:
    """Span recorder and binding patcher for one traced run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.op_id = -1
        self.counts: dict[str, float] = {}
        self.outer_seconds: dict[str, float] = {}
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def intern(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self.stack[-1] if self.stack else -1)
        self.span_op.append(self.op_id)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self.stack.append(idx)
        self.span_start[idx] = self.clock()
        return idx

    def close(self, idx: int) -> None:
        self.span_end[idx] = self.clock()
        self.stack.pop()

    def wrap(self, name: str, fn):
        nid = self.intern(name)
        counter = COUNTERS.get(name)
        depth = [0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer = depth[0] == 0
            depth[0] += 1
            idx = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
                depth[0] -= 1
            if counter is not None:
                for key, inc in counter(args, kwargs, result, outer).items():
                    full = f"{name}.{key}"
                    self.counts[full] = self.counts.get(full, 0) + inc
                if outer:
                    elapsed = self.span_end[idx] - self.span_start[idx]
                    self.outer_seconds[name] = self.outer_seconds.get(name, 0.0) + elapsed
            return result

        traced.__perfbench_original__ = fn
        return traced

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        """Wrap every target and rebind it wherever clifbundle refers to it."""
        modules = clifbundle_modules()
        for module_name, attr in LAYER_TARGETS:
            owner = sys.modules[module_name]
            path = attr.split(".")
            for part in path[:-1]:
                owner = getattr(owner, part)
            original = getattr(owner, path[-1])
            wrapped = self.wrap(span_name(module_name, attr), original)
            self._rebind(owner, path[-1], wrapped)
            if len(path) == 1:
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._rebind(module, key, wrapped)

    def _rebind(self, namespace, key: str, value) -> None:
        original = getattr(namespace, key)
        if original is value:
            return
        self._patched.append((namespace, key, original))
        setattr(namespace, key, value)

    def uninstall(self) -> None:
        while self._patched:
            namespace, key, original = self._patched.pop()
            setattr(namespace, key, original)

    # -- results -----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.span_name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.span_parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.span_op, dtype=np.int32).copy(),
            "start": np.frombuffer(self.span_start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.span_end, dtype=np.float64).copy(),
        }

    def dump(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics from the recorded spans and boundary counts."""
        return layer_metrics(self.names, self.arrays(), self.counts, self.outer_seconds)


def clifbundle_modules() -> list:
    return [
        module for name, module in sorted(sys.modules.items())
        if module is not None and (name == "clifbundle" or name.startswith("clifbundle."))
    ]


def leftover_wrappers() -> list[str]:
    """Bindings in clifbundle that still point at a tracer wrapper."""
    found = []
    for module in clifbundle_modules():
        for key, value in vars(module).items():
            if hasattr(value, "__perfbench_original__"):
                found.append(f"{module.__name__}.{key}")
            elif isinstance(value, type) and value.__module__ == module.__name__:
                for attr, member in vars(value).items():
                    if hasattr(member, "__perfbench_original__"):
                        found.append(f"{module.__name__}.{key}.{attr}")
    return found


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Duration of each span minus the durations of its direct children."""
    dur = end - start
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    return dur - covered


def layer_metrics(names, spans, counts, outer_seconds) -> dict[str, float]:
    """Every per-layer metric except trace.overhead_ratio; 0 where unreached."""
    nspan = len(spans["start"])
    self_s = self_times(spans["parent"], spans["start"], spans["end"])
    ids = spans["name"]
    calls = np.bincount(ids, minlength=len(names)) if nspan else np.zeros(len(names))
    selfsum = np.bincount(ids, weights=self_s, minlength=len(names)) if nspan else np.zeros(len(names))

    def idx(name):
        return names.index(name) if name in names else -1

    def n_calls(name):
        i = idx(name)
        return int(calls[i]) if i >= 0 else 0

    def self_of(name):
        i = idx(name)
        return float(selfsum[i]) if i >= 0 else 0.0

    def children_named(parent_name, child_name):
        pi, ci = idx(parent_name), idx(child_name)
        if pi < 0 or ci < 0 or not nspan:
            return 0
        parent = spans["parent"]
        has_parent = parent >= 0
        parent_ids = np.full(nspan, -1)
        parent_ids[has_parent] = ids[parent[has_parent]]
        return int(np.sum((ids == ci) & (parent_ids == pi)))

    def rate(numerator, seconds):
        return numerator / seconds if seconds > 0 else 0.0

    out: dict[str, float] = {}
    for metric in PER_LAYER_METRICS:
        if metric.endswith(".calls"):
            out[metric] = n_calls(metric[: -len(".calls")])
        elif metric.endswith(".self_s"):
            out[metric] = self_of(metric[: -len(".self_s")])
    out["ga.clifford.term_pairs"] = int(counts.get("ga.clifford.term_pairs", 0))
    out["ga.clifford.pairs_per_s"] = rate(
        counts.get("ga.clifford.term_pairs", 0), outer_seconds.get("ga.clifford", 0.0)
    )
    out["exact.rref.cells"] = int(counts.get("exact.rref.cells", 0))
    rows = counts.get("exact.rref.rows", 0)
    out["exact.rref.rank_ratio"] = counts.get("exact.rref.pivots", 0) / rows if rows else 0.0
    out["spinor.find_primitive_idempotent.clifford_calls"] = children_named(
        "spinor.find_primitive_idempotent", "ga.clifford"
    )
    out["transport.evolve.steps"] = int(counts.get("transport.evolve.steps", 0))
    out["transport.evolve.steps_per_s"] = rate(
        counts.get("transport.evolve.steps", 0), outer_seconds.get("transport.evolve", 0.0)
    )
    fibre_calls = n_calls("transport.Transport.fibre_evolution")
    misses = children_named("transport.Transport.fibre_evolution", "transport.evolve")
    out["transport.fibre_cache_hit_ratio"] = (fibre_calls - misses) / fibre_calls if fibre_calls else 0.0
    out["fields.dirac_hamiltonian.sites_per_s"] = rate(
        counts.get("fields.dirac_hamiltonian.sites", 0), self_of("fields.dirac_hamiltonian")
    )
    return out
