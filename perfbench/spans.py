"""Spans around escm's public functions, recorded from outside the program.

``install`` replaces each traced function with a wrapper that records a
span: name, start, end, parent span and operation id.  A function is
replaced under every name callers look it up by: a module that did
``from .solver import solve`` holds its own binding, so every ``escm``
module attribute that is the original function is rebound, and methods
are replaced on their class.  Spans stay in memory (flat arrays, so a run
of a million spans costs tens of megabytes) and ``save`` writes them when
the run has ended.

Self time is a span's duration minus the durations of its direct
children; calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import sys
import time
from array import array
from functools import wraps
from pathlib import Path

import numpy as np

# (module, attribute path, span name, quantities reported); "calls",
# "self_ms" and "iterations" are means per timed operation
TRACED = [
    ("escm.engine", "Objective.term_jet", "engine.term_jet", ("calls", "self_ms", "max_k")),
    ("escm.engine", "Objective.value", "engine.value", ("calls", "self_ms")),
    ("escm.engine", "Objective.derivatives", "engine.derivatives",
     ("calls", "self_ms", "max_mb")),
    ("escm.solver", "solve", "solver.solve",
     ("calls", "self_ms", "iterations", "max_free", "accept_ratio")),
    ("escm.causal", "abduct", "causal.abduct", ("self_ms",)),
    ("escm.causal", "apply_surgery", "causal.apply_surgery", ("self_ms",)),
    ("escm.causal", "counterfactual", "causal.counterfactual", ("self_ms",)),
    ("escm.causal", "evaluate_readout", "causal.evaluate_readout", ("calls", "self_ms")),
    ("escm.diagnostics", "lap_check", "diagnostics.lap_check", ("calls", "self_ms")),
    ("escm.diagnostics", "icm_check", "diagnostics.icm_check", ("calls", "self_ms")),
    ("escm.diagnostics", "lap_penalty", "diagnostics.lap_penalty", ("self_ms",)),
    ("escm.diagnostics", "icm_penalty", "diagnostics.icm_penalty", ("self_ms",)),
    ("escm.dynamics", "dyn_lap_check", "dynamics.dyn_lap_check", ("self_ms",)),
    ("escm.dynamics", "dyn_icm_check", "dynamics.dyn_icm_check", ("self_ms",)),
    ("escm.reduction", "induce_scm", "reduction.induce_scm", ("self_ms",)),
    ("escm.reduction", "InducedScm.mechanism", "reduction.InducedScm.mechanism",
     ("calls", "self_ms")),
    ("escm.reduction", "pushforward_check", "reduction.pushforward_check", ("self_ms",)),
    ("escm.reduction", "equivalence_check", "reduction.equivalence_check", ("self_ms",)),
    ("escm.cli", "run", "cli.run", ("self_ms",)),
    ("escm.report", "canonical_json", "report.canonical_json", ("self_ms",)),
    ("escm.model", "parse_model", "model.parse_model", ("calls", "self_ms")),
]
_UNITS = {
    "calls": ("count", "lower"), "self_ms": ("ms", "lower"),
    "max_k": ("count", "lower"), "max_mb": ("MB", "lower"),
    "iterations": ("count", "lower"), "max_free": ("count", "lower"),
    "accept_ratio": ("ratio", "higher"),
}
# per-layer metric name -> (unit, better)
PER_LAYER = {f"{name}.{q}": _UNITS[q] for _, _, name, qs in TRACED for q in qs}


def _derivatives_mb(result) -> float:
    """Bytes of the arrays ``derivatives`` returns, from their shapes."""
    size = 0
    for arr in (result.grad, result.hess, result.third):
        if arr is not None:
            size += int(np.prod(arr.shape))
    for block in (result.owner_hess or {}).values():
        size += int(np.prod(block.shape))
    return size * 8 / 1e6


class Tracer:
    """In-memory span recorder; ``op`` is the id stamped on new spans."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op_of = array("q")
        self.name_of = array("q")
        self._stack: list[int] = []
        self.op = -1
        self.max_k = 0
        self.max_mb = 0.0
        self.max_free = 0
        self.iterations: dict[int, int] = {}  # solve span -> iterations

    def span(self, name: str, fn, after=None):
        name_id = self._ids[name] = len(self.names)
        self.names.append(name)
        clock = time.perf_counter

        @wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.op_of.append(self.op)
            self.name_of.append(name_id)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self._stack.pop()
            if after is not None:
                after(idx, args, kwargs, result)
            return result

        return traced

    def _after_term_jet(self, idx, args, kwargs, result):
        active = kwargs["active"] if "active" in kwargs else args[3]
        self.max_k = max(self.max_k, len(active))

    def _after_derivatives(self, idx, args, kwargs, result):
        self.max_mb = max(self.max_mb, _derivatives_mb(result))

    def _after_solve(self, idx, args, kwargs, result):
        self.max_free = max(self.max_free, len(result.free))
        self.iterations[idx] = result.iterations

    def install(self) -> None:
        """Wrap every function in TRACED under all its escm bindings."""
        hooks = {"engine.term_jet": self._after_term_jet,
                 "engine.derivatives": self._after_derivatives,
                 "solver.solve": self._after_solve}
        modules = [m for key, m in list(sys.modules.items())
                   if key == "escm" or key.startswith("escm.")]
        for module_name, path, name, _ in TRACED:
            owner = sys.modules[module_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self.span(name, original, hooks.get(name))
            if outer:
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "start": np.frombuffer(self.start, dtype=float).copy(),
            "end": np.frombuffer(self.end, dtype=float).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "op": np.frombuffer(self.op_of, dtype=np.int64).copy(),
            "name": np.frombuffer(self.name_of, dtype=np.int64).copy(),
        }

    def per_layer(self, op_scale: np.ndarray) -> dict[str, float]:
        """Per-layer metrics over the spans of timed operations (op >= 0);
        ``op_scale[op]`` scales the times of operation ``op``."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        timed = a["op"] >= 0
        self_ms = (dur - child) * 1e3
        self_ms[timed] *= op_scale[a["op"][timed]]
        ops = len(op_scale)
        out: dict[str, float] = {}
        for _, _, name, _ in TRACED:
            sel = timed & (a["name"] == self._ids[name])
            out[f"{name}.calls"] = int(np.count_nonzero(sel)) / ops
            out[f"{name}.self_ms"] = float(np.sum(self_ms[sel])) / ops
        out["engine.term_jet.max_k"] = self.max_k
        out["engine.derivatives.max_mb"] = self.max_mb
        out["solver.solve.max_free"] = self.max_free
        solves = np.flatnonzero(timed & (a["name"] == self._ids["solver.solve"]))
        iterations = sum(self.iterations[int(i)] for i in solves)
        out["solver.solve.iterations"] = iterations / ops
        # each solve evaluates the energy once at its start, then once per
        # candidate step
        values = a["name"] == self._ids["engine.value"]
        under_solve = np.isin(a["parent"], solves) & values
        candidates = int(np.count_nonzero(under_solve)) - len(solves)
        out["solver.solve.accept_ratio"] = iterations / candidates if candidates else 0.0
        return {key: out[key] for key in PER_LAYER}

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())
