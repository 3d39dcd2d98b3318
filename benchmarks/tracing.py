"""Span tracing for the benchmark's traced run.

The tracer replaces the names through which ``hapticbayes.bench`` and
``hapticbayes.simulator`` call each layer with wrappers that record one
span per call, and puts the original objects back when it is uninstalled.
Spans live in flat in-memory arrays (name, start, end, parent, operation)
and are written out once, when the run ends.  Nothing is patched outside
:meth:`Tracer.installed`.
"""

from __future__ import annotations

import functools
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Callable, Optional

import numpy as np

from hapticbayes import bench, grid, materials, perception, simulator


@dataclass(frozen=True)
class Target:
    """One wrapped name: ``owner.attr`` is recorded as span ``span``.

    ``degenerate`` reads the degenerate flag from the call's result;
    ``starts_op`` marks calls that begin a new trial or sweep cell.
    """

    owner: object
    attr: str
    span: str
    degenerate: Optional[Callable[[object], bool]] = None
    starts_op: bool = False


#: Layers called by one pass of a workload, in report order.
LOOP_TARGETS = (
    Target(bench, "run_classification_experiment",
           "bench.run_classification_experiment", starts_op=True),
    Target(bench, "synthesize_sample", "materials.synthesize_sample"),
    Target(bench, "update_posterior", "perception.update_posterior",
           degenerate=lambda post: post.degenerate),
    Target(bench, "map_category", "perception.map_category"),
    Target(simulator, "run_trial", "simulator.run_trial", starts_op=True),
    Target(simulator, "sense", "simulator.sense"),
    Target(perception.PosteriorGrid, "update", "perception.PosteriorGrid.update",
           degenerate=lambda post: post.degenerate),
    Target(simulator, "inhibition_field", "attention.inhibition_field"),
    Target(grid.WorkspaceGrid, "center_arrays", "grid.WorkspaceGrid.center_arrays"),
    Target(simulator, "uncertainty_field", "attention.uncertainty_field"),
    Target(perception.PosteriorGrid, "entropies", "perception.PosteriorGrid.entropies"),
    Target(simulator, "omega_field", "attention.omega_field"),
    Target(simulator, "saliency_field", "attention.saliency_field"),
    Target(simulator, "target_posterior", "attention.target_posterior",
           degenerate=lambda result: result[1]),
    Target(simulator, "select_target", "attention.select_target"),
    Target(simulator, "gamma_metric", "simulator.gamma_metric"),
)

#: Layers called while a workload sets up its inputs.
SETUP_TARGETS = (
    Target(materials, "load_library", "materials.load_library"),
    Target(simulator, "generate_builtin_scenarios",
           "simulator.generate_builtin_scenarios"),
    Target(simulator, "load_scenario", "simulator.load_scenario"),
)

TARGETS = LOOP_TARGETS + SETUP_TARGETS


class Tracer:
    """Records spans in memory.

    ``op`` numbers the trial or sweep cell a span belongs to, counted
    from 0 over the run; spans the benchmark opens itself carry -1.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._name = array("i")
        self._start = array("q")
        self._end = array("q")
        self._parent = array("q")
        self._op = array("q")
        self._stack: list[int] = []
        self.current_op = -1
        self.degenerate: dict[str, int] = {}
        self.absent: list[str] = []

    def _open(self, name: str, op: int) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self._start)
        self._name.append(nid)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._op.append(op)
        self._end.append(0)
        self._stack.append(idx)
        self._start.append(perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self._end[idx] = perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span around the benchmark's own code."""
        idx = self._open(name, -1)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn: Callable, degenerate=None,
             starts_op: bool = False) -> Callable:
        """``fn`` with a span recorded around every call."""
        self.degenerate.setdefault(name, 0)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if starts_op:
                self.current_op += 1
            idx = self._open(name, self.current_op)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if degenerate is not None and degenerate(result):
                self.degenerate[name] += 1
            return result

        return traced

    @contextmanager
    def installed(self, targets=TARGETS):
        """Wrap every target present; restore the original objects on exit.

        A target the library no longer defines is skipped and listed in
        ``absent``, so its layer reads as never called.
        """
        saved = []
        try:
            for t in targets:
                original = vars(t.owner).get(t.attr)
                if original is None:
                    if t.span not in self.absent:
                        self.absent.append(t.span)
                    continue
                saved.append((t.owner, t.attr, original))
                setattr(t.owner, t.attr,
                        self.wrap(t.span, original, t.degenerate, t.starts_op))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def arrays(self) -> dict:
        """Every recorded span as numpy arrays, index-aligned."""
        return {
            "names": np.array(self.names, dtype=str),
            "name": np.frombuffer(self._name, dtype=np.int32).copy(),
            "start_ns": np.frombuffer(self._start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self._end, dtype=np.int64).copy(),
            "parent": np.frombuffer(self._parent, dtype=np.int64).copy(),
            "op": np.frombuffer(self._op, dtype=np.int64).copy(),
        }


def layer_times(spans: dict) -> dict:
    """Per span name: calls, total self time and per-call durations (ns).

    A span's self time is its duration minus the durations of its direct
    children, so the self times under a root span add up to that root's
    duration exactly.
    """
    dur = spans["end_ns"] - spans["start_ns"]
    parent = spans["parent"]
    child = parent >= 0
    covered = np.bincount(parent[child], weights=dur[child], minlength=dur.size)
    self_ns = dur - covered
    out = {}
    for nid, name in enumerate(spans["names"]):
        sel = spans["name"] == nid
        out[str(name)] = {
            "calls": int(sel.sum()),
            "self_ns": float(self_ns[sel].sum()),
            "durations_ns": dur[sel],
        }
    return out
