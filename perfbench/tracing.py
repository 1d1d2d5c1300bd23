"""In-memory span recording around the public functions of parsearch.

A :class:`Tracer` replaces a function where a caller looks it up (a module
attribute) with a wrapper that records one span per call: name, start, end,
parent span and trial id.  Spans are kept in flat arrays while the workload
runs and written out once at the end.  Self time is a span's duration minus
the part of it that its child spans cover.
"""
from __future__ import annotations

import json
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

NO_PARENT = -1


class Tracer:
    """Records spans for every wrapped call; owns the patches it installs."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.trial = array("q")
        self.current_trial = NO_PARENT
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, on_return=None):
        """Return *fn* wrapped so each call records a span named *name*.

        ``on_return(tracer, args, result)`` runs after the span closes, so
        the counters it updates are measured at the layer boundary.
        """
        nid = self._id(name)
        stack = self._stack
        name_id, start, end = self.name_id, self.start, self.end
        parent, trial = self.parent, self.trial

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else NO_PARENT)
            trial.append(self.current_trial)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if on_return is not None:
                on_return(self, args, result)
            return result

        return traced

    def install(self, module, attr: str, name: str, on_return=None) -> None:
        """Replace ``module.attr`` by a traced wrapper until :meth:`uninstall`."""
        original = getattr(module, attr)
        self._patches.append((module, attr, original))
        setattr(module, attr, self.wrap(name, original, on_return))

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def __len__(self) -> int:
        return len(self.start)

    def arrays(self) -> dict:
        return {
            "name_id": np.array(self.name_id, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
            "parent": np.array(self.parent, dtype=np.int64),
            "trial": np.array(self.trial, dtype=np.int64),
        }

    def save(self, path) -> None:
        """Write every span, plus the name table, to one ``.npz`` file."""
        np.savez_compressed(path, names=np.array(json.dumps(self.names)),
                            **self.arrays())


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    run_s = run_e = None
    for s, e in sorted(intervals):
        if e <= s:
            continue
        if run_e is None or s > run_e:
            if run_e is not None:
                total += run_e - run_s
            run_s, run_e = s, e
        elif e > run_e:
            run_e = e
    if run_e is not None:
        total += run_e - run_s
    return total


def self_times(start, end, parent) -> list:
    """Per-span self time: duration minus the union of its children,
    each child clipped to its parent's interval."""
    start, end, parent = (np.asarray(x).tolist() for x in (start, end, parent))
    children: dict[int, list] = defaultdict(list)
    for i, p in enumerate(parent):
        if p != NO_PARENT:
            s, e = max(start[i], start[p]), min(end[i], end[p])
            if e > s:
                children[p].append((s, e))
    out = [e - s for s, e in zip(start, end)]
    for p, spans in children.items():
        out[p] -= union_length(spans)
    return out


def summarize(tracer: Tracer, wall_s: float) -> dict:
    """Per-name call counts and self seconds, and the uncovered wall time.

    ``unaccounted_s`` is the part of *wall_s* that no top-level span covers;
    the self times of all spans plus it add up to *wall_s*.
    """
    a = tracer.arrays()
    selfs = self_times(a["start"], a["end"], a["parent"])
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    for nid, st in zip(a["name_id"].tolist(), selfs):
        name = tracer.names[nid]
        calls[name] += 1
        self_s[name] += st
    top = a["parent"] == NO_PARENT
    covered = union_length(zip(a["start"][top].tolist(), a["end"][top].tolist()))
    return {
        "calls": dict(calls),
        "self_s": dict(self_s),
        "spans": len(tracer),
        "covered_s": covered,
        "unaccounted_s": wall_s - covered,
    }
