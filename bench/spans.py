"""In-memory span tracer that wraps locality_lab's public functions from outside.

`Tracer.install()` replaces every public function of the package modules,
every name those modules re-import from each other (for example
``inequalities.correlator_matrix`` or ``behavior.born_joint``) and every
public method of the classes they define, with a wrapper that records one
span per call. `Tracer.uninstall()` puts the originals back. The library code
is not edited; because the modules call each other through module globals,
nested calls are recorded as child spans.

A span is (id, parent, name, start, end) and is kept in flat arrays until
the run ends. A layer's self time is the sum over its spans of duration
minus the durations of their direct children. `covered()` gives the part of
given time windows that lies inside a span, from the span intervals alone and
without the parent links, so a caller can check that the self times and the
time outside every span add up to the wall time of the traced region.

With ``memory=True`` the tracer records, per layer, the largest tracemalloc
peak above the allocation level at span entry instead of keeping spans.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import time
import tracemalloc
from array import array
from collections import defaultdict

MODULES = ("qstate", "behavior", "causality", "inequalities", "everett", "spacetime", "cli")


def _layer(fn) -> str:
    return fn.__module__.rsplit(".", 1)[-1]


def _wrap_targets(package):
    """(owner, attribute, function, descriptor type) for every traced callable."""
    for modname in MODULES:
        mod = getattr(package, modname)
        for name, obj in list(vars(mod).items()):
            if name.startswith("_"):
                continue
            if inspect.isfunction(obj) and obj.__module__.startswith(package.__name__ + "."):
                yield mod, name, obj, None
            elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for mname, mobj in list(vars(obj).items()):
                    if mname.startswith("_"):
                        continue
                    if isinstance(mobj, (classmethod, staticmethod)):
                        yield obj, mname, mobj.__func__, type(mobj)
                    elif inspect.isfunction(mobj):
                        yield obj, mname, mobj, None


class Tracer:
    def __init__(self, package, hooks=None, memory: bool = False):
        self.package = package
        self.hooks = hooks or {}
        self.memory = memory
        self.names: list[str] = []
        self.layers: list[str] = []
        self.parent = array("i")
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.peak_bytes: dict[str, int] = defaultdict(int)
        self._mem_stack: list[list[int]] = []  # [entry level, running peak]
        self._saved: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        wrappers = {}
        for owner, attr, fn, descriptor in _wrap_targets(self.package):
            if fn not in wrappers:
                wrappers[fn] = self._wrap(fn)
            wrapped = wrappers[fn] if descriptor is None else descriptor(wrappers[fn])
            self._saved.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, fn):
        idx = len(self.names)
        qualname = f"{_layer(fn)}.{fn.__qualname__}"
        self.names.append(qualname)
        self.layers.append(_layer(fn))
        hook = self.hooks.get(qualname)
        if self.memory:
            return self._wrap_memory(fn, _layer(fn))
        clock = time.perf_counter
        start, end, parent, name, stack = self.start, self.end, self.parent, self.name, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(start)
            parent.append(stack[-1] if stack else -1)
            name.append(idx)
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if hook is not None:
                hook(self, sid, args, kwargs, result)
            return result

        return wrapper

    def _wrap_memory(self, fn, layer):
        mem = self._mem_stack
        peaks = self.peak_bytes

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            current, peak = tracemalloc.get_traced_memory()
            if mem:
                mem[-1][1] = max(mem[-1][1], peak)
            tracemalloc.reset_peak()
            mem.append([current, current])
            try:
                return fn(*args, **kwargs)
            finally:
                entry, running = mem.pop()
                top = max(running, tracemalloc.get_traced_memory()[1])
                peaks[layer] = max(peaks[layer], top - entry)
                if mem:
                    mem[-1][1] = max(mem[-1][1], top)

        return wrapper

    # -- analysis -----------------------------------------------------------

    def span_name(self, sid: int) -> str:
        return self.names[self.name[sid]]

    def duration(self, sid: int) -> float:
        return self.end[sid] - self.start[sid]

    def self_times(self) -> dict[str, float]:
        """Per-layer self time: span durations minus those of their direct children."""
        child_sum = [0.0] * len(self.start)
        for sid in range(len(self.start)):
            p = self.parent[sid]
            if p >= 0:
                child_sum[p] += self.end[sid] - self.start[sid]
        per_layer: dict[str, float] = defaultdict(float)
        for sid in range(len(self.start)):
            per_layer[self.layers[self.name[sid]]] += self.end[sid] - self.start[sid] - child_sum[sid]
        return per_layer

    def covered(self, windows) -> float:
        """Seconds of the ordered, disjoint (start, end) ``windows`` that lie inside a span.

        Taken from the span intervals alone, without the parent links.
        """
        merged: list[list[float]] = []  # union of all span intervals, in order
        for sid in sorted(range(len(self.start)), key=self.start.__getitem__):
            lo, hi = self.start[sid], self.end[sid]
            if merged and lo <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], hi)
            else:
                merged.append([lo, hi])
        total, i = 0.0, 0
        for lo, hi in windows:
            while i < len(merged) and merged[i][1] <= lo:
                i += 1
            j = i
            while j < len(merged) and merged[j][0] < hi:
                total += min(hi, merged[j][1]) - max(lo, merged[j][0])
                j += 1
        return total

    def by_name(self) -> dict[str, list[int]]:
        out: dict[str, list[int]] = defaultdict(list)
        for sid in range(len(self.start)):
            out[self.names[self.name[sid]]].append(sid)
        return out

    def write_jsonl(self, path, origin: float) -> int:
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for sid in range(len(self.start)):
                fh.write(
                    json.dumps(
                        {
                            "id": sid,
                            "parent": self.parent[sid],
                            "name": self.names[self.name[sid]],
                            "start_s": round(self.start[sid] - origin, 9),
                            "end_s": round(self.end[sid] - origin, 9),
                        }
                    )
                    + "\n"
                )
        return len(self.start)
