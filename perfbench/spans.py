"""Spans and counters recorded from the benchmark's own files.

A span is (name, start, end, parent) inside one workload run; spans stay in
memory and are written out once, when the run ends. Library functions are
timed by swapping the module attributes that name them for wrappers, so
calls made inside the library through those names are seen too; nothing
in the program itself is edited.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self, run_id, clock=time.perf_counter):
        self.run_id = run_id
        self.clock = clock
        self.spans = []  # [name, start, end, parent index or -1]
        self.counters = defaultdict(float)
        self._stack = []

    @contextlib.contextmanager
    def span(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = self.clock()

    def count(self, name, n=1):
        self.counters[name] += n

    def inside(self, name):
        """True while a span called `name` is open."""
        return any(self.spans[i][0] == name for i in self._stack)

    def wrap(self, fn, name, after=None):
        """fn inside a span; after(result, args, kwargs) runs once it returns."""

        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(result, args, kwargs)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"run_id": self.run_id,
                       "fields": ["name", "start", "end", "parent", "run_id"],
                       "spans": [s + [self.run_id] for s in self.spans],
                       "counters": dict(self.counters)}, f)


class NullTracer:
    """Untraced runs: spans cost one call and record nothing."""

    run_id = None
    _NULL = contextlib.nullcontext()

    def span(self, name):
        return self._NULL

    def count(self, name, n=1):
        pass


def self_times(spans):
    """Per span: duration minus the union of its direct children's
    intervals, clipped to the span."""
    children = defaultdict(list)
    for i, (_, start, end, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append((end - start) - covered)
    return out


def summarize(spans):
    """{name: (calls, inclusive seconds, self seconds)}; a name nested in
    itself counts its inclusive time once, at the outermost span."""
    selfs = self_times(spans)
    table = defaultdict(lambda: [0, 0.0, 0.0])
    for i, (name, start, end, parent) in enumerate(spans):
        row = table[name]
        row[0] += 1
        row[2] += selfs[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            row[1] += end - start
    return {k: tuple(v) for k, v in table.items()}


class Patches:
    """Module-attribute swaps, undone in reverse order by restore()."""

    def __init__(self):
        self._undo = []

    def replace(self, modules, original, replacement):
        """Point every name bound to `original` in `modules` at `replacement`."""
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, value))

    def restore(self):
        while self._undo:
            mod, attr, value = self._undo.pop()
            setattr(mod, attr, value)
