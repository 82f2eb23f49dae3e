"""In-memory span recorder for the traced run.

A span is (name, start, end, parent, op): `parent` is the index of the
enclosing span (-1 for a root) and `op` the id of the op that caused it.
Spans stay in memory until the run ends, then `write` dumps them as JSON
lines. Tracing lives entirely in the benchmark: spans wrap the benchmark's
own calls into the library, or library functions the benchmark temporarily
rebinds in a module namespace (`patched`), never code inside `src/`.
"""
from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self._stack: list[int] = []
        self.op = -1

    def call(self, name, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called `name`."""
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def self_times(self) -> dict[str, list[float]]:
        """Per span name, each span's duration minus its direct children's."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(list)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name].append(end - start - child[i])
        return out

    def durations(self) -> dict[str, list[float]]:
        out = defaultdict(list)
        for name, start, end, _, _ in self.spans:
            out[name].append(end - start)
        return out

    def write(self, path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, start, end, parent, op]) + "\n")


@contextmanager
def patched(tracer: Tracer, targets):
    """Rebind each (namespace, attribute, span name) to a traced wrapper.

    `namespace` is a module or a dict. Originals are restored on exit, so
    untraced ops run the library exactly as shipped.
    """
    saved = []
    try:
        for ns, attr, name in targets:
            if isinstance(ns, dict):
                saved.append((ns, attr, ns[attr]))
                ns[attr] = tracer.wrap(name, ns[attr])
            else:
                saved.append((ns, attr, getattr(ns, attr)))
                setattr(ns, attr, tracer.wrap(name, getattr(ns, attr)))
        yield
    finally:
        for ns, attr, orig in reversed(saved):
            if isinstance(ns, dict):
                ns[attr] = orig
            else:
                setattr(ns, attr, orig)
