"""Span tracing of boundcount's layers, installed from outside the package.

Each traced function is replaced, at every module attribute (or class
attribute) where callers look it up, by a wrapper that records a span:
name, start, end, parent span and the request/alpha tag current when it
started.  Spans stay in memory and are written out once, at the end of the
run.  The traced workloads run on one thread, so one stack of open spans
gives every span its parent.
"""

from __future__ import annotations

import functools
import itertools
import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans = []            # (sid, name, start, end, parent, tag)
        self.counters = defaultdict(float)
        self.request = None        # request id set by the driver
        self._stack = []           # ids of the open spans
        self._ids = itertools.count(1)

    def add(self, key: str, amount: float = 1.0) -> None:
        self.counters[key] += amount

    def wrap(self, name: str, fn, count=None, alpha_arg: int | None = None):
        """Wrapper recording a span per call; ``count(tracer, args, kwargs)``
        records counters, ``alpha_arg`` is the positional index of alpha."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else 0
            sid = next(tracer._ids)
            tag = tracer.request
            if alpha_arg is not None and len(args) > alpha_arg:
                tag = f"{tag}@alpha={float(args[alpha_arg]):.6g}"
            if count is not None:
                count(tracer, args, kwargs)
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((sid, name, start, end, parent, tag))

        return traced

    def self_times(self) -> dict:
        """Seconds per span name, each span's duration minus the union of the
        intervals its children cover."""
        children = defaultdict(list)
        for sid, _, start, end, parent, _ in self.spans:
            if parent:
                children[parent].append((start, end))
        out = defaultdict(float)
        for sid, name, start, end, _, _ in self.spans:
            covered = 0.0
            cursor = start
            for lo, hi in sorted(children.get(sid, ())):
                lo, hi = max(lo, cursor), min(hi, end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out[name] += (end - start) - covered
        return out

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for sid, name, start, end, parent, tag in self.spans:
                fh.write(json.dumps([sid, name, start, end, parent, tag]) + "\n")


def replace_everywhere(modules, original, replacement) -> None:
    """Rebind every module attribute that holds ``original``."""
    for module in modules:
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)
