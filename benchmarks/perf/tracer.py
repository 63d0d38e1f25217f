"""In-memory spans and counters for the traced benchmark pass.

The harness records one span around each call into a layer's public
entry point — ``(id, parent, op_id, name, start_ns, end_ns, slowdown)``
— and counters at the same boundaries.  Nothing is written until the
run ends (:meth:`Tracer.write`), so tracing costs two clock reads and
one list append per span.  A span's *self time* is its duration minus
the part of that interval its direct children cover.

Span times are raw clock readings.  :meth:`Tracer.bracket` samples the
machine's slowdown (:mod:`calibrate`) before and after a traced op and
stamps it on every span opened in between; seconds are always reported
divided by it, which puts per-layer times on the same speed-normalised
scale as the end-to-end metrics.  A span outside any bracket has
slowdown 1 and reads as measured.

Spans nest per thread (the ``serve_sweep`` clients run on two threads);
``op_id`` ties the spans of one user-visible operation together.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager

from calibrate import Timed


class Tracer:
    def __init__(self):
        #: [id, parent id or None, op id, name, start_ns, end_ns,
        #:  slowdown]
        self.spans: list = []
        #: [span id or None, op id, name, value]
        self.counters: list = []
        #: the slowdown of every bracket, for the run record
        self.slowdowns: list = []
        self._local = threading.local()
        self._lock = threading.Lock()

    @contextmanager
    def bracket(self):
        """Sample the machine's slowdown before and after the block and
        stamp the mean on every span opened inside it (by any thread).
        Brackets do not nest."""
        first = len(self.spans)
        timed = Timed()
        try:
            with timed:
                yield
        finally:
            self.slowdowns.append(timed.slowdown)
            for record in self.spans[first:]:
                record[6] = timed.slowdown

    @staticmethod
    def seconds(record) -> float:
        """Speed-normalised duration of a closed span (read it after
        the enclosing bracket has closed)."""
        return (record[5] - record[4]) / 1e9 / record[6]

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def op(self, op_id):
        """Tag every span and counter opened inside with ``op_id``."""
        previous = getattr(self._local, "op_id", None)
        self._local.op_id = op_id
        try:
            yield
        finally:
            self._local.op_id = previous

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        record = [None, stack[-1] if stack else None,
                  getattr(self._local, "op_id", None), name, 0, 0, 1.0]
        with self._lock:
            record[0] = len(self.spans)
            self.spans.append(record)
        stack.append(record[0])
        record[4] = time.perf_counter_ns()
        try:
            yield record
        finally:
            record[5] = time.perf_counter_ns()
            stack.pop()

    def count(self, name: str, value) -> None:
        stack = self._stack()
        self.counters.append([stack[-1] if stack else None,
                              getattr(self._local, "op_id", None),
                              name, value])

    def write(self, path) -> None:
        """One JSON object per line: spans first, then counters."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, op_id, name, start, end, slow in self.spans:
                fh.write(json.dumps({
                    "kind": "span", "id": sid, "parent": parent,
                    "op_id": op_id, "name": name, "start_ns": start,
                    "end_ns": end, "slowdown": slow}) + "\n")
            for sid, op_id, name, value in self.counters:
                fh.write(json.dumps({
                    "kind": "counter", "span": sid, "op_id": op_id,
                    "name": name, "value": value}) + "\n")


def covered_ns(intervals) -> int:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans) -> dict:
    """Span id -> self time in ns, as measured (duration minus
    child-covered part)."""
    children: dict = {}
    for sid, parent, _op, _name, start, end, _slow in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, _parent, _op, _name, start, end, _slow in spans:
        clipped = [(max(s, start), min(e, end))
                   for s, e in children.get(sid, ())
                   if min(e, end) > max(s, start)]
        out[sid] = (end - start) - covered_ns(clipped)
    return out


def seconds_by_name(spans, *, self_only: bool = True) -> dict:
    """Span name -> list of per-span speed-normalised seconds (self
    time by default)."""
    own = self_times(spans) if self_only else None
    out: dict = {}
    for sid, _parent, _op, name, start, end, slow in spans:
        ns = own[sid] if self_only else end - start
        out.setdefault(name, []).append(ns / 1e9 / slow)
    return out
