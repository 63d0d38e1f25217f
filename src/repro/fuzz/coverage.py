"""Branch-coverage signal over the engine hot paths.

The fuzz campaign steers mutation energy by *new behaviour*, not by
outputs: a candidate that exercises a previously unseen line-to-line
arc inside the simulation core (deadlock diagnoses, retroactive-commit
edges, forced-query resolution, retiming constraint checks) earns a
place in the corpus even when its differential comes back clean.

Two backends, picked automatically:

* ``sys.monitoring`` (PEP 669, Python 3.12+): per-code-object LINE
  events; locations outside the target modules are disabled at first
  sight, so steady-state overhead is confined to the instrumented
  files;
* ``sys.settrace`` fallback (3.11): a global call hook that only
  installs a local line tracer for frames whose code lives in a target
  module.

Arcs are ``(module, prev_line, line)`` triples per code object — a
cheap approximation of true branch coverage that still distinguishes
"took the deadlock diagnosis" from "fell through".  Coverage collection
never changes simulation behaviour; the hooks are observation-only.
"""

from __future__ import annotations

import importlib
import os
import sys

#: engine modules whose internal control flow guides the fuzzer — the
#: hot paths the tentpole names: query resolution, commit edges,
#:  deadlock diagnosis, scalar (columnar) and vectorized retiming.
TARGET_MODULES = (
    "repro.sim.omnisim",
    "repro.sim.cosim",
    "repro.sim.ledger",
    "repro.runtime.fifo",
    "repro.trace.columnar",
    "repro.trace.vectorized",
)


def target_files(modules=TARGET_MODULES) -> dict:
    """Map absolute source path -> short module name for the targets."""
    files = {}
    for name in modules:
        try:
            mod = importlib.import_module(name)
        except ImportError:  # optional targets never break collection
            continue
        path = getattr(mod, "__file__", None)
        if path:
            files[os.path.abspath(path)] = name.rsplit(".", 1)[-1]
    return files


class CoverageMap:
    """The campaign-global accumulator: merge a candidate's arcs, get
    back how many were new."""

    def __init__(self):
        self.edges: set = set()

    def merge(self, edges) -> int:
        fresh = set(edges) - self.edges
        self.edges |= fresh
        return len(fresh)

    def __len__(self) -> int:
        return len(self.edges)


class CoverageHook:
    """Context manager collecting line arcs for one evaluation.

    ``with CoverageHook() as hook: ...; hook.edges`` — the edge set is
    stable for a deterministic evaluation, so campaign replays (resume,
    pinned-regression reruns) observe identical coverage.
    """

    _MONITOR_TOOL_NAME = "repro-fuzz"

    def __init__(self, modules=TARGET_MODULES, backend: str | None = None):
        self.files = target_files(modules)
        self.edges: set = set()
        if backend not in (None, "monitoring", "settrace"):
            raise ValueError(f"unknown coverage backend {backend!r}")
        self.backend = backend
        self._tool_id = None
        self._prev_trace = None
        self._last: dict = {}

    # -- sys.monitoring backend ----------------------------------------

    def _try_monitoring(self) -> bool:
        mon = getattr(sys, "monitoring", None)
        if mon is None:
            return False
        tool_id = None
        for candidate in range(5, -1, -1):
            try:
                mon.use_tool_id(candidate, self._MONITOR_TOOL_NAME)
            except ValueError:
                continue
            tool_id = candidate
            break
        if tool_id is None:
            return False
        files, edges, last = self.files, self.edges, self._last
        disable = mon.DISABLE

        def on_line(code, line):
            name = files.get(code.co_filename)
            if name is None:
                return disable  # never hear from this location again
            key = id(code)
            edges.add((name, last.get(key), line))
            last[key] = line
            return None

        mon.register_callback(tool_id, mon.events.LINE, on_line)
        mon.set_events(tool_id, mon.events.LINE)
        self._tool_id = tool_id
        return True

    def _stop_monitoring(self) -> None:
        mon = sys.monitoring
        mon.set_events(self._tool_id, 0)
        mon.register_callback(self._tool_id, mon.events.LINE, None)
        mon.free_tool_id(self._tool_id)
        self._tool_id = None

    # -- sys.settrace backend ------------------------------------------

    def _start_settrace(self) -> None:
        files, edges = self.files, self.edges

        def global_trace(frame, event, arg):
            if event != "call":
                return None
            name = files.get(frame.f_code.co_filename)
            if name is None:
                return None
            prev = [None]

            def local_trace(frame, event, arg):
                if event == "line":
                    line = frame.f_lineno
                    edges.add((name, prev[0], line))
                    prev[0] = line
                return local_trace

            return local_trace

        self._prev_trace = sys.gettrace()
        sys.settrace(global_trace)

    # -- context manager ------------------------------------------------

    def __enter__(self) -> "CoverageHook":
        self._last.clear()
        if self.backend in (None, "monitoring") and self._try_monitoring():
            return self
        if self.backend == "monitoring":
            raise RuntimeError("sys.monitoring unavailable (need 3.12+ "
                               "and a free tool id)")
        self._start_settrace()
        return self

    def __exit__(self, *exc_info) -> None:
        if self._tool_id is not None:
            self._stop_monitoring()
        else:
            sys.settrace(self._prev_trace)
