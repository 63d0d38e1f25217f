"""``repro.api`` — the public programmatic surface of the reproduction.

The paper pitches "C speed with RTL accuracy" as a *service* a designer
iterates against; this package is that service's API.  One
:class:`Session` per design owns the cached compiled artifact and the
captured run's trace artifact, and every operation — single runs
across all registered engines, incremental re-simulation, batched multi-run
execution over a process pool, depth-space sweeps, taxonomy analysis —
goes through it::

    from repro.api import Session

    session = Session.open("typea_large", n=256)
    print(session.run().cycles)                      # RTL-accurate
    print(session.resimulate({"sc": 8}).cycles)      # incremental, µs
    results = session.run_many(
        [{"depths": {"sc": d}} for d in (1, 2, 4, 8)], jobs=2)

Engines are named through the formal registry re-exported here
(:func:`engine_names`, :func:`get_engine`, :func:`register_engine`) —
capability records replace hard-coded engine-name special cases.  The
CLI, the benchmark harness and ``repro.dse`` are all built on this
package; anything they can do, library callers can do directly.
"""

from importlib import import_module

from ..sim.registry import (
    Engine,
    EngineInfo,
    all_engines,
    engine_names,
    get_engine,
    register_engine,
)
from ..sim.result import SimulationResult
from .design_ref import compile_from_ref, resolve_design
from .session import Session

#: name -> the submodule that defines it, imported on first use (PEP
#: 562): a single run never loads the batch layer or ``repro.exec``
_LAZY = {"BatchResult": "batch", "run_many": "batch"}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_LAZY[name]}"), name)
    globals()[name] = value  # the hook runs once per name
    return value


def __dir__():
    return sorted({*globals(), *_LAZY})


#: The stable public surface.  ``tests/test_engine_registry.py``
#: snapshots this list (plus the registered engine names): additions are
#: reviewed API growth, removals/renames are breaking changes.
__all__ = [
    "BatchResult",
    "Engine",
    "EngineInfo",
    "Session",
    "SimulationResult",
    "all_engines",
    "compile_from_ref",
    "engine_names",
    "get_engine",
    "register_engine",
    "resolve_design",
    "run_many",
]
