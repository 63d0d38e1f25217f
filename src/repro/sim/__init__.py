"""Simulation engines: OmniSim core plus the baselines.

=================  ========================================================
Engine (registry)  Role (paper reference)
=================  ========================================================
omnisim            the contribution: coupled Func+Perf sim (sections 5-7)
omnisim-threads    same orchestration on real OS threads (Fig. 7)
cosim              cycle-stepped oracle standing in for C/RTL co-sim
csim               Vitis-like sequential C simulation (Table 3 baseline)
lightningsim       decoupled two-phase baseline (section 5.1, Table 5)
naive              naive OS-thread strawman (Fig. 2; not a CLI engine)
=================  ========================================================

Engines are looked up through the formal registry (:mod:`.registry`):
``get_engine(name)`` returns the class plus its capability record,
``create_engine``/``run_engine`` are the single construction/validation
point; an engine class is ``get_engine(name).cls``.  The high-level
entry point is :class:`repro.api.Session`.
"""

from __future__ import annotations

from .context import DEFAULT_EXECUTOR, EXECUTORS, make_executor
from .registry import (
    Engine,
    EngineInfo,
    all_engines,
    create_engine,
    engine_names,
    get_engine,
    register_engine,
    run_engine,
    validate_depths,
)
from .result import (
    Constraint,
    IncrementalResult,
    SimulationResult,
    SimulationStats,
)

__all__ = [
    "Constraint",
    "DEFAULT_EXECUTOR",
    "EXECUTORS",
    "Engine",
    "EngineInfo",
    "IncrementalResult",
    "SimulationResult",
    "SimulationStats",
    "all_engines",
    "create_engine",
    "engine_names",
    "get_engine",
    "make_executor",
    "register_engine",
    "run_engine",
    "validate_depths",
]
