"""Simulation results, incremental re-simulation results and recorded
query constraints."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Constraint:
    """Recorded outcome of one resolved timing query (paper section 7.2).

    ``index`` is the FIFO access index the query resolved against (the
    would-be w-th write / r-th read); ``node_id`` is the query's node in
    the simulation graph.  Incremental re-simulation re-evaluates every
    constraint under new depths and bails out if any outcome changes.
    """

    kind: str          # fifo_nb_write | fifo_nb_read | fifo_can_read | ...
    fifo: str
    index: int
    outcome: bool
    node_id: int


@dataclass
class SimulationStats:
    """Counters describing one simulation run."""

    events: int = 0
    queries: int = 0
    queries_resolved_false_by_rule: int = 0
    instructions: int = 0
    blocks: int = 0


@dataclass
class SimulationResult:
    """Outcome of a performance-accurate simulation run."""

    design_name: str
    simulator: str
    #: total latency in cycles (max end-of-task commit time)
    cycles: int
    #: scalar output name -> value (Python number)
    scalars: dict = field(default_factory=dict)
    #: buffer name -> list of values
    buffers: dict = field(default_factory=dict)
    #: AXI region name -> list of values
    axi_memories: dict = field(default_factory=dict)
    #: module name -> end-of-task commit cycle
    module_end_times: dict = field(default_factory=dict)
    #: fifo name -> number of values written but never consumed
    fifo_leftovers: dict = field(default_factory=dict)
    stats: SimulationStats = field(default_factory=SimulationStats)
    #: wall-clock seconds of the execution phase (excludes compilation)
    execute_seconds: float = 0.0
    #: wall-clock seconds of front-end compilation + scheduling
    frontend_seconds: float = 0.0
    #: warnings emitted (C-sim baseline uses these)
    warnings: list = field(default_factory=list)
    #: fatal failure description (C-sim baseline: simulated SIGSEGV / hang)
    failure: str | None = None
    #: per-phase breakdown: wall-clock floats (LightningSim: trace vs
    #: analysis) and string provenance markers — ``"serving"``:
    #: ``"incremental"``/``"full"`` (batch layer), ``"capture"``:
    #: ``"warm"``/``"cold"`` (trace cache) — so aggregate values by key,
    #: not by summing the dict
    phase_seconds: dict = field(default_factory=dict)
    #: OmniSim only: FIFO channels keyed by name (the paper's R/W
    #: timing tables — engine state, not replay state)
    fifo_channels: dict = field(default_factory=dict)
    #: OmniSim / LightningSim: the :class:`~repro.trace.TraceArtifact`
    #: the engine recorded — the simulation graph, and on OmniSim runs
    #: the query constraints and functional payload too.  The one
    #: replay handle: picklable, cacheable, carries its CSR static
    #: edges across processes.
    trace: object = None

    # Kept only for benchmarks/perf (not editable here).
    @property
    def graph(self):
        """Alias of :attr:`trace`."""
        return self.trace

    @property
    def total_seconds(self) -> float:
        return self.frontend_seconds + self.execute_seconds

    def output(self, name: str):
        """Look up a scalar or buffer output by name."""
        if name in self.scalars:
            return self.scalars[name]
        if name in self.buffers:
            return self.buffers[name]
        if name in self.axi_memories:
            return self.axi_memories[name]
        raise KeyError(name)

    def summary(self) -> str:
        parts = [f"{self.design_name} [{self.simulator}]",
                 f"cycles={self.cycles}"]
        for name, value in sorted(self.scalars.items()):
            parts.append(f"{name}={value}")
        return "  ".join(parts)


@dataclass
class IncrementalResult:
    """Outcome of a successful incremental re-simulation
    (:meth:`repro.trace.TraceArtifact.resimulate`).

    Carries enough metadata for a sweep orchestrator (``repro.dse``) to
    aggregate points without re-touching the graph: the full resolved
    depth configuration, per-module end times, and the FIFO buffer cost
    of the configuration.
    """

    cycles: int
    seconds: float
    depths: dict
    #: number of constraints re-validated
    constraints_checked: int
    #: module name -> end-of-task commit cycle under the new depths
    module_end_times: dict = None
    #: total FIFO storage (sum of depth x element width), in bits
    buffer_bits: int = 0
