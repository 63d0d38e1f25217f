"""LightningSim baseline: fully decoupled two-phase trace simulation.

Faithful to the paper's description (section 5.1 and Fig. 6 top):

* **Phase 1 — trace generation (untimed)**: the design executes
  functionally on a single thread with *infinite FIFO depth*, module by
  module in dataflow (topological) order, producing per-module event lists
  with static-schedule cycle offsets ("dynamic stages") and the simulation
  graph skeleton with known read-after-write dependencies;
* **Phase 2 — trace analysis (timed)**: FIFO depths are applied, unknown
  write-after-read dependencies are resolved, and the total latency is the
  longest path through the graph.

Because the phases are decoupled, designs whose *functionality* depends on
hardware timing cannot be simulated: any non-blocking access or status
check, and any cyclic module dependency, raises
:class:`~repro.errors.UnsupportedDesignError` — exactly the Type B/C
limitation the paper's Fig. 3 tabulates.

The payoff of decoupling is phase-2-only incremental re-simulation
(:meth:`LightningSimulator.analyze`), which OmniSim had to re-invent with
constraints (paper section 7.2).
"""

from __future__ import annotations

import time as _time
from collections import deque

from ..errors import SimulationError, UnsupportedDesignError
from ..ir import instructions as ins
from ..trace.columnar import (
    K_AXI_READ,
    K_AXI_RESP,
    K_READ,
    K_WRITE,
    TraceArtifact,
)
from .context import (
    RuntimeState,
    build_runtime_state,
    collect_outputs,
    make_executor,
    new_trace,
    resolve_executor,
)
from .result import SimulationResult, SimulationStats


class LightningSimulator:
    """Two-phase decoupled simulator (Type A designs only)."""

    name = "lightningsim"

    def __init__(self, compiled, depths: dict | None = None,
                 step_limit: int | None = None,
                 executor: str | None = None):
        self.compiled = compiled
        self.depths = dict(depths or {})
        self.step_limit = step_limit
        self.executor = resolve_executor(executor)
        #: the phase-1 simulation graph (None until traced)
        self.trace: TraceArtifact | None = None

    # ------------------------------------------------------------------

    def run(self) -> SimulationResult:
        """Full run: phase 1 (trace) + phase 2 (analysis)."""
        self._check_supported()
        t0 = _time.perf_counter()
        self._trace()
        t1 = _time.perf_counter()
        cycles = self.analyze()
        t2 = _time.perf_counter()

        self.stats.instructions = self._instructions
        result = SimulationResult(
            design_name=self.compiled.name,
            simulator=self.name,
            cycles=cycles,
            stats=self.stats,
            execute_seconds=t2 - t0,
            frontend_seconds=self.compiled.frontend_seconds,
            module_end_times=self.trace.end_times(),
            phase_seconds={"trace": t1 - t0, "analysis": t2 - t1},
            trace=self.trace,
        )
        collect_outputs(self.compiled, self._state, result)
        self.trace.attach_payload(result)
        return result

    def analyze(self, depths: dict | None = None) -> int:
        """Phase 2 (re-)analysis under new FIFO depths: the incremental
        path — milliseconds even for large designs."""
        if self.trace is None:
            raise SimulationError("phase 1 trace has not been generated")
        effective = dict(self.trace.depths)
        effective.update(depths or {})
        times = self.trace.retime(effective)
        self.trace.time = times
        return self.trace.total_cycles(times)

    # ------------------------------------------------------------------
    # capability check (paper Fig. 3: LightningSim supports Type A only)

    def _check_supported(self) -> None:
        for module in self.compiled.modules:
            for instr in module.function.iter_instructions():
                if isinstance(instr, ins.FIFO_QUERY_OPS):
                    raise UnsupportedDesignError(
                        f"LightningSim cannot simulate non-blocking FIFO "
                        f"accesses (module '{module.name}' uses "
                        f"{instr.opname}); Type B/C designs require OmniSim"
                    )
        if self.compiled.design.is_cyclic():
            raise UnsupportedDesignError(
                "LightningSim cannot simulate cyclic module dependencies; "
                "Type B/C designs require OmniSim"
            )

    # ------------------------------------------------------------------
    # phase 1: functional trace in dataflow order

    def _topological_order(self):
        design = self.compiled.design
        graph = design.module_graph()
        order_index = {m.name: i for i, m in enumerate(self.compiled.modules)}
        indegree = {name: 0 for name in graph}
        for _src, dsts in graph.items():
            for dst in dsts:
                indegree[dst] += 1
        ready = sorted((n for n, d in indegree.items() if d == 0),
                       key=order_index.get)
        order = []
        while ready:
            node = ready.pop(0)
            order.append(node)
            for dst in sorted(graph[node], key=order_index.get):
                indegree[dst] -= 1
                if indegree[dst] == 0:
                    ready.append(dst)
        name_to_module = {m.name: m for m in self.compiled.modules}
        return [name_to_module[n] for n in order]

    def _trace(self) -> None:
        self._state: RuntimeState = build_runtime_state(
            self.compiled, infinite_fifos=True
        )
        self.stats = SimulationStats()
        trace = new_trace(self.compiled, self.executor,
                          {**self.compiled.stream_depths(), **self.depths})
        self._instructions = 0

        queues: dict[str, deque] = {name: deque()
                                    for name in self._state.fifos}
        kwargs = {}
        if self.step_limit is not None:
            kwargs["step_limit"] = self.step_limit

        for module in self._topological_order():
            interp = make_executor(
                module, self._state.bindings[module.name], self.executor,
                **kwargs
            )
            events = self._run_module(interp, queues)
            self._instructions += interp.steps
            self._add_module_to_graph(trace, module.name, events)
        self.trace = trace

    def _run_module(self, interp, queues: dict) -> list:
        gen = interp.run()
        response = None
        events = []
        state = self._state
        while True:
            try:
                request = gen.send(response)
            except StopIteration:
                break
            response = None
            self.stats.events += 1
            kind = request.kind
            aux = None
            if kind == "fifo_write":
                queues[request.fifo].append(request.value)
            elif kind == "fifo_read":
                queue = queues[request.fifo]
                if not queue:
                    raise SimulationError(
                        f"LightningSim trace: module '{interp.name}' read "
                        f"from stream '{request.fifo}' with no data; the "
                        "design would deadlock in hardware"
                    )
                response = queue.popleft()
            elif kind == "axi_read_req":
                port = state.axis[request.port]
                aux = port.emit_read_req(request.offset, request.length)
            elif kind == "axi_read":
                port = state.axis[request.port]
                beat, value = port.emit_read_beat()
                aux = beat
                response = value
            elif kind == "axi_write_req":
                port = state.axis[request.port]
                aux = port.emit_write_req(request.offset, request.length)
            elif kind == "axi_write":
                port = state.axis[request.port]
                aux = port.emit_write_beat(request.value)
            elif kind == "axi_write_resp":
                port = state.axis[request.port]
                aux = port.emit_write_resp()
            events.append((request, aux))
        return events

    def _add_module_to_graph(self, trace: TraceArtifact, name: str,
                             events: list) -> None:
        """Convert the module's trace into graph nodes (the "dynamic
        stage" construction of phase 1).  Node times start at their
        nominal cycles; phase 2's retiming computes the real ones."""
        axis = self._state.axis
        for request, aux in events:
            kind = request.kind
            nominal = request.nominal
            if kind == "fifo_write":
                node = trace.add_node(name, request, nominal, K_WRITE)
                trace.fifo_table(request.fifo).add_write(node)
            elif kind == "fifo_read":
                node = trace.add_node(name, request, nominal, K_READ)
                trace.fifo_table(request.fifo).add_read(node)
            elif kind == "axi_read_req":
                node = trace.add_node(name, request, nominal)
                burst = axis[request.port].read_bursts[aux]
                trace.axi_table(request.port).add_read_req(
                    node, burst.first_beat, burst.length)
            elif kind == "axi_read":
                node = trace.add_node(name, request, nominal, K_AXI_READ)
                trace.axi_table(request.port).read_beat_nodes.append(node)
            elif kind == "axi_write_req":
                node = trace.add_node(name, request, nominal)
                trace.axi_table(request.port).write_req_nodes.append(node)
            elif kind == "axi_write":
                node = trace.add_node(name, request, nominal)
                trace.axi_table(request.port).write_beat_nodes.append(node)
            elif kind == "axi_write_resp":
                node = trace.add_node(name, request, nominal, K_AXI_RESP)
                burst = axis[request.port].write_bursts[aux]
                trace.axi_table(request.port).add_write_resp(
                    node, burst.first_beat, burst.length)
            elif kind == "end_task":
                trace.add_end_node(
                    name, trace.add_node(name, request, nominal))
            else:  # start_task / trace_block
                trace.add_node(name, request, nominal)
