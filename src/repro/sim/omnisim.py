"""OmniSim: flexibly coupled functionality + performance simulation.

This is the paper's core contribution (sections 5.2, 6.2, 7.1, 7.2).  One
Func Sim context per dataflow module executes the IR functionally and
emits timed requests; the Perf Sim logic (this engine) processes requests,
maintains the FIFO read/write tables, resolves non-blocking queries against
exact hardware cycles (Table 2), applies the earliest-query-false rule when
otherwise stuck, detects true deadlocks, and records per-query constraints
that enable incremental re-simulation.

The default executor runs Func Sim contexts as coroutines driven by this
engine — deterministic and fast.  A real-thread executor with identical
orchestration lives in :mod:`repro.sim.thread_executor`, demonstrating
independence from OS scheduling (the point of the paper's Fig. 2).
"""

from __future__ import annotations

import time as _time
from collections import deque

from ..errors import DeadlockError, SimulationError
from ..trace.columnar import (
    K_AXI_READ,
    K_AXI_RESP,
    K_NB_READ,
    K_NB_WRITE,
    K_OTHER,
    K_READ,
    K_WRITE,
)
from .context import (
    RuntimeState,
    build_runtime_state,
    collect_outputs,
    make_executor,
    new_trace,
    resolve_executor,
)
from .ledger import INFINITY, ModuleLedger
from .result import SimulationResult, SimulationStats

#: node kind of a *successful* NB access: it moves a value but never
#: stalls (failed ones, and status checks, are plain K_OTHER events)
_NB_SUCCESS_KIND = {"fifo_nb_write": K_NB_WRITE, "fifo_nb_read": K_NB_READ}

# Module run states.
RUNNABLE = 0
WAITING = 1
DONE = 2


class _ModuleRun:
    """Execution state of one Func Sim context (either executor)."""

    __slots__ = ("name", "interp", "gen", "ledger", "state", "waiting",
                 "response")

    def __init__(self, name: str, interp):
        self.name = name
        self.interp = interp
        self.gen = interp.run()
        self.ledger = ModuleLedger(name)
        self.state = RUNNABLE
        #: the emitted TimedEvent the interpreter is suspended on
        self.waiting = None
        #: value to send into the generator on next resume
        self.response = None

    @property
    def drained(self) -> bool:
        return self.state == DONE and self.ledger.pending_count == 0


class OmniSimulator:
    """Coupled Func Sim + Perf Sim engine (the paper's OmniSim core).

    ``OmniSimulator(compiled).run()`` returns a
    :class:`~repro.sim.result.SimulationResult` carrying RTL-accurate
    cycles, functional outputs, and — as ``result.trace`` — the
    recorded simulation graph + query constraints that power
    incremental re-simulation.
    """

    name = "omnisim"

    def __init__(self, compiled, depths: dict | None = None,
                 step_limit: int | None = None,
                 executor: str | None = None):
        """Args:
            compiled: a :class:`~repro.compile.CompiledDesign`.
            depths: per-FIFO depth overrides on the design's declared
                depths (``{"fifo": 8}``), the knob DSE sweeps.
            step_limit: abort a module's Func Sim after this many
                interpreter steps (guards runaway infinite loops).
            executor: Func Sim executor name (``"compiled"`` default or
                ``"interp"``; see :data:`repro.sim.EXECUTORS`).
        """
        self.compiled = compiled
        self.depths = dict(depths or {})
        self.step_limit = step_limit
        self.executor = resolve_executor(executor)

    # ------------------------------------------------------------------

    def _build(self) -> None:
        self.state: RuntimeState = build_runtime_state(
            self.compiled, self.depths
        )
        #: the partial simulation graph (paper 7.3.1), appended to as
        #: events commit — and the result's replay handle afterwards
        self.trace = new_trace(
            self.compiled, self.executor,
            {name: fifo.depth for name, fifo in self.state.fifos.items()})
        self.stats = SimulationStats()
        self.runs: list[_ModuleRun] = []
        kwargs = {}
        if self.step_limit is not None:
            kwargs["step_limit"] = self.step_limit
        for module in self.compiled.modules:
            interp = make_executor(
                module, self.state.bindings[module.name], self.executor,
                **kwargs
            )
            self.runs.append(_ModuleRun(module.name, interp))
        #: fifo name -> run waiting for a value on it (single reader)
        self._read_waiters: dict[str, _ModuleRun] = {}
        by_name = {run.name: run for run in self.runs}
        self._fifo_writer: dict[str, _ModuleRun] = {}
        self._fifo_reader: dict[str, _ModuleRun] = {}
        for stream in self.compiled.design.streams.values():
            self._fifo_writer[stream.name] = by_name[stream.writer[0].name]
            self._fifo_reader[stream.name] = by_name[stream.reader[0].name]
        #: work queue of runs needing attention
        self._work: deque = deque(self.runs)
        self._queued: set = {run.name for run in self.runs}

    # ------------------------------------------------------------------
    # public API

    def run(self) -> SimulationResult:
        """Execute the simulation to completion.

        Raises:
            DeadlockError: every module is blocked and no pending query
                may be forced false (a true design-level deadlock).
            SimulationError: internal invariant violations or a module
                exceeding ``step_limit``.
        """
        start = _time.perf_counter()
        self._build()
        try:
            self._main_loop()
        finally:
            self._execute_seconds = _time.perf_counter() - start
        return self._make_result()

    # ------------------------------------------------------------------
    # main loop: work-queue driven pump + commit

    def _wake(self, run: _ModuleRun) -> None:
        if run.name not in self._queued and not run.drained:
            self._queued.add(run.name)
            self._work.append(run)

    def _main_loop(self) -> None:
        while True:
            while self._work:
                run = self._work.popleft()
                self._queued.discard(run.name)
                self._service(run)
            if all(run.drained for run in self.runs):
                return
            self._resolve_stuck()

    def _service(self, run: _ModuleRun) -> None:
        """Pump the module's interpreter and commit whatever it can."""
        progress = True
        while progress:
            progress = False
            if run.state == WAITING:
                self._try_answer_waiting_read(run)
            if run.state == RUNNABLE:
                progress |= self._pump(run)
            progress |= self._commit_ready(run)

    # ------------------------------------------------------------------
    # pump phase: advance the Func Sim context, collect requests

    def _try_answer_waiting_read(self, run: _ModuleRun) -> None:
        event = run.waiting
        if event is None or event.kind != "fifo_read":
            return
        fifo = self.state.fifos[event.request.fifo]
        if fifo.value_available(event.index):
            run.waiting = None
            self._read_waiters.pop(fifo.name, None)
            self._deliver(run, fifo.value_for(event.index))

    def _deliver(self, run: _ModuleRun, answer) -> None:
        """Hand a response to a paused Func Sim context.  The coroutine
        executor stores it for the next ``send``; the thread executor
        overrides this to post on the thread's answer channel."""
        run.response = answer
        run.state = RUNNABLE

    def _pump(self, run: _ModuleRun) -> bool:
        progress = False
        while run.state == RUNNABLE:
            try:
                request = run.gen.send(run.response)
            except StopIteration:
                run.state = DONE
                run.ledger.mark_finished()
                progress = True
                break
            run.response = None
            progress = True
            event = run.ledger.add(request)
            self.stats.events += 1
            if request.is_query:
                self.stats.queries += 1
            self._on_emit(run, event)
        return progress

    def _on_emit(self, run: _ModuleRun, event) -> None:
        """Emission-time bookkeeping (the functional half of a request)."""
        request = event.request
        kind = request.kind
        if kind == "fifo_write":
            fifo = self.state.fifos[request.fifo]
            event.index = fifo.push_value(request.value)
            waiter = self._read_waiters.get(fifo.name)
            if waiter is not None:
                self._try_answer_waiting_read(waiter)
                self._wake(waiter)
        elif kind == "fifo_read":
            fifo = self.state.fifos[request.fifo]
            event.index = fifo.assign_read_index()
            if fifo.value_available(event.index):
                run.response = fifo.value_for(event.index)
            else:
                run.state = WAITING
                run.waiting = event
                self._read_waiters[fifo.name] = run
        elif kind in ("fifo_nb_read", "fifo_nb_write",
                      "fifo_can_read", "fifo_can_write"):
            run.state = WAITING
            run.waiting = event
        elif kind == "axi_read_req":
            port = self.state.axis[request.port]
            event.aux = port.emit_read_req(request.offset, request.length)
        elif kind == "axi_read":
            port = self.state.axis[request.port]
            beat, value = port.emit_read_beat()
            event.aux = beat
            run.response = value
        elif kind == "axi_write_req":
            port = self.state.axis[request.port]
            event.aux = port.emit_write_req(request.offset, request.length)
        elif kind == "axi_write":
            port = self.state.axis[request.port]
            event.aux = port.emit_write_beat(request.value)
        elif kind == "axi_write_resp":
            port = self.state.axis[request.port]
            event.aux = port.emit_write_resp()
        # start_task / end_task / trace_block need no bookkeeping.

    # ------------------------------------------------------------------
    # commit phase: the Perf Sim thread's request processing

    def _commit_ready(self, run: _ModuleRun) -> bool:
        progress = False
        while True:
            event = run.ledger.head()
            if event is None:
                break
            if not self._try_commit(run, event):
                break
            progress = True
        return progress

    def _try_commit(self, run: _ModuleRun, event) -> bool:
        """Attempt to commit the module's next event; False if blocked."""
        ready = run.ledger.ready_of(event)
        kind = event.kind
        if kind in ("start_task", "trace_block"):
            self._commit(run, event, ready, K_OTHER)
            return True
        if kind == "end_task":
            node = self._commit(run, event, ready, K_OTHER)
            self.trace.add_end_node(run.name, node)
            return True
        if kind == "fifo_write":
            return self._commit_blocking_write(run, event, ready)
        if kind == "fifo_read":
            return self._commit_blocking_read(run, event, ready)
        if kind in ("fifo_nb_write", "fifo_nb_read",
                    "fifo_can_read", "fifo_can_write"):
            return self._resolve_query(run, event, ready, forced=False)
        if kind == "axi_read_req":
            port = self.state.axis[event.request.port]
            cycle = max(ready, port.req_channel_time + 1)
            node = self._commit(run, event, cycle, K_OTHER)
            port.req_channel_time = cycle
            port.commit_read_req(event.aux, cycle)
            burst = port.read_bursts[event.aux]
            self.trace.axi_table(port.name).add_read_req(
                node, burst.first_beat, burst.length)
            return True
        if kind == "axi_read":
            return self._commit_axi_read(run, event, ready)
        if kind == "axi_write_req":
            port = self.state.axis[event.request.port]
            cycle = max(ready, port.req_channel_time + 1)
            node = self._commit(run, event, cycle, K_OTHER)
            port.req_channel_time = cycle
            port.commit_write_req(event.aux, cycle)
            self.trace.axi_table(port.name).write_req_nodes.append(node)
            return True
        if kind == "axi_write":
            port = self.state.axis[event.request.port]
            cycle = max(ready, port.write_channel_time + 1)
            node = self._commit(run, event, cycle, K_OTHER)
            port.write_channel_time = cycle
            port.commit_write_beat(event.aux, cycle)
            self.trace.axi_table(port.name).write_beat_nodes.append(node)
            return True
        if kind == "axi_write_resp":
            port = self.state.axis[event.request.port]
            resp_ready = port.write_resp_ready(event.aux)
            if resp_ready is None:
                raise SimulationError("write_resp before its burst")
            cycle = max(ready, resp_ready)
            node = self._commit(run, event, cycle, K_AXI_RESP)
            burst = port.write_bursts[event.aux]
            self.trace.axi_table(port.name).add_write_resp(
                node, burst.first_beat, burst.length)
            return True
        raise SimulationError(f"unknown event kind {kind}")

    def _commit(self, run: _ModuleRun, event, cycle: int,
                node_kind: int) -> int:
        run.ledger.commit(event, cycle)
        node = self.trace.add_node(run.name, event.request, cycle, node_kind)
        event.node_id = node
        return node

    # --- blocking FIFO ops -------------------------------------------------

    def _commit_blocking_write(self, run, event, ready: int) -> bool:
        fifo = self.state.fifos[event.request.fifo]
        w = event.index
        depth = fifo.depth
        cycle = max(ready, fifo.write_port_time + 1)
        if w > depth:
            freeing_read = fifo.read_time(w - depth)
            if freeing_read is None:
                return False  # stalled on a full FIFO
            cycle = max(cycle, freeing_read + 1)
        node = self._commit(run, event, cycle, K_WRITE)
        fifo.commit_write(w, cycle)
        fifo.write_port_time = cycle
        self.trace.fifo_table(fifo.name).add_write(node)
        self._wake(self._fifo_reader[fifo.name])
        return True

    def _commit_blocking_read(self, run, event, ready: int) -> bool:
        fifo = self.state.fifos[event.request.fifo]
        r = event.index
        written = fifo.write_time(r)
        if written is None:
            return False  # stalled on an empty FIFO
        cycle = max(ready, written + 1, fifo.read_port_time + 1)
        node = self._commit(run, event, cycle, K_READ)
        fifo.commit_read(r, cycle)
        fifo.read_port_time = cycle
        self.trace.fifo_table(fifo.name).add_read(node)
        self._wake(self._fifo_writer[fifo.name])
        return True

    # --- queries (paper Table 2) ------------------------------------------

    def _resolve_query(self, run, event, ready: int, forced: bool) -> bool:
        """Resolve an NB access / status check.  ``forced`` applies the
        earliest-query-false rule: the target is known to lie in the
        future, so the query resolves unsuccessfully."""
        fifo = self.state.fifos[event.request.fifo]
        kind = event.kind
        depth = fifo.depth

        if kind == "fifo_nb_write":
            ready = max(ready, fifo.write_port_time + 1)
        elif kind == "fifo_nb_read":
            ready = max(ready, fifo.read_port_time + 1)

        if kind in ("fifo_nb_write", "fifo_can_write"):
            w = fifo.emitted_writes + 1
            if w <= depth:
                success = True
            else:
                freeing_read = fifo.read_time(w - depth)
                if freeing_read is None:
                    if not forced:
                        return False
                    success = False
                else:
                    success = ready > freeing_read
            index = w
        else:  # fifo_nb_read / fifo_can_read
            r = fifo.emitted_reads + 1
            written = fifo.write_time(r)
            if written is None:
                if not forced:
                    return False
                success = False
            else:
                success = ready > written
            index = r

        event.outcome = success
        node = self._commit(
            run, event, ready,
            _NB_SUCCESS_KIND.get(kind, K_OTHER) if success else K_OTHER)
        self.trace.add_constraint(kind, fifo.name, index, success, node)
        self._apply_query_effects(run, event, fifo, success, ready, node)
        return True

    def _apply_query_effects(self, run, event, fifo, success: bool,
                             ready: int, node: int) -> None:
        """Post-resolution side effects + answering the paused thread."""
        kind = event.kind
        if kind == "fifo_nb_write":
            fifo.write_port_time = ready
            self.trace.fifo_table(fifo.name).add_write(node, success)
            if success:
                w = fifo.push_value(event.request.value)
                fifo.commit_write(w, ready)
                waiter = self._read_waiters.get(fifo.name)
                if waiter is not None:
                    self._try_answer_waiting_read(waiter)
                self._wake(self._fifo_reader[fifo.name])
            answer = bool(success)
        elif kind == "fifo_nb_read":
            fifo.read_port_time = ready
            self.trace.fifo_table(fifo.name).add_read(node, success)
            if success:
                r = fifo.assign_read_index()
                value = fifo.value_for(r)
                fifo.commit_read(r, ready)
                self._wake(self._fifo_writer[fifo.name])
                answer = (True, value)
            else:
                answer = (False, None)
        else:  # status checks touch no port
            answer = bool(success)

        assert run.waiting is event, "query resolution out of order"
        run.waiting = None
        self._deliver(run, answer)
        self._wake(run)

    # --- AXI timing ------------------------------------------------------

    def _commit_axi_read(self, run, event, ready: int) -> bool:
        port = self.state.axis[event.request.port]
        beat = event.aux
        data_ready = port.read_beat_ready(beat)
        if data_ready is None:  # request not committed: impossible in order
            raise SimulationError("axi read beat before its request")
        cycle = max(ready, data_ready, port.read_channel_time + 1)
        node = self._commit(run, event, cycle, K_AXI_READ)
        port.commit_read_beat(beat, cycle)
        port.read_channel_time = cycle
        self.trace.axi_table(port.name).read_beat_nodes.append(node)
        return True

    # ------------------------------------------------------------------
    # stuck resolution: earliest-query-false rule + deadlock (paper 7.1)

    def _blocked_source(self, run: _ModuleRun, event) -> str | None:
        """Module that must produce the missing constraint of a blocked
        blocking op, or None if the head is not constraint-blocked."""
        if event.kind == "fifo_write":
            fifo = self.state.fifos[event.request.fifo]
            if event.index > fifo.depth and (
                    fifo.read_time(event.index - fifo.depth) is None):
                return self._fifo_reader[fifo.name].name
            return None
        if event.kind == "fifo_read":
            fifo = self.state.fifos[event.request.fifo]
            if fifo.write_time(event.index) is None:
                return self._fifo_writer[fifo.name].name
            return None
        return None

    def _future_bounds(self) -> dict[str, int]:
        """Fixpoint lower bound on each module's next possible commit time:
        the guard that makes the earliest-query-false rule sound under
        elastic pipeline timing."""
        heads = {}
        for run in self.runs:
            if run.drained:
                continue
            event = run.ledger.head()
            if event is None:
                continue
            ready = run.ledger.ready_of(event)
            source = self._blocked_source(run, event)
            heads[run.name] = (run, ready, source)

        # Each blocked head waits on at most one source module, so the
        # wait-for graph is functional: walk the chains, treating cycles
        # (pure blocking deadlocks: they never commit) as unbounded.
        bounds: dict[str, int] = {}
        visiting: set[str] = set()

        def resolve(name: str) -> int:
            if name in bounds:
                return bounds[name]
            if name not in heads:
                return INFINITY  # drained module: no future commits
            if name in visiting:
                return INFINITY  # blocking cycle
            visiting.add(name)
            run, ready, source = heads[name]
            if source is None:
                raw = ready
            else:
                raw = max(ready, min(resolve(source) + 1, INFINITY))
            bounds[name] = min(run.ledger.future_commit_bound(raw),
                               INFINITY)
            visiting.discard(name)
            return bounds[name]

        for name in heads:
            resolve(name)
        return bounds

    def _resolve_stuck(self) -> None:
        """Apply the earliest-query-false rule (paper 7.1).

        All pending queries whose ready cycle is not later than every other
        module's future-commit bound resolve as failures in one batch:
        resolving one query only moves other modules *forward*, so bounds
        are monotone and the batch is as sound as one-at-a-time
        resolution (and far cheaper on designs that poll constantly).
        """
        candidates = []
        for run in self.runs:
            if run.drained:
                continue
            event = run.ledger.head()
            if event is None or not event.is_query:
                continue
            candidates.append((run.ledger.ready_of(event), run, event))
        if candidates:
            bounds = self._future_bounds()
            values = list(bounds.values())
            lowest = min(values, default=INFINITY)
            second = (sorted(values)[1] if len(values) > 1 else INFINITY)
            resolved_any = False
            for ready, run, event in sorted(candidates,
                                            key=lambda c: c[0]):
                own = bounds.get(run.name, INFINITY)
                guard = second if own == lowest else lowest
                if ready <= guard:
                    self.stats.queries_resolved_false_by_rule += 1
                    # Not an assert: forced resolution must actually run
                    # (an ``assert fn()`` would strip the call, and the
                    # stuck-resolution loop with it, under ``python -O``).
                    if not self._resolve_query(run, event, ready,
                                               forced=True):
                        raise SimulationError(
                            "forced query resolution failed to commit"
                        )
                    self._wake(run)
                    resolved_any = True
            if resolved_any:
                return
        self._raise_deadlock()

    def _raise_deadlock(self) -> None:
        cycle = 0
        blocked: dict[str, str] = {}
        for run in self.runs:
            if run.drained:
                continue
            event = run.ledger.head()
            if event is not None:
                cycle = max(cycle, run.ledger.ready_of(event))
            cycle = max(cycle, run.ledger.last_commit_time)
            if run.state == WAITING and run.waiting is not None:
                request = run.waiting.request
                blocked[run.name] = (
                    f"blocking read on empty FIFO '{request.fifo}'"
                    if run.waiting.kind == "fifo_read"
                    else f"unresolved {run.waiting.kind} on "
                         f"'{request.fifo}'"
                )
            elif event is not None:
                detail = getattr(event.request, "fifo", None)
                blocked[run.name] = (
                    f"blocking write on full FIFO '{detail}'"
                    if event.kind == "fifo_write"
                    else f"stalled {event.kind}"
                    + (f" on '{detail}'" if detail else "")
                )
            else:
                blocked[run.name] = "waiting (no committable events)"
        raise DeadlockError(cycle, blocked)

    # ------------------------------------------------------------------

    def _make_result(self) -> SimulationResult:
        trace = self.trace
        ends = trace.end_times()
        self.stats.instructions = sum(r.interp.steps for r in self.runs)
        result = SimulationResult(
            design_name=self.compiled.name,
            simulator=self.name,
            cycles=trace.total_cycles(),
            module_end_times={run.name: ends[run.name]
                              for run in self.runs if run.name in ends},
            stats=self.stats,
            execute_seconds=self._execute_seconds,
            frontend_seconds=self.compiled.frontend_seconds,
            fifo_channels=self.state.fifos,
            trace=trace,
        )
        collect_outputs(self.compiled, self.state, result)
        # Finishing the record copies nothing: the outputs just
        # collected become the artifact's payload by reference, and the
        # per-module CSR / static edges stay unbuilt until something
        # replays or serializes (a plain `repro run` never does).
        trace.attach_payload(result)
        return result
