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
from operator import itemgetter

from ..errors import DeadlockError, SimulationError
from ..runtime.requests import (
    AXI_READ,
    AXI_READ_REQ,
    AXI_WRITE,
    AXI_WRITE_REQ,
    AXI_WRITE_RESP,
    CAN_READ,
    END_TASK,
    FIFO_READ,
    FIFO_WRITE,
    NB_READ,
    NB_WRITE,
    START_TASK,
)
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
from .ledger import INFINITY, ModuleLedger, future_bounds
from .result import SimulationResult, SimulationStats

# Module run states.
RUNNABLE = 0
WAITING = 1
DONE = 2


class _ModuleRun:
    """Execution state of one Func Sim context (either executor)."""

    __slots__ = ("name", "interp", "gen", "ledger", "pending", "state",
                 "waiting", "response", "queued", "mid")

    def __init__(self, name: str, interp):
        self.name = name
        self.interp = interp
        self.gen = interp.run()
        self.ledger = ModuleLedger(name)
        #: emitted, not yet committed requests (the ledger's queue)
        self.pending = self.ledger.queue
        self.state = RUNNABLE
        #: the emitted request the interpreter is suspended on
        self.waiting = None
        #: value to send into the generator on next resume
        self.response = None
        #: already in the engine's work queue
        self.queued = True
        #: module id in the trace, assigned at the first commit
        self.mid = -1

    @property
    def drained(self) -> bool:
        return self.state == DONE and not self.pending


class _Fifo:
    """Everything the engine needs about one FIFO, resolved once: the
    channel state (paper Fig. 7 (D)) and its three lists, the two peer
    runs, the run paused on a value, and — from the first recorded
    access on, so the trace numbers FIFOs in first-access order — the
    trace's node columns for it."""

    __slots__ = ("channel", "depth", "values", "write_times", "read_times",
                 "writer", "reader", "read_waiter", "cols",
                 "add_write_port", "add_write", "add_read_port", "add_read")

    def __init__(self, channel, writer: _ModuleRun, reader: _ModuleRun):
        self.channel = channel
        self.depth = channel.depth
        self.values = channel.values
        self.write_times = channel.write_times
        self.read_times = channel.read_times
        self.writer = writer
        self.reader = reader
        self.read_waiter = None
        self.cols = None

    def open_columns(self, trace):
        cols = self.cols = trace.fifo_table(self.channel.name)
        self.add_write_port = cols.write_port_nodes.append
        self.add_write = cols.write_nodes.append
        self.add_read_port = cols.read_port_nodes.append
        self.add_read = cols.read_nodes.append
        return cols


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
        trace = self.trace = new_trace(
            self.compiled, self.executor,
            {name: fifo.depth for name, fifo in self.state.fifos.items()})
        #: ``list.append`` of the four node columns, in one tuple the
        #: commit kernel unpacks into locals
        self._node_appends = tuple(
            col.append for col in (trace.module_of, trace.nominal,
                                   trace.time, trace.kind))
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
        by_name = {run.name: run for run in self.runs}
        #: fifo name -> channel handle; port name -> (port, trace columns)
        self._fifos = {
            name: _Fifo(self.state.fifos[name],
                        by_name[stream.writer[0].name],
                        by_name[stream.reader[0].name])
            for name, stream in self.compiled.design.streams.items()}
        self._axis = {name: (port, trace.axi_table(name))
                      for name, port in self.state.axis.items()}
        #: work queue of runs needing attention (``run.queued``)
        self._work: deque = deque(self.runs)

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

    def _main_loop(self) -> None:
        work = self._work
        while True:
            while work:
                run = work.popleft()
                run.queued = False
                self._service(run)
            if all(run.drained for run in self.runs):
                return
            self._resolve_stuck()

    def _service(self, run: _ModuleRun) -> None:
        """One module, run until blocked: pump its Func Sim context as
        far as it goes, commit as far as that goes, and again while a
        commit answered the query the context was paused on."""
        while True:
            if run.state == WAITING:
                self._try_answer_waiting_read(run)
            if run.state == RUNNABLE:
                self._pump(run)
            self._commit_ready(run)
            if run.state != RUNNABLE:
                return

    # ------------------------------------------------------------------
    # pump phase: advance the Func Sim context, collect requests

    def _try_answer_waiting_read(self, run: _ModuleRun) -> None:
        request = run.waiting
        if request is None or request.code != FIFO_READ:
            return
        fifo = self._fifos[request.fifo]
        if request.index <= len(fifo.values):
            run.waiting = None
            fifo.read_waiter = None
            self._deliver(run, fifo.values[request.index - 1])

    def _deliver(self, run: _ModuleRun, answer) -> None:
        """Hand a response to a paused Func Sim context.  The coroutine
        executor stores it for the next ``send``; the thread executor
        overrides this to post on the thread's answer channel."""
        run.response = answer
        run.state = RUNNABLE

    def _pump(self, run: _ModuleRun) -> None:
        """Run the Func Sim context until it needs an answer that is not
        there yet (or finishes), queueing every request it emits."""
        send = run.gen.send
        queue = run.pending.append
        on_emit = self._on_emit
        while run.state == RUNNABLE:
            try:
                request = send(run.response)
            except StopIteration:
                run.state = DONE
                break
            run.response = None
            queue(request)
            on_emit(run, request)

    def _on_emit(self, run: _ModuleRun, request) -> None:
        """Emission-time bookkeeping (the functional half of a request):
        values move and access indices are handed out in program order,
        ahead of the cycle they will be assigned."""
        code = request.code
        if code == FIFO_WRITE:
            fifo = self._fifos[request.fifo]
            values = fifo.values
            values.append(request.value)
            request.index = len(values)
            waiter = fifo.read_waiter
            if waiter is not None:
                self._try_answer_waiting_read(waiter)
                self._wake(waiter)
        elif code == FIFO_READ:
            fifo = self._fifos[request.fifo]
            channel = fifo.channel
            index = request.index = channel.emitted_reads + 1
            channel.emitted_reads = index
            if index <= len(fifo.values):
                self._deliver(run, fifo.values[index - 1])
            else:
                run.state = WAITING
                run.waiting = request
                fifo.read_waiter = run
        elif code <= CAN_READ:  # the four queries pause until resolved
            run.state = WAITING
            run.waiting = request
        elif code < START_TASK:  # AXI: beat / request / burst index
            port = self._axis[request.port][0]
            if code == AXI_READ:
                request.index, value = port.emit_read_beat()
                self._deliver(run, value)
            elif code == AXI_WRITE:
                request.index = port.emit_write_beat(request.value)
            elif code == AXI_READ_REQ:
                request.index = port.emit_read_req(request.offset,
                                                   request.length)
            elif code == AXI_WRITE_REQ:
                request.index = port.emit_write_req(request.offset,
                                                    request.length)
            else:
                request.index = port.emit_write_resp()
        # start_task / end_task / trace_block need no bookkeeping.

    def _wake(self, run: _ModuleRun) -> None:
        if not run.queued and (run.state != DONE or run.pending):
            run.queued = True
            self._work.append(run)

    # ------------------------------------------------------------------
    # commit phase: the Perf Sim thread's request processing

    def _commit_ready(self, run: _ModuleRun, forced: bool = False) -> bool:
        """The commit kernel: assign hardware cycles to ``run``'s pending
        requests, in emission order, until one is blocked on a cycle
        another module has yet to produce; True if any committed.

        One loop executes the per-event contract of
        :mod:`repro.sim.ledger` (on locals loaded from the ledger here
        and stored back on exit), the FIFO/AXI port and Table 2 rules,
        and the recording: four node-column appends plus the channel's
        node lists.  ``forced`` applies the earliest-query-false rule to
        the head: its target is known to lie in the future, so the query
        resolves unsuccessfully; exactly that one request commits.
        """
        pending = run.pending
        if not pending:
            return False
        ledger = run.ledger
        start = ledger.effective_start
        serial = ledger.cur_serial
        base = ledger.cur_base
        last = ledger.last_commit_time
        fifos = self._fifos
        trace = self.trace
        times = trace.time
        add_module, add_nominal, add_time, add_kind = self._node_appends
        work = self._work
        mid = run.mid
        progress = False
        while pending:
            request = pending[0]
            if request.segment != serial:
                # Entering a new segment: the effective start advances
                # by the nominal distance between the segment bases.
                serial = request.segment
                start += request.seg_base - base
                base = request.seg_base
            nominal = request.nominal
            offset = nominal - base
            cycle = start + offset  # the ready cycle; grows below
            code = request.code
            node = len(times)
            woken = None
            if code == FIFO_READ:
                fifo = fifos[request.fifo]
                r = request.index
                write_times = fifo.write_times
                if r > len(write_times):
                    break  # stalled on an empty FIFO
                channel = fifo.channel
                busy = write_times[r - 1]  # data is readable the cycle after
                if busy >= cycle:
                    cycle = busy + 1
                busy = channel.read_port_time  # one access per port per cycle
                if busy >= cycle:
                    cycle = busy + 1
                if len(fifo.read_times) != r - 1:
                    raise SimulationError(
                        f"fifo {request.fifo}: out-of-order read commit")
                fifo.read_times.append(cycle)
                channel.read_port_time = cycle
                if fifo.cols is None:
                    fifo.open_columns(trace)
                fifo.add_read_port(node)
                fifo.add_read(node)
                kind = K_READ
                woken = fifo.writer
            elif code == FIFO_WRITE:
                fifo = fifos[request.fifo]
                w = request.index
                channel = fifo.channel
                busy = channel.write_port_time
                if busy >= cycle:
                    cycle = busy + 1
                freed_by = w - fifo.depth  # the read that makes room
                if freed_by > 0:
                    read_times = fifo.read_times
                    if freed_by > len(read_times):
                        break  # stalled on a full FIFO
                    busy = read_times[freed_by - 1]
                    if busy >= cycle:
                        cycle = busy + 1
                if len(fifo.write_times) != w - 1:
                    raise SimulationError(
                        f"fifo {request.fifo}: out-of-order write commit")
                fifo.write_times.append(cycle)
                channel.write_port_time = cycle
                if fifo.cols is None:
                    fifo.open_columns(trace)
                fifo.add_write_port(node)
                fifo.add_write(node)
                kind = K_WRITE
                woken = fifo.reader
            elif code <= CAN_READ:
                # --- queries (paper Table 2) ---------------------------
                fifo = fifos[request.fifo]
                channel = fifo.channel
                if code < NB_READ:  # nb_write / can_write
                    if code == NB_WRITE and channel.write_port_time >= cycle:
                        cycle = channel.write_port_time + 1
                    index = len(fifo.values) + 1
                    freed_by = index - fifo.depth
                    if freed_by <= 0:
                        success = True
                    elif freed_by <= len(fifo.read_times):
                        success = cycle > fifo.read_times[freed_by - 1]
                    elif forced:
                        success = False
                    else:
                        break  # the freeing read has no cycle yet
                else:  # nb_read / can_read
                    if code == NB_READ and channel.read_port_time >= cycle:
                        cycle = channel.read_port_time + 1
                    index = channel.emitted_reads + 1
                    if index <= len(fifo.write_times):
                        success = cycle > fifo.write_times[index - 1]
                    elif forced:
                        success = False
                    else:
                        break  # the awaited write has no cycle yet
                cols = fifo.cols or fifo.open_columns(trace)
                trace.add_constraint(code - NB_WRITE, cols.index, index,
                                     success, node)
                # A successful NB access moves a value but never
                # stalls; failed ones, and status checks, are plain
                # events that touch no table (a failed NB attempt still
                # occupies its port for the cycle).
                kind = K_OTHER
                answer = success
                if code == NB_WRITE:
                    channel.write_port_time = cycle
                    fifo.add_write_port(node)
                    if success:
                        kind = K_NB_WRITE
                        fifo.add_write(node)
                        fifo.values.append(request.value)
                        fifo.write_times.append(cycle)
                        if fifo.read_waiter is not None:
                            self._try_answer_waiting_read(fifo.read_waiter)
                        woken = fifo.reader
                elif code == NB_READ:
                    channel.read_port_time = cycle
                    fifo.add_read_port(node)
                    if success:
                        kind = K_NB_READ
                        fifo.add_read(node)
                        channel.emitted_reads = index
                        fifo.read_times.append(cycle)
                        woken = fifo.writer
                        answer = (True, fifo.values[index - 1])
                    else:
                        answer = (False, None)
                if woken is not None:
                    self._wake(woken)
                # answer the paused context; it runs on from here
                run.waiting = None
                self._deliver(run, answer)
                woken = run
            elif code >= START_TASK:
                kind = K_OTHER
                if code == END_TASK:
                    trace.add_end_node(run.name, node)
            else:
                cycle, kind = self._commit_axi(request, code, cycle, node)

            pending.popleft()
            if mid < 0:
                mid = run.mid = trace.module_id(run.name)
            add_module(mid)
            add_nominal(nominal)
            add_time(cycle)
            add_kind(kind)
            # a stall freezes everything later in the segment
            if cycle - offset > start:
                start = cycle - offset
            if cycle > last:
                last = cycle
            progress = True
            if woken is not None and not woken.queued and (
                    woken.state != DONE or woken.pending):
                woken.queued = True
                work.append(woken)
            if forced:
                break
        ledger.effective_start = start
        ledger.cur_serial = serial
        ledger.cur_base = base
        ledger.last_commit_time = last
        return progress

    def _commit_axi(self, request, code: int, ready: int,
                    node: int) -> tuple[int, int]:
        """Commit cycle and node kind of an AXI event (never blocked:
        what it waits for was committed earlier by the same module)."""
        port, cols = self._axis[request.port]
        index = request.index
        if code == AXI_READ:
            data_ready = port.read_beat_ready(index)
            if data_ready is None:
                raise SimulationError("axi read beat before its request")
            cycle = max(ready, data_ready, port.read_channel_time + 1)
            port.commit_read_beat(index, cycle)
            port.read_channel_time = cycle
            cols.read_beat_nodes.append(node)
            return cycle, K_AXI_READ
        if code == AXI_WRITE:
            cycle = max(ready, port.write_channel_time + 1)
            port.write_channel_time = cycle
            port.commit_write_beat(index, cycle)
            cols.write_beat_nodes.append(node)
            return cycle, K_OTHER
        if code == AXI_WRITE_RESP:
            resp_ready = port.write_resp_ready(index)
            if resp_ready is None:
                raise SimulationError("write_resp before its burst")
            burst = port.write_bursts[index]
            cols.add_write_resp(node, burst.first_beat, burst.length)
            return max(ready, resp_ready), K_AXI_RESP
        # the two burst requests share the request channel
        cycle = max(ready, port.req_channel_time + 1)
        port.req_channel_time = cycle
        if code == AXI_READ_REQ:
            port.commit_read_req(index, cycle)
            burst = port.read_bursts[index]
            cols.add_read_req(node, burst.first_beat, burst.length)
        else:
            port.commit_write_req(index, cycle)
            cols.write_req_nodes.append(node)
        return cycle, K_OTHER

    # ------------------------------------------------------------------
    # stuck resolution: earliest-query-false rule + deadlock (paper 7.1)

    def _resolve_stuck(self) -> None:
        """Apply the earliest-query-false rule (paper 7.1).

        All pending queries whose ready cycle is not later than every other
        module's future-commit bound resolve as failures in one batch:
        resolving one query only moves other modules *forward*, so bounds
        are monotone and the batch is as sound as one-at-a-time
        resolution (and far cheaper on designs that poll constantly).

        One pass over the modules computes every head's ready cycle,
        what (if anything) it waits on, and the query candidates.
        """
        fifos = self._fifos
        heads = {}
        candidates = []
        for run in self.runs:
            if not run.pending:
                continue  # drained: no future commits
            request = run.pending[0]
            ledger = run.ledger
            start, base = ledger.effective_start, ledger.cur_base
            if request.segment != ledger.cur_serial:
                start += request.seg_base - base
                base = request.seg_base
            offset = request.nominal - base
            ready = start + offset
            # the module that must commit first, for a blocking access
            # whose constraint is still missing
            source = None
            code = request.code
            if code == FIFO_READ:
                fifo = fifos[request.fifo]
                if request.index > len(fifo.write_times):
                    source = fifo.writer
            elif code == FIFO_WRITE:
                fifo = fifos[request.fifo]
                if request.index - fifo.depth > len(fifo.read_times):
                    source = fifo.reader
            elif code <= CAN_READ:
                candidates.append((ready, run))
            slack = offset - 1 if request.pipelined and offset > 1 else 0
            heads[run] = (ready, slack, source)
        if candidates:
            bounds = future_bounds(heads)
            lowest = second = INFINITY
            for bound in bounds.values():
                if bound < lowest:
                    lowest, second = bound, lowest
                elif bound < second:
                    second = bound
            resolved_any = False
            for ready, run in sorted(candidates, key=itemgetter(0)):
                guard = second if bounds[run] == lowest else lowest
                if ready <= guard:
                    self.stats.queries_resolved_false_by_rule += 1
                    # Not an assert: forced resolution must actually run
                    # (an ``assert fn()`` would strip the call, and the
                    # stuck-resolution loop with it, under ``python -O``).
                    if not self._commit_ready(run, forced=True):
                        raise SimulationError(
                            "forced query resolution failed to commit"
                        )
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
                request = run.waiting
                blocked[run.name] = (
                    f"blocking read on empty FIFO '{request.fifo}'"
                    if request.code == FIFO_READ
                    else f"unresolved {request.kind} on '{request.fifo}'"
                )
            elif event is not None:
                detail = getattr(event, "fifo", None)
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
        # each request commits once, each query records one constraint
        self.stats.events = len(trace.time)
        self.stats.queries = len(trace.c_node)
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
