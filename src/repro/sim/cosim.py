"""Cycle-stepped co-simulation: the reproduction's RTL-level oracle.

This engine plays the role of C/RTL co-simulation in the paper's
evaluation: it advances a global clock one cycle at a time, retrying every
stalled FIFO access each cycle against *per-cycle occupancy state*
(``can_read_at``/``can_write_at`` counting), never against the
index-comparison shortcut of paper Table 2 that OmniSim uses.  It is an
independent implementation of the hardware timing contract and serves as
the accuracy baseline of Fig. 8(a) and the speed baseline of Fig. 8(b);
its runtime is O(total cycles x modules), which is exactly why real
co-simulation is slow.

Functional execution uses the shared interpreter (the values of blocking
accesses are timing-independent, so run-ahead is legal); only *timing* is
clock-stepped.
"""

from __future__ import annotations

import os as _os
import time as _time

from ..errors import DeadlockError, SimulationError
from .context import (
    RuntimeState,
    build_runtime_state,
    collect_outputs,
    make_executor,
    resolve_executor,
)
from .ledger import INFINITY, future_bounds
# the per-module run record (generator, ledger, paused-on request) is
# bookkeeping, not timing: the oracle shares it with the engine it checks
from .omnisim import DONE, RUNNABLE, WAITING, _ModuleRun
from .result import SimulationResult, SimulationStats

DEFAULT_MAX_CYCLES = 100_000_000


class CoSimulator:
    """Clock-driven reference simulator (the "co-sim" baseline)."""

    name = "cosim"

    def __init__(self, compiled, depths: dict | None = None,
                 step_limit: int | None = None,
                 max_cycles: int = DEFAULT_MAX_CYCLES,
                 executor: str | None = None):
        self.compiled = compiled
        self.depths = dict(depths or {})
        self.step_limit = step_limit
        self.max_cycles = max_cycles
        self.executor = resolve_executor(executor)
        # Test-only fault switch: restore the pre-fix finality guard on
        # *successful* query outcomes (the spurious-deadlock bug the
        # differential fuzzer originally caught).  The fuzz-smoke CI job
        # sets it to prove the fuzzer still finds, minimizes and pins
        # that divergence; it must never be set in production runs.
        self._inject_finality_bug = _os.environ.get(
            "REPRO_INJECT_COSIM_FINALITY_BUG", ""
        ) not in ("", "0")

    # ------------------------------------------------------------------

    def run(self) -> SimulationResult:
        start = _time.perf_counter()
        self.state: RuntimeState = build_runtime_state(
            self.compiled, self.depths
        )
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
        self._read_waiters: dict[str, _ModuleRun] = {}
        by_name = {run.name: run for run in self.runs}
        self._fifo_writer: dict[str, _ModuleRun] = {}
        self._fifo_reader: dict[str, _ModuleRun] = {}
        for stream in self.compiled.design.streams.values():
            self._fifo_writer[stream.name] = by_name[stream.writer[0].name]
            self._fifo_reader[stream.name] = by_name[stream.reader[0].name]
        self._module_ends: dict[str, int] = {}

        try:
            self._clock_loop()
        finally:
            self._execute_seconds = _time.perf_counter() - start
        return self._make_result()

    # ------------------------------------------------------------------
    # functional pump (clock-independent run-ahead)

    def _pump_all(self) -> bool:
        progress = False
        for run in self.runs:
            if run.state == WAITING:
                self._try_answer_waiting_read(run)
            if run.state == RUNNABLE:
                progress |= self._pump(run)
        return progress

    def _try_answer_waiting_read(self, run: _ModuleRun) -> None:
        event = run.waiting
        if event is None or event.kind != "fifo_read":
            return
        fifo = self.state.fifos[event.fifo]
        if fifo.value_available(event.index):
            run.response = fifo.value_for(event.index)
            run.state = RUNNABLE
            run.waiting = None
            self._read_waiters.pop(fifo.name, None)

    def _pump(self, run: _ModuleRun) -> bool:
        progress = False
        while run.state == RUNNABLE:
            try:
                request = run.gen.send(run.response)
            except StopIteration:
                run.state = DONE
                progress = True
                break
            run.response = None
            progress = True
            run.ledger.add(request)
            self.stats.events += 1
            if request.is_query:
                self.stats.queries += 1
            self._on_emit(run, request)
        return progress

    def _on_emit(self, run: _ModuleRun, request) -> None:
        kind = request.kind
        if kind == "fifo_write":
            fifo = self.state.fifos[request.fifo]
            request.index = fifo.push_value(request.value)
            waiter = self._read_waiters.get(fifo.name)
            if waiter is not None:
                self._try_answer_waiting_read(waiter)
        elif kind == "fifo_read":
            fifo = self.state.fifos[request.fifo]
            request.index = fifo.assign_read_index()
            if fifo.value_available(request.index):
                run.response = fifo.value_for(request.index)
            else:
                run.state = WAITING
                run.waiting = request
                self._read_waiters[fifo.name] = run
        elif kind in ("fifo_nb_read", "fifo_nb_write",
                      "fifo_can_read", "fifo_can_write"):
            run.state = WAITING
            run.waiting = request
        elif kind == "axi_read_req":
            port = self.state.axis[request.port]
            request.index = port.emit_read_req(request.offset, request.length)
        elif kind == "axi_read":
            port = self.state.axis[request.port]
            beat, value = port.emit_read_beat()
            request.index = beat
            run.response = value
        elif kind == "axi_write_req":
            port = self.state.axis[request.port]
            request.index = port.emit_write_req(request.offset, request.length)
        elif kind == "axi_write":
            port = self.state.axis[request.port]
            request.index = port.emit_write_beat(request.value)
        elif kind == "axi_write_resp":
            port = self.state.axis[request.port]
            request.index = port.emit_write_resp()

    # ------------------------------------------------------------------
    # the clock loop

    def _clock_loop(self) -> None:
        clock = 0
        self._pump_all()
        while not all(run.drained for run in self.runs):
            committed = False
            while True:
                cycle_progress = False
                for run in self.runs:
                    cycle_progress |= self._commit_at(run, clock)
                cycle_progress |= self._pump_all()
                committed |= cycle_progress
                if not cycle_progress:
                    break
            if all(run.drained for run in self.runs):
                break
            if not committed and not self._has_future_work(clock):
                self._resolve_stuck(clock)
                continue
            clock += 1
            if clock > self.max_cycles:
                raise SimulationError(
                    f"co-simulation exceeded {self.max_cycles} cycles"
                )

    def _has_future_work(self, clock: int) -> bool:
        """True if some head's next possible attempt lies after ``clock``
        (an AXI beat in flight, a port busy this cycle, ...), so the clock
        should keep ticking rather than declare the simulation stuck."""
        for run in self.runs:
            event = run.ledger.head()
            if event is None:
                continue
            if self._next_attempt_cycle(run, event) > clock:
                return True
        return False

    def _next_attempt_cycle(self, run, event) -> int:
        """Earliest cycle the head could possibly commit, given what is
        known now (missing cross-module constraints contribute nothing:
        they require someone else to commit first)."""
        ready = run.ledger.ready_of(event)
        kind = event.kind
        if kind in ("fifo_write", "fifo_nb_write", "fifo_can_write"):
            fifo = self.state.fifos[event.fifo]
            if kind != "fifo_can_write":
                ready = max(ready, fifo.write_port_time + 1)
        elif kind in ("fifo_read", "fifo_nb_read", "fifo_can_read"):
            fifo = self.state.fifos[event.fifo]
            if kind != "fifo_can_read":
                ready = max(ready, fifo.read_port_time + 1)
        elif kind == "axi_read":
            port = self.state.axis[event.port]
            data_ready = port.read_beat_ready(event.index)
            ready = max(ready, data_ready or 0,
                        port.read_channel_time + 1)
        elif kind == "axi_write_resp":
            port = self.state.axis[event.port]
            resp_ready = port.write_resp_ready(event.index)
            ready = max(ready, resp_ready or 0)
        elif kind in ("axi_read_req", "axi_write_req"):
            port = self.state.axis[event.port]
            ready = max(ready, port.req_channel_time + 1)
        elif kind == "axi_write":
            port = self.state.axis[event.port]
            ready = max(ready, port.write_channel_time + 1)
        return ready

    # ------------------------------------------------------------------
    # per-cycle commit attempts

    def _commit_at(self, run: _ModuleRun, clock: int) -> bool:
        progress = False
        while True:
            event = run.ledger.head()
            if event is None:
                break
            if not self._try_commit_at(run, event, clock):
                break
            progress = True
        return progress

    def _try_commit_at(self, run: _ModuleRun, event, clock: int) -> bool:
        ready = run.ledger.ready_of(event)
        if ready > clock:
            return False
        kind = event.kind
        fifos = self.state.fifos

        if kind in ("start_task", "trace_block", "end_task"):
            self._commit(run, event, ready)
            if kind == "end_task":
                self._module_ends[run.name] = ready
            return True

        if kind == "fifo_write":
            fifo = fifos[event.fifo]
            cycle = max(ready, fifo.write_port_time + 1)
            if event.index > fifo.depth:
                freeing_read = fifo.read_time(event.index - fifo.depth)
                if freeing_read is None:
                    return False  # stalled on a full FIFO
                cycle = max(cycle, freeing_read + 1)
            if cycle > clock:
                return False
            self._commit(run, event, cycle)
            fifo.commit_write(event.index, cycle)
            fifo.write_port_time = cycle
            return True

        if kind == "fifo_read":
            fifo = fifos[event.fifo]
            written = fifo.write_time(event.index)
            if written is None:
                return False  # stalled on an empty FIFO
            cycle = max(ready, written + 1, fifo.read_port_time + 1)
            if cycle > clock:
                return False
            self._commit(run, event, cycle)
            fifo.commit_read(event.index, cycle)
            fifo.read_port_time = cycle
            return True

        if kind in ("fifo_nb_write", "fifo_can_write",
                    "fifo_nb_read", "fifo_can_read"):
            return self._resolve_query_at(run, event, clock)

        if kind == "axi_read_req":
            port = self.state.axis[event.port]
            cycle = max(ready, port.req_channel_time + 1)
            if cycle > clock:
                return False
            self._commit(run, event, cycle)
            port.req_channel_time = cycle
            port.commit_read_req(event.index, cycle)
            return True

        if kind == "axi_write_req":
            port = self.state.axis[event.port]
            cycle = max(ready, port.req_channel_time + 1)
            if cycle > clock:
                return False
            self._commit(run, event, cycle)
            port.req_channel_time = cycle
            port.commit_write_req(event.index, cycle)
            return True

        if kind == "axi_write":
            port = self.state.axis[event.port]
            cycle = max(ready, port.write_channel_time + 1)
            if cycle > clock:
                return False
            self._commit(run, event, cycle)
            port.write_channel_time = cycle
            port.commit_write_beat(event.index, cycle)
            return True

        if kind == "axi_read":
            port = self.state.axis[event.port]
            data_ready = port.read_beat_ready(event.index)
            cycle = max(ready, data_ready, port.read_channel_time + 1)
            if cycle > clock:
                return False
            self._commit(run, event, cycle)
            port.commit_read_beat(event.index, cycle)
            port.read_channel_time = cycle
            return True

        if kind == "axi_write_resp":
            port = self.state.axis[event.port]
            resp_ready = port.write_resp_ready(event.index)
            cycle = max(ready, resp_ready)
            if cycle > clock:
                return False
            self._commit(run, event, cycle)
            return True

        raise SimulationError(f"unknown event kind {kind}")

    def _resolve_query_at(self, run, event, clock: int,
                          forced: bool = False) -> bool:
        """Resolve a query by per-cycle occupancy counting.

        Elastic pipelines can legally commit events with cycle numbers
        in the past, so occupancy at ``ready`` is only *final* once no
        other module can still commit before it — but a **successful**
        outcome never needs that guard: retroactive commits from other
        modules only free write space (reads) or add readable data
        (writes), so a query that succeeds against the partial occupancy
        view succeeds against the final one too.  Only a *failed*
        outcome must wait for finality (or be forced by the stuck rule).
        Guarding the success side as well — the previous implementation
        — spuriously deadlocked NB producers whose query sits at a long
        intra-iteration offset, found by differential fuzzing of
        generated Type C specs against OmniSim.
        """
        fifo = self.state.fifos[event.fifo]
        kind = event.kind
        ready = run.ledger.ready_of(event)
        if kind == "fifo_nb_write":
            ready = max(ready, fifo.write_port_time + 1)
        elif kind == "fifo_nb_read":
            ready = max(ready, fifo.read_port_time + 1)
        if ready > clock and not forced:
            return False

        if kind in ("fifo_nb_write", "fifo_can_write"):
            success = fifo.can_write_at(ready)
        else:
            success = fifo.can_read_at(ready)
        if (not success or self._inject_finality_bug) and not forced \
                and not self._occupancy_final_before(run, ready):
            return False

        self._commit(run, event, ready)
        if kind == "fifo_nb_write":
            fifo.write_port_time = ready
            if success:
                w = fifo.push_value(event.value)
                fifo.commit_write(w, ready)
                waiter = self._read_waiters.get(fifo.name)
                if waiter is not None:
                    self._try_answer_waiting_read(waiter)
            answer = bool(success)
        elif kind == "fifo_nb_read":
            fifo.read_port_time = ready
            if success:
                r = fifo.assign_read_index()
                value = fifo.value_for(r)
                fifo.commit_read(r, ready)
                answer = (True, value)
            else:
                answer = (False, None)
        else:
            answer = bool(success)

        assert run.waiting is event, "co-sim answered out of order"
        run.response = answer
        run.waiting = None
        run.state = RUNNABLE
        return True

    def _occupancy_final_before(self, asking_run, cycle: int) -> bool:
        """True if no other module can still commit an event strictly
        before ``cycle`` (same guard as OmniSim's earliest-false rule)."""
        bounds = self._future_bounds()
        guard = min((bound for name, bound in bounds.items()
                     if name != asking_run.name), default=INFINITY)
        return cycle <= guard

    # --- shared stuck/deadlock machinery ---------------------------------

    def _blocked_source(self, run, event) -> str | None:
        if event.kind == "fifo_write":
            fifo = self.state.fifos[event.fifo]
            if event.index > fifo.depth and (
                    fifo.read_time(event.index - fifo.depth) is None):
                return self._fifo_reader[fifo.name].name
            return None
        if event.kind == "fifo_read":
            fifo = self.state.fifos[event.fifo]
            if fifo.write_time(event.index) is None:
                return self._fifo_writer[fifo.name].name
            return None
        return None

    def _future_bounds(self) -> dict[str, int]:
        heads = {}
        for run in self.runs:
            if run.drained:
                continue
            event = run.ledger.head()
            if event is None:
                continue
            ready = run.ledger.ready_of(event)
            # future_commit_bound is its argument minus the head's slack
            slack = ready - run.ledger.future_commit_bound(ready)
            heads[run.name] = (ready, slack,
                               self._blocked_source(run, event))
        return future_bounds(heads)

    def _resolve_stuck(self, clock: int) -> None:
        best = None
        for run in self.runs:
            if run.drained:
                continue
            event = run.ledger.head()
            if event is None or not event.is_query:
                continue
            ready = run.ledger.ready_of(event)
            key = (ready, run.name)
            if best is None or key < best[0]:
                best = (key, run, event, ready)
        if best is not None:
            _key, run, event, ready = best
            if self._occupancy_final_before(run, ready):
                resolved = self._resolve_query_at(run, event, clock,
                                                  forced=True)
                assert resolved
                return
        self._raise_deadlock(clock)

    def _raise_deadlock(self, clock: int) -> None:
        blocked: dict[str, str] = {}
        for run in self.runs:
            if run.drained:
                continue
            event = run.ledger.head()
            if run.state == WAITING and run.waiting is not None:
                request = run.waiting
                blocked[run.name] = (
                    f"blocking read on empty FIFO '{request.fifo}'"
                    if run.waiting.kind == "fifo_read"
                    else f"unresolved {run.waiting.kind}"
                )
            else:
                detail = getattr(event, "fifo", None)
                blocked[run.name] = (
                    f"blocking write on full FIFO '{detail}'"
                    if event is not None and event.kind == "fifo_write"
                    else "no committable events"
                )
        raise DeadlockError(clock, blocked)

    # ------------------------------------------------------------------

    def _commit(self, run: _ModuleRun, event, cycle: int) -> None:
        run.ledger.commit(event, cycle)

    def _make_result(self) -> SimulationResult:
        self.stats.instructions = sum(r.interp.steps for r in self.runs)
        cycles = max(self._module_ends.values(), default=0)
        result = SimulationResult(
            design_name=self.compiled.name,
            simulator=self.name,
            cycles=cycles,
            module_end_times=dict(self._module_ends),
            stats=self.stats,
            execute_seconds=self._execute_seconds,
            frontend_seconds=self.compiled.frontend_seconds,
        )
        collect_outputs(self.compiled, self.state, result)
        return result
