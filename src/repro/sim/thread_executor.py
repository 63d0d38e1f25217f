"""Real-thread Func Sim executor with the OmniSim orchestration.

The paper's implementation runs every dataflow module on its own OS
thread, with a central Perf Sim thread processing a request queue and a
task tracker counting threads that are actively executing HLS code
(Fig. 7).  This executor reproduces that architecture literally:

* one ``threading.Thread`` per module running the functional interpreter;
* a global request queue (structure (A)) into which Func Sim threads push
  every request, pausing on a per-thread answer channel when a response is
  required;
* the engine (Perf Sim) thread drains the queue, updates the FIFO tables
  and partial simulation graph, and resolves queries — *identical* logic
  to the coroutine executor, inherited from :class:`OmniSimulator`;
* the task tracker (structure (F)): when it reaches zero and the request
  queue is empty, every Func Sim thread is paused and the engine attempts
  query resolution, exactly as in the paper's step 4.

Because all timing decisions are made against the FIFO tables rather than
thread arrival order, results are bit-identical to the coroutine executor
no matter how the OS schedules the threads — the central claim of the
paper's Fig. 2.  (The GIL makes this slower than the coroutine executor;
it exists for fidelity and as an ablation, not for speed.)

The Func Sim contexts themselves come from the executor-selection seam
inherited through :meth:`OmniSimulator._build`, so the worker threads run
the generated executor by default (``executor="interp"`` selects
the tree-walking oracle).
"""

from __future__ import annotations

import queue
import threading

from ..errors import SimulationError
from .omnisim import DONE, RUNNABLE, WAITING, OmniSimulator, _ModuleRun


class _Channel:
    """Single-slot answer channel for one Func Sim thread."""

    __slots__ = ("_queue",)

    def __init__(self):
        self._queue = queue.Queue(maxsize=1)

    def put(self, answer) -> None:
        self._queue.put(answer)

    def get(self):
        return self._queue.get()


class ThreadedOmniSimulator(OmniSimulator):
    """OmniSim with Func Sim contexts on real OS threads."""

    name = "omnisim-threads"

    _SENTINEL_DONE = object()

    def _build(self) -> None:
        super()._build()
        self._requests: queue.Queue = queue.Queue()
        self._channels: dict[str, _Channel] = {}
        self._threads: list[threading.Thread] = []
        #: the task tracker (paper structure (F))
        self._active = len(self.runs)
        self._active_lock = threading.Lock()
        self._crash: BaseException | None = None

    # ------------------------------------------------------------------
    # Func Sim worker threads

    def _worker(self, run: _ModuleRun) -> None:
        channel = self._channels[run.name]
        response = None
        try:
            while True:
                try:
                    request = run.gen.send(response)
                except StopIteration:
                    break
                response = None
                if request.needs_response:
                    # Pause: publish the request, leave the active set,
                    # and wait for the Perf Sim thread's answer.
                    self._requests.put((run, request, True))
                    with self._active_lock:
                        self._active -= 1
                    response = channel.get()
                    with self._active_lock:
                        self._active += 1
                else:
                    self._requests.put((run, request, False))
        except BaseException as exc:  # propagate crashes to the engine
            self._crash = exc
        finally:
            with self._active_lock:
                self._active -= 1
            self._requests.put((run, self._SENTINEL_DONE, False))

    # ------------------------------------------------------------------
    # response delivery goes through the thread's channel

    def _deliver(self, run: _ModuleRun, answer) -> None:
        run.state = RUNNABLE
        self._channels[run.name].put(answer)

    # ------------------------------------------------------------------
    # Perf Sim (engine) loop

    def _main_loop(self) -> None:
        for run in self.runs:
            self._channels[run.name] = _Channel()
        for run in self.runs:
            thread = threading.Thread(
                target=self._worker, args=(run,),
                name=f"funcsim-{run.name}", daemon=True,
            )
            self._threads.append(thread)
            thread.start()

        pending_commits = set()
        while True:
            if self._crash is not None:
                raise self._crash
            try:
                run, request, needs_response = self._requests.get(
                    timeout=0.005
                )
            except queue.Empty:
                with self._active_lock:
                    idle = self._active == 0 and self._requests.empty()
                if not idle:
                    continue
                # All Func Sim threads are paused (task tracker at zero):
                # commit what we can, then try query resolution (step 4).
                progress = False
                for other in self.runs:
                    progress |= self._commit_ready(other)
                    if other.state == WAITING:
                        before = other.waiting
                        self._try_answer_waiting_read(other)
                        progress |= other.waiting is not before
                if progress:
                    continue
                if all(r.state == DONE and r.ledger.pending_count == 0
                       for r in self.runs):
                    break
                self._resolve_stuck()
                continue

            if request is self._SENTINEL_DONE:
                run.state = DONE
                run.ledger.mark_finished()
                self._commit_ready(run)
                continue

            event = run.ledger.add(request)
            self.stats.events += 1
            if request.is_query:
                self.stats.queries += 1
            if needs_response:
                run.state = WAITING
            self._on_emit_threaded(run, event, needs_response)
            self._commit_ready(run)

        for thread in self._threads:
            thread.join(timeout=5.0)
            if thread.is_alive():
                raise SimulationError(
                    f"Func Sim thread {thread.name} failed to terminate"
                )

    def _on_emit_threaded(self, run: _ModuleRun, event,
                          needs_response: bool) -> None:
        """Same emission bookkeeping as the coroutine executor, but
        answers travel through thread channels."""
        request = event.request
        kind = request.kind
        if kind == "fifo_read":
            fifo = self.state.fifos[request.fifo]
            event.index = fifo.assign_read_index()
            if fifo.value_available(event.index):
                self._deliver(run, fifo.value_for(event.index))
            else:
                run.waiting = event
                self._read_waiters[fifo.name] = run
            return
        if kind == "axi_read":
            port = self.state.axis[request.port]
            beat, value = port.emit_read_beat()
            event.aux = beat
            self._deliver(run, value)
            return
        if kind in ("fifo_nb_read", "fifo_nb_write",
                    "fifo_can_read", "fifo_can_write"):
            run.waiting = event
            return
        # Fire-and-forget requests reuse the base bookkeeping (fifo_write
        # value push, AXI emissions, ...).
        saved_state = run.state
        super()._on_emit(run, event)
        run.state = saved_state

    # The coroutine pump never runs in threaded mode.
    def _pump(self, run: _ModuleRun) -> bool:  # pragma: no cover
        raise SimulationError("threaded executor does not pump coroutines")

    def _service(self, run: _ModuleRun) -> None:
        # _wake() queues runs for service after commits; in threaded mode
        # only the commit half applies (threads advance themselves).
        if run.state == WAITING:
            self._try_answer_waiting_read(run)
        self._commit_ready(run)
