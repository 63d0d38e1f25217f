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


class ThreadedOmniSimulator(OmniSimulator):
    """OmniSim with Func Sim contexts on real OS threads."""

    name = "omnisim-threads"

    _SENTINEL_DONE = object()

    def _build(self) -> None:
        super()._build()
        self._requests: queue.Queue = queue.Queue()
        #: one answer channel per Func Sim thread (at most one answer
        #: is ever in flight: the thread is paused until it arrives)
        self._channels = {run.name: queue.SimpleQueue()
                          for run in self.runs}
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
                self._requests.put((run, request))
                if request.needs_response:
                    # Pause: leave the active set and wait for the Perf
                    # Sim thread's answer (which re-enters the active
                    # set on this thread's behalf).
                    with self._active_lock:
                        self._active -= 1
                    response = channel.get()
        except BaseException as exc:  # propagate crashes to the engine
            self._crash = exc
        finally:
            # sentinel first: the tracker must not read zero while this
            # thread's completion is still unpublished
            self._requests.put((run, self._SENTINEL_DONE))
            with self._active_lock:
                self._active -= 1

    # ------------------------------------------------------------------
    # response delivery goes through the thread's channel

    def _deliver(self, run: _ModuleRun, answer) -> None:
        # The thread counts as active from the moment its answer exists,
        # not from whenever the OS wakes it: otherwise the tracker could
        # read zero while an answered thread has yet to run.
        run.state = RUNNABLE
        with self._active_lock:
            self._active += 1
        self._channels[run.name].put(answer)

    # ------------------------------------------------------------------
    # Perf Sim (engine) loop

    def _main_loop(self) -> None:
        for run in self.runs:
            thread = threading.Thread(
                target=self._worker, args=(run,),
                name=f"funcsim-{run.name}", daemon=True,
            )
            self._threads.append(thread)
            thread.start()

        while True:
            if self._crash is not None:
                raise self._crash
            try:
                item = self._requests.get_nowait()
            except queue.Empty:
                with self._active_lock:
                    idle = self._active == 0 and self._requests.empty()
                if idle:
                    if self._step_idle():
                        continue
                    break
                # a Func Sim thread is computing: wait for its request
                try:
                    item = self._requests.get(timeout=0.005)
                except queue.Empty:
                    continue
            run, request = item
            if request is self._SENTINEL_DONE:
                run.state = DONE
                self._commit_ready(run)
                continue

            # The same emission bookkeeping and commit kernel as the
            # coroutine executor; a paused thread is WAITING until
            # ``_deliver`` posts its answer.
            run.pending.append(request)
            if request.needs_response:
                run.state = WAITING
            self._on_emit(run, request)
            self._commit_ready(run)

        for thread in self._threads:
            thread.join(timeout=5.0)
            if thread.is_alive():
                raise SimulationError(
                    f"Func Sim thread {thread.name} failed to terminate"
                )

    def _step_idle(self) -> bool:
        """All Func Sim threads are paused (task tracker at zero, request
        queue empty): commit what we can, then try query resolution
        (step 4).  False once every module has drained."""
        progress = False
        for run in self.runs:
            progress |= self._commit_ready(run)
            if run.state == WAITING:
                before = run.waiting
                self._try_answer_waiting_read(run)
                progress |= run.waiting is not before
        if not progress:
            if all(run.drained for run in self.runs):
                return False
            self._resolve_stuck()
        return True
