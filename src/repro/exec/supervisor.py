"""Supervised work-queue execution over a process pool.

``repro.dse`` and ``repro.api.run_many`` used to drive bare
``pool.map`` over contiguous chunks: one OOM-killed worker raised
``BrokenProcessPool`` and discarded every completed configuration, a
hung engine stalled the sweep forever, and nothing distinguished "this
config crashes the simulator" from "the scheduler had a bad day".  The
:class:`Supervisor` replaces that with an explicit work queue:

* chunks are submitted as individual futures and harvested with
  :func:`concurrent.futures.wait`, so one failure costs one chunk;
* each chunk carries a wall-clock **deadline** (:class:`ExecPolicy`
  ``timeout``); an expired chunk's pool is killed and respawned, and
  the chunk is retried;
* a failed multi-config chunk is **split in half** and both halves
  retried, binary-searching for the configuration that actually caused
  the failure; the innocent majority completes normally;
* retries use **exponential backoff with seeded jitter** so a flapping
  resource isn't hammered;
* a single configuration that keeps failing is promoted to a **solo
  run** — executed with the pool to itself once other work drains — so
  collateral damage from a neighbouring crash can never be mistaken
  for guilt.  Only a solo failure quarantines the config, as a
  structured outcome rather than an aborted sweep;
* ``BrokenProcessPool`` is recovered by respawning the pool; chunks
  that were merely in flight are requeued without penalty.

The supervisor is generic: callers provide a ``pool_factory`` (a fresh
``ProcessPoolExecutor`` with their initializer) and a picklable
``chunk_fn`` executed in workers.  The wire format for one chunk is a
list of ``(payload, fault_directive)`` pairs — directives come from
:class:`repro.exec.faults.FaultPlan` and are consumed on the parent
side at submission time, so fault schedules stay deterministic across
retries and respawns.  ``chunk_fn`` must return one outcome value per
pair, in order.

:func:`run_serial` is the ``jobs=1`` twin: same retry/backoff/
quarantine policy and the same report shape, no pool.  (A serial run
cannot outlive a hang — there is no second process to enforce a
deadline — which is exactly what the SIGKILL-and-resume CI smoke
exploits.)

Neither knows how an evaluator groups its work: both hand it a list of
payloads and take back one value per payload, in order.
"""

from __future__ import annotations

import dataclasses
import random
import time
from collections import deque
# BrokenExecutor is the cheap-to-import base of BrokenProcessPool
# (concurrent.futures.process pulls in multiprocessing).
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, wait
from dataclasses import dataclass, field

from ..errors import (
    ChunkTimeoutError,
    ReproError,
    RequestError,
    WorkerCrashError,
)
from .faults import apply_fault

#: initial chunking granularity: a run starts as ``jobs *
#: CHUNKS_PER_WORKER`` chunks (the old ``pool.map`` sizing)
CHUNKS_PER_WORKER = 4


def chunk_contiguous(items, pieces):
    """Split ``items`` into at most ``pieces`` contiguous, non-empty
    chunks of near-equal size (earlier chunks take the remainder).

    Returns ``[]`` for empty input — never an empty chunk, so pool
    workers always receive real work.
    """
    items = list(items)
    if not items:
        return []
    pieces = max(1, min(int(pieces), len(items)))
    base, extra = divmod(len(items), pieces)
    chunks = []
    start = 0
    for i in range(pieces):
        size = base + (1 if i < extra else 0)
        chunks.append(items[start:start + size])
        start += size
    return chunks


@dataclass(frozen=True)
class Unit:
    """One schedulable unit of work.

    ``index`` is the unit's position in the caller's full enumeration
    (fault rules address it); ``key`` is a content-derived string the
    checkpoint journal stores outcomes under; ``payload`` is whatever
    the caller's ``chunk_fn`` consumes.
    """

    index: int
    key: str
    payload: object


@dataclass
class ExecPolicy:
    """Knobs governing supervised execution.

    ``jobs``
        Worker processes a run may use (a run with nothing to shard,
        or a design that cannot cross the process boundary, stays
        in-process whatever it says).
    ``timeout``
        Per-chunk wall-clock deadline in seconds (``None`` = no hang
        protection).  When set, at most ``jobs`` chunks are in flight
        so a submitted chunk starts executing immediately and its
        deadline measures real execution time, not queue time.
    ``max_retries``
        Failures a single configuration may accrue before its verdict
        run; the verdict itself is a solo run (pool branch) so
        collateral pool breakage can never quarantine an innocent
        config.
    ``backoff_base`` / ``backoff_cap``
        Exponential backoff: retry *n* waits
        ``min(cap, base * 2**(n-1))`` scaled by seeded jitter in
        ``[0.5, 1.5)``.
    ``seed``
        Seed for the jitter RNG — supervision is deterministic given
        the same failures.
    """

    timeout: float | None = None
    max_retries: int = 3
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    seed: int = 0
    jobs: int = 1

    def __post_init__(self):
        if self.jobs < 1:
            raise RequestError(f"jobs must be >= 1, got {self.jobs}")
        if self.timeout is not None and self.timeout <= 0:
            raise RequestError(
                f"timeout must be > 0 (or None), got {self.timeout}")
        if self.max_retries < 0:
            raise RequestError(
                f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise RequestError("backoff values must be >= 0")


@dataclass
class SupervisionReport:
    """Provenance block for one supervised run (``SweepResult.
    supervision`` / ``run_many`` provenance)."""

    mode: str = "pool"
    jobs: int = 1
    units: int = 0
    retries: int = 0
    respawns: int = 0
    splits: int = 0
    timeouts: int = 0
    crashes: int = 0
    errors: int = 0
    solo_runs: int = 0
    faults_injected: int = 0
    seconds: float = 0.0
    quarantined: list = field(default_factory=list)

    def to_json(self) -> dict:
        return dataclasses.asdict(self)

    def absorb(self, later: "SupervisionReport") -> None:
        """Fold a later call's report into this running total."""
        for name in ("units", "retries", "respawns", "splits", "timeouts",
                     "crashes", "errors", "solo_runs"):
            setattr(self, name, getattr(self, name) + getattr(later, name))
        if later.mode == "pool":
            self.mode = "pool"
        self.jobs = max(self.jobs, later.jobs)
        self.seconds = round(self.seconds + later.seconds, 6)
        self.quarantined += later.quarantined


class _Chunk:
    """A queued slice of units plus its failure history."""

    __slots__ = ("units", "suspects", "not_before", "solo")

    def __init__(self, units, suspects=0, not_before=0.0, solo=False):
        self.units = list(units)
        self.suspects = suspects      # failures attributed so far
        self.not_before = not_before  # monotonic backoff gate
        self.solo = solo              # must run with the pool to itself


def _quarantine_detail(unit: Unit, exc: BaseException, attempts: int) -> dict:
    return {
        "index": unit.index,
        "key": unit.key,
        "reason": type(exc).__name__,
        "message": str(exc),
        "attempts": attempts,
    }


class Supervisor:
    """Drives a set of :class:`Unit`\\ s through a worker pool to a
    complete verdict: every unit ends ``("ok", value)`` or
    ``("quarantined", detail)`` — never lost.

    ``pool_factory``
        Zero-argument callable returning a fresh
        ``ProcessPoolExecutor`` (the supervisor respawns pools after
        crashes and kills, so creation must be repeatable).
    ``chunk_fn``
        Picklable function run in workers; receives
        ``[(payload, fault_directive_or_None), ...]`` and returns one
        outcome per pair, in order.
    ``record``
        Optional ``record(unit, status, value)`` callback invoked the
        moment each unit completes (``status`` is ``"ok"`` or
        ``"quarantined"``) — the checkpoint journal hook.
    """

    def __init__(self, pool_factory, chunk_fn, *, jobs,
                 policy=None, fault_plan=None, record=None):
        self.pool_factory = pool_factory
        self.chunk_fn = chunk_fn
        self.jobs = max(1, int(jobs))
        self.policy = policy if policy is not None else ExecPolicy()
        self.fault_plan = fault_plan
        self.record = record
        self.report = SupervisionReport(mode="pool", jobs=self.jobs)
        self._rng = random.Random(self.policy.seed)
        self._pool = None
        self._queue: "deque[_Chunk]" = deque()
        self._inflight: dict = {}   # future -> (_Chunk, deadline | None)
        self._results: dict = {}    # unit index -> (status, value)

    # -- public ---------------------------------------------------------

    def run(self, units):
        """Execute ``units``; returns ``(results, report)`` where
        ``results`` maps unit index to ``("ok", value)`` or
        ``("quarantined", detail)``."""
        units = list(units)
        self.report.units = len(units)
        started = time.monotonic()
        pieces = self.jobs * CHUNKS_PER_WORKER
        for group in chunk_contiguous(units, pieces):
            self._queue.append(_Chunk(group))
        try:
            while self._queue or self._inflight:
                self._fill()
                if not self._inflight:
                    if not self._queue:
                        break
                    # Everything queued is backing off; nap until the
                    # earliest gate opens.
                    gap = (min(c.not_before for c in self._queue)
                           - time.monotonic())
                    time.sleep(min(max(gap, 0.001), 0.25))
                    continue
                self._handle_done(self._wait())
                self._check_deadlines()
        finally:
            self._shutdown()
            if self.fault_plan is not None:
                self.report.faults_injected = self.fault_plan.injected
            self.report.seconds = round(time.monotonic() - started, 6)
        return self._results, self.report

    # -- scheduling -----------------------------------------------------

    @property
    def _cap(self):
        # With a timeout, cap in-flight chunks at the worker count so a
        # submitted chunk starts immediately and its deadline measures
        # execution, not time spent queued behind other chunks.
        return self.jobs if self.policy.timeout is not None else None

    def _fill(self):
        rotations = 0
        while self._queue and (self._cap is None
                               or len(self._inflight) < self._cap):
            if any(chunk.solo for chunk, _ in self._inflight.values()):
                break  # a solo verdict run owns the pool
            chunk = self._queue[0]
            now = time.monotonic()
            if chunk.not_before > now or (chunk.solo and self._inflight):
                self._queue.rotate(-1)  # let ready/non-solo work pass
                rotations += 1
                if rotations >= len(self._queue):
                    break
                continue
            self._queue.popleft()
            rotations = 0
            if not self._submit(chunk):
                break

    def _submit(self, chunk) -> bool:
        if self._pool is None:
            self._pool = self.pool_factory()
        wire = []
        for unit in chunk.units:
            directive = (self.fault_plan.take(unit.index)
                         if self.fault_plan is not None else None)
            wire.append((unit.payload, directive))
        try:
            future = self._pool.submit(self.chunk_fn, wire)
        except (BrokenExecutor, RuntimeError):
            # The pool broke between harvests; recycle everything.
            self._queue.appendleft(chunk)
            self._requeue_inflight()
            self._respawn()
            return False
        deadline = (time.monotonic() + self.policy.timeout
                    if self.policy.timeout is not None else None)
        self._inflight[future] = (chunk, deadline)
        if chunk.solo:
            self.report.solo_runs += 1
        return True

    def _wait(self):
        now = time.monotonic()
        horizons = []
        if self.policy.timeout is not None:
            horizons += [deadline - now
                         for _, deadline in self._inflight.values()]
        if self._queue and (self._cap is None
                            or len(self._inflight) < self._cap):
            horizons.append(min(c.not_before for c in self._queue) - now)
        wait_for = max(0.01, min(horizons)) if horizons else None
        done, _ = wait(list(self._inflight), timeout=wait_for,
                       return_when=FIRST_COMPLETED)
        return done

    # -- outcome handling -----------------------------------------------

    def _handle_done(self, done):
        broken = []
        for future in done:
            chunk, _ = self._inflight.pop(future)
            try:
                values = future.result()
            except BrokenExecutor:
                broken.append(chunk)
            except Exception as exc:
                # An exception the chunk_fn let escape (injected
                # transient error, unexpected worker failure).
                self._failed(chunk, exc)
            else:
                for unit, value in zip(chunk.units, values):
                    self._complete(unit, value)
        if broken:
            # The pool is gone.  The chunks whose futures raised are
            # suspects; everything merely in flight is collateral and
            # goes back unpenalized.  (Collective suspicion is safe:
            # quarantine additionally requires failing a solo run.)
            self._requeue_inflight()
            self._respawn()
            for chunk in broken:
                self._failed(chunk, WorkerCrashError(
                    "worker process died while executing this chunk "
                    "(BrokenProcessPool)"))

    def _check_deadlines(self):
        if self.policy.timeout is None or not self._inflight:
            return
        now = time.monotonic()
        expired = [future for future, (_, deadline) in self._inflight.items()
                   if deadline is not None and now >= deadline]
        if not expired:
            return
        hung = [self._inflight.pop(future)[0] for future in expired]
        # Hung workers hold pool slots hostage; kill the whole pool,
        # requeue the innocent in-flight chunks untouched, and charge
        # the expired ones.
        self._requeue_inflight()
        self._respawn(kill=True)
        for chunk in hung:
            self._failed(chunk, ChunkTimeoutError(
                f"chunk of {len(chunk.units)} config(s) exceeded the "
                f"{self.policy.timeout:g}s wall-clock timeout"))

    def _failed(self, chunk, exc):
        if isinstance(exc, WorkerCrashError):
            self.report.crashes += 1
        elif isinstance(exc, ChunkTimeoutError):
            self.report.timeouts += 1
        else:
            self.report.errors += 1
        if len(chunk.units) > 1:
            # Split in half to isolate whichever config is to blame;
            # both halves inherit the suspicion.
            mid = (len(chunk.units) + 1) // 2
            self.report.splits += 1
            self.report.retries += 1
            for part in (chunk.units[:mid], chunk.units[mid:]):
                self._requeue(_Chunk(part, suspects=chunk.suspects + 1))
            return
        chunk.suspects += 1
        if chunk.solo:
            # It failed with the pool to itself: unambiguous verdict.
            self._quarantine(chunk.units[0], exc, chunk.suspects)
            return
        if chunk.suspects > self.policy.max_retries:
            # Out of ordinary retries — schedule the verdict run.
            chunk.solo = True
        self.report.retries += 1
        self._requeue(chunk)

    def _requeue(self, chunk):
        n = max(0, chunk.suspects - 1)
        delay = min(self.policy.backoff_cap,
                    self.policy.backoff_base * (2 ** n))
        chunk.not_before = (time.monotonic()
                            + delay * (0.5 + self._rng.random()))
        self._queue.append(chunk)

    def _requeue_inflight(self):
        for chunk, _ in self._inflight.values():
            chunk.not_before = 0.0
            self._queue.append(chunk)
        self._inflight.clear()

    def _complete(self, unit, value):
        self._results[unit.index] = ("ok", value)
        if self.record is not None:
            self.record(unit, "ok", value)

    def _quarantine(self, unit, exc, attempts):
        detail = _quarantine_detail(unit, exc, attempts)
        self.report.quarantined.append(detail)
        self._results[unit.index] = ("quarantined", detail)
        if self.record is not None:
            self.record(unit, "quarantined", detail)

    # -- pool lifecycle -------------------------------------------------

    def _respawn(self, kill=False):
        pool, self._pool = self._pool, None
        self.report.respawns += 1
        if pool is None:
            return
        if kill:
            for proc in list((getattr(pool, "_processes", None)
                              or {}).values()):
                try:
                    proc.kill()
                except (OSError, AttributeError):  # pragma: no cover
                    pass
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:  # pragma: no cover - teardown is best-effort
            pass

    def _shutdown(self):
        pool, self._pool = self._pool, None
        if pool is not None:
            try:
                # An idle pool is joined: left to wind down on its own,
                # its manager thread can still be closing the wakeup
                # pipe that interpreter exit writes to (EBADF).
                pool.shutdown(wait=not self._inflight, cancel_futures=True)
            except Exception:  # pragma: no cover
                pass


def run_serial(units, evaluate, *, policy=None, fault_plan=None,
               record=None):
    """The ``jobs=1`` twin of :class:`Supervisor`: same retry, backoff
    and quarantine policy, same ``(results, report)`` shape, no pool.

    ``evaluate(payloads)`` yields one value per payload, in order; the
    units go through it in one call and each value is recorded as the
    stream yields it, so checkpoint granularity is per unit however
    the evaluator groups its work.  Any
    :class:`~repro.errors.ReproError` escaping the stream is treated as
    transient: it is charged to the first unit not yet yielded, and
    that unit and the rest are evaluated one call each, every unit
    retried up to ``max_retries`` times before it is quarantined.

    Fault injection always takes the per-unit path: directives target
    individual unit indices, fire immediately before their target's
    evaluation, and are applied in-process (``crash`` raises
    :class:`~repro.errors.WorkerCrashError` instead of killing the
    interpreter).
    """
    policy = policy if policy is not None else ExecPolicy()
    units = list(units)
    rng = random.Random(policy.seed)
    report = SupervisionReport(mode="serial", jobs=1, units=len(units))
    results: dict = {}
    started = time.monotonic()

    def finish(unit, status, value):
        results[unit.index] = (status, value)
        if record is not None:
            record(unit, status, value)

    def run_alone(unit, exc=None):
        """Evaluate ``unit`` to a verdict; ``exc`` is a failure it has
        already had."""
        attempts = 0
        while True:
            if exc is not None:
                attempts += 1
                if isinstance(exc, WorkerCrashError):
                    report.crashes += 1
                else:
                    report.errors += 1
                if attempts > policy.max_retries:
                    detail = _quarantine_detail(unit, exc, attempts)
                    report.quarantined.append(detail)
                    return finish(unit, "quarantined", detail)
                report.retries += 1
                delay = min(policy.backoff_cap,
                            policy.backoff_base
                            * (2 ** max(0, attempts - 1)))
                time.sleep(delay * (0.5 + rng.random()))
            directive = (fault_plan.take(unit.index)
                         if fault_plan is not None else None)
            try:
                if directive is not None:
                    apply_fault(directive, in_process=True)
                value, = evaluate([unit.payload])
            except ReproError as again:
                exc = again
            else:
                return finish(unit, "ok", value)

    failure = None
    if fault_plan is None:
        try:
            for unit, value in zip(units, evaluate([u.payload
                                                    for u in units])):
                finish(unit, "ok", value)
        except ReproError as exc:
            failure = exc
    for unit in units[len(results):]:
        run_alone(unit, failure)
        failure = None
    if fault_plan is not None:
        report.faults_injected = fault_plan.injected
    report.seconds = round(time.monotonic() - started, 6)
    return results, report
