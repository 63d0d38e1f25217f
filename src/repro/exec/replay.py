"""The replay policy: one implementation of paper section 7.2 at sweep scale.

Evaluating a depth configuration against a captured run is the same
four steps whoever asks (``repro.dse``, ``Session.run_many``,
``/v1/run``, ``repro run --depth``):

1. **Overlay** the configuration on the design's *declared* depths —
   never the reference's, which after a re-capture was recorded at some
   other configuration's depths — so results do not depend on
   evaluation order.
2. **Replay incrementally**: retime the reference's recorded graph under
   the new depths and re-validate its recorded query constraints, per
   configuration (:func:`replay_one`) or ``batch_size`` rows at a time
   through the NumPy batch kernel.
3. **Fall back on divergence**: a flipped constraint, or a graph made
   cyclic by the new depths, invalidates the recorded execution there —
   run a full OmniSim simulation at those depths and **re-capture** it
   as the reference, so the neighbourhood returns to the fast path.
4. **A true deadlock is an outcome**, not an exception.

:class:`Replayer` carries the mutable reference through a stream of
configurations (:meth:`Replayer.evaluate`) and is the only code that
knows what a batch is: it cuts the stream into kernel calls itself, so
the layers that journal, retry and shard the work
(:mod:`repro.exec.worker`) see one ``evaluate(payloads)`` and no batch
size.  It builds each :class:`SweepPoint` once; a
:class:`ReplayOutcome` is that point plus the handles ``run_many``
turns into a served :class:`~repro.sim.result.SimulationResult`.  It is
built in two places only: :meth:`Replayer.for_session` asks the
:class:`~repro.api.Session` what to replay against (``reference()``,
``None`` when the declared depths deadlock; ``declared()``), and
:meth:`Replayer.in_worker` rebuilds the same policy in a pool worker
from :meth:`Replayer.worker_spec`.
"""

from __future__ import annotations

import functools
import time as _time
from dataclasses import dataclass

from ..errors import (
    ConstraintViolation,
    DeadlockError,
    RequestError,
    SimulationError,
)
from ..sim.incremental import IncrementalResult
from ..sim.registry import run_engine
from ..sim.result import SimulationResult
from ..trace.columnar import DEFAULT_FIFO_WIDTH
from ..trace.vectorized import (
    DEFAULT_BATCH_SIZE,
    batch_supported,
    resimulate_batch,
)

#: which path produced an outcome's number
SOURCE_INCREMENTAL = "incremental"
SOURCE_FULL = "full"
SOURCE_DEADLOCK = "deadlock"

#: *how* that path ran (orthogonal to source): served by the batched
#: NumPy kernel, by the scalar replay loop, by the scalar loop after the
#: kernel declined the row, or by a full run
MODE_VECTORIZED = "vectorized"
MODE_SCALAR = "scalar"
MODE_SCALAR_FALLBACK = "scalar-fallback"
MODE_FULL = "full"


@dataclass
class SweepPoint:
    """One evaluated depth configuration."""

    #: full resolved depth map (every FIFO, not just the swept axes) —
    #: replayable via ``repro run --depth``
    depths: dict
    #: total simulated cycles, or None when the configuration deadlocks
    cycles: int | None
    #: total FIFO storage (sum of depth x element width), in bits
    buffer_bits: int
    #: which path produced the number (incremental / full / deadlock)
    source: str
    seconds: float
    #: why the incremental path was abandoned, when it was, or the
    #: deadlock diagnosis
    detail: str | None = None
    #: how the point was evaluated: :data:`MODE_VECTORIZED` (batched
    #: NumPy kernel), :data:`MODE_SCALAR` (scalar replay),
    #: :data:`MODE_SCALAR_FALLBACK` (kernel declined the row, scalar
    #: replay re-ran it) or :data:`MODE_FULL`; None for quarantined
    #: points and journals from before the field existed
    mode: str | None = None

    @property
    def ok(self) -> bool:
        """True when the configuration completed (did not deadlock)."""
        return self.cycles is not None

    def to_json(self) -> dict:
        """Plain-dict form for ``repro dse --json`` reports."""
        return {
            "depths": dict(self.depths),
            "cycles": self.cycles,
            "buffer_bits": self.buffer_bits,
            "source": self.source,
            "seconds": round(self.seconds, 6),
            "detail": self.detail,
            "mode": self.mode,
        }


@dataclass(slots=True)
class ReplayOutcome:
    """What the policy found at one depth configuration: the point,
    and the transient handles behind it — never kept with a collected
    point (they pin whole runs in memory and in pool pickles)."""

    point: SweepPoint
    #: the validated replay, on :data:`SOURCE_INCREMENTAL` outcomes
    incremental: IncrementalResult | None = None
    #: the run behind the number: the reference that was replayed
    #: (incremental) or the fresh re-captured run (full)
    run: SimulationResult | None = None
    #: the diagnosis, on :data:`SOURCE_DEADLOCK` outcomes
    error: DeadlockError | None = None


def replay_one(reference, depths: dict):
    """Scalar incremental replay of ``reference`` under ``depths``.

    Returns ``(IncrementalResult, None)``, or ``(None, why)`` when the
    recorded execution does not hold there and a real run must decide.
    """
    try:
        return reference.trace.resimulate(depths), None
    except ConstraintViolation as exc:
        query = exc.query
        return None, (f"constraint {query.kind} on '{query.fifo}' flipped"
                      if query is not None else str(exc))
    except SimulationError as exc:
        # Unknown/invalid depths, or the recorded graph went cyclic.
        return None, str(exc)


def _replayed(depths: dict, inc, seconds: float, mode: str,
              reference) -> ReplayOutcome:
    """The outcome of a replay of ``reference`` that re-validated."""
    return ReplayOutcome(
        SweepPoint(depths, inc.cycles, inc.buffer_bits, SOURCE_INCREMENTAL,
                   seconds, mode=mode),
        incremental=inc, run=reference)


def resolve_batch_size(batch_size: int | None) -> int:
    """Rows per kernel call of a sweep: ``None`` means
    :data:`~repro.trace.vectorized.DEFAULT_BATCH_SIZE`, below 1 is a
    :class:`~repro.errors.RequestError`."""
    if batch_size is None:
        return DEFAULT_BATCH_SIZE
    if batch_size < 1:
        raise RequestError(f"batch_size must be >= 1, got {batch_size}")
    return batch_size


def incremental_rows(reference, depth_maps: list, batch_size: int) -> list:
    """Steps 1-2 against a fixed reference
    (:meth:`repro.api.Session.resimulate_many`: no full run, so nothing
    re-captures): one ``IncrementalResult | None`` per depth map,
    ``batch_size`` rows per kernel call — one scalar replay each where
    the kernel cannot serve this reference (no NumPy, no all-depth
    replay order); ``None`` marks a row only a full run can decide."""
    trace = reference.trace
    if not batch_supported(trace):
        return [replay_one(reference, dict(depths))[0]
                for depths in depth_maps]
    return [row for lo in range(0, len(depth_maps), batch_size)
            for row in resimulate_batch(trace,
                                        depth_maps[lo:lo + batch_size])]


class Replayer:
    """The policy against a mutable reference run."""

    def __init__(self, reference, base_depths: dict, compile_fn,
                 executor: str | None = None,
                 batch_size: int = DEFAULT_BATCH_SIZE):
        """Args:
            reference: a captured OmniSim run (its ``trace`` is what
                replays), or ``None`` — every configuration then
                runs full until the first successful run re-captures
                one.
            base_depths: the design's declared depths; each evaluated
                config overlays these.
            compile_fn: zero-arg callable producing the compiled design,
                invoked lazily on the first full-simulation fallback.
            executor: default Func Sim executor for fallback runs.
            batch_size: configurations per kernel call of
                :meth:`evaluate` (1: the scalar path only).
        """
        #: most recent captured run; replaced on every successful fallback
        self.reference = reference
        self.base_depths = dict(base_depths)
        self._compile_fn = compile_fn
        self._compiled = None
        self.executor = executor
        self.batch_size = batch_size

    @classmethod
    def for_session(cls, session, executor: str | None = None, *,
                    capture: bool = True, batch_size: int | None = None):
        """The policy over ``session``'s design: replays
        ``session.reference(executor)``, overlays
        ``session.declared(executor)``, compiles through the session.
        ``capture=False`` starts without a reference (a batch with
        nothing to serve from one does not pay for a capture);
        ``batch_size`` is refused (:func:`resolve_batch_size`) before
        anything is captured."""
        batch_size = resolve_batch_size(batch_size)
        if executor is None:
            executor = session.executor
        return cls(session.reference(executor) if capture else None,
                   session.declared(executor)[1], lambda: session.compiled,
                   executor, batch_size)

    def worker_spec(self, session, jobs: int) -> tuple | None:
        """``(factory, args)`` rebuilding this policy in each of
        ``jobs`` pool workers (:func:`repro.exec.worker.init_worker`),
        or ``None`` when the run stays in-process: one job, or an
        ad-hoc design that cannot cross the process boundary.

        The reference ships as ``("stored", digest, cache_dir)`` when
        its artifact sits in the session's on-disk store (every worker
        loads it from disk), else as ``("artifact", trace)``: the
        artifact itself, functional outputs included, its static-edge
        columns built before pickling so no worker rebuilds them."""
        from ..api.design_ref import shardable

        if jobs <= 1 or not shardable(session.design_ref):
            return None
        shipped = None
        if self.reference is not None:
            store = session.trace_store
            digest = (session.trace_digest(self.executor)
                      if store is not None else None)
            if digest is not None and store.contains(digest):
                shipped = ("stored", digest, store.root)
            else:
                self.reference.trace.ensure_static()
                shipped = ("artifact", self.reference.trace)
        return type(self).in_worker, (
            session.design_ref, self.base_depths, self.executor,
            self.batch_size, shipped)

    @classmethod
    def in_worker(cls, design_ref, base_depths, executor, batch_size,
                  shipped):
        """Pool-worker side of :meth:`worker_spec`: the design compiles
        lazily, only if a configuration needs a full run; a store entry
        that vanished or went corrupt degrades to no reference (with
        the store's warning), and full runs re-capture."""
        from ..api.design_ref import compile_from_ref

        reference = None
        if shipped is not None:
            if shipped[0] == "stored":
                from ..trace.store import TraceStore

                artifact = TraceStore(shipped[2]).get(shipped[1])
            else:
                artifact = shipped[1]
            if artifact is not None:
                reference = artifact.to_result()
        return cls(reference, base_depths,
                   functools.partial(compile_from_ref, design_ref),
                   executor, batch_size)

    @property
    def compiled(self):
        """The compiled design, built on first use (fallbacks only)."""
        if self._compiled is None:
            self._compiled = self._compile_fn()
        return self._compiled

    def evaluate(self, configs, executors=None):
        """The policy over a run of configurations: one
        :class:`ReplayOutcome` per config, in order, ``batch_size`` of
        them per kernel call.  ``executors`` optionally names a
        fallback executor per config.

        Rows of a slice whose recorded queries re-validate are served
        from the reference as it stood at the start of the slice;
        declined rows re-run in order through the scalar path
        (identical values, re-capturing as they go).  A slice of one,
        or a reference the kernel cannot serve, is the scalar path
        throughout.

        Lazy — a slice's kernel call waits until the previous slice is
        consumed, and a caller that adapts each outcome as it arrives
        never holds more than one superseded full run alive."""
        configs = list(configs)
        if executors is None:
            executors = [None] * len(configs)
        size = self.batch_size
        for lo in range(0, len(configs), size):
            chunk = configs[lo:lo + size]
            reference = self.reference
            rows, mode = [None] * len(chunk), MODE_SCALAR
            if (len(chunk) > 1 and reference is not None
                    and batch_supported(reference.trace)):
                rows = resimulate_batch(
                    reference.trace,
                    [dict(self.base_depths, **c) for c in chunk])
                mode = MODE_SCALAR_FALLBACK
            for config, executor, inc in zip(chunk, executors[lo:lo + size],
                                             rows):
                if inc is None:
                    yield self._replay(config, executor, mode)
                else:
                    yield _replayed(inc.depths, inc, inc.seconds,
                                    MODE_VECTORIZED, reference)

    def _replay(self, config: dict, executor: str | None,
                mode: str) -> ReplayOutcome:
        """One configuration: scalar replay, full run on divergence."""
        depths = dict(self.base_depths)
        depths.update(config)
        start = _time.perf_counter()
        reference = self.reference
        if reference is None:
            detail = "reference unavailable"
        else:
            inc, detail = replay_one(reference, depths)
            if inc is not None:
                return _replayed(depths, inc, _time.perf_counter() - start,
                                 mode, reference)
        try:
            fresh = run_engine(
                "omnisim", self.compiled, depths=depths,
                executor=executor if executor is not None
                else self.executor)
        except DeadlockError as exc:
            return ReplayOutcome(
                SweepPoint(depths, None, self._storage_bits(depths),
                           SOURCE_DEADLOCK, _time.perf_counter() - start,
                           str(exc), MODE_FULL),
                error=exc)
        # Re-capture: the divergent run's graph serves the neighbourhood.
        self.reference = fresh
        return ReplayOutcome(
            SweepPoint(depths, fresh.cycles, fresh.trace.buffer_bits(depths),
                       SOURCE_FULL, _time.perf_counter() - start, detail,
                       MODE_FULL),
            run=fresh)

    def _storage_bits(self, depths: dict) -> int:
        """FIFO storage of ``depths`` where no run produced it (a
        deadlock, a quarantined configuration).  Element widths are the
        design's: read off the reference's artifact, or — nothing to
        replay at all — off the compiled stream declarations."""
        if self.reference is not None:
            return self.reference.trace.buffer_bits(depths)
        streams = self.compiled.design.streams
        return sum(
            depth * (getattr(streams[name].element, "width",
                             DEFAULT_FIFO_WIDTH)
                     if name in streams else DEFAULT_FIFO_WIDTH)
            for name, depth in depths.items())
