"""The replay policy: one implementation of paper section 7.2 at sweep scale.

Every depth-override evaluation (``repro.dse``, ``Session.run_many``,
``/v1/run``, ``repro run --depth``) overlays the configuration on the
design's *declared* depths and replays a captured run — retimes its
recorded graph and re-validates its recorded queries (:func:`replay_one`,
or many rows per NumPy kernel call) — or runs a full OmniSim simulation
where no capture holds; a true deadlock is an outcome.

Which capture serves configuration *k* reads only the request: the
first of (1) the **declared capture** (``Session.reference()``,
read-only for a :class:`Replayer`'s whole life), (2) a capture of *k-1*
in the request's own order — the **neighbour**: the previous
replay-eligible configuration, for a search round's first the previous
round's last, none after a *k-1* that deadlocked or failed — and (3) a
full run.  Captures that accept a configuration record one functional
execution (a *class*) and serve it identically; a neighbour is never
of the declared class, so (1) and (2) never both accept.  Where the
kernel can serve (1) (NumPy, an all-depth replay order) it screens (1)
for every slice of ``DEFAULT_BATCH_SIZE`` requests (a one-row slice: a
scalar replay of (1), which accepts exactly what the kernel does,
without a kernel call); a declined row gets a scalar replay of (2),
then one of (1) for its decline reason, then a full run.  ``mode``
is ``vectorized`` (the kernel accepted), ``scalar-fallback`` (the
kernel ran, a scalar replay served), ``scalar`` (no kernel ran) or
``full``; a full point's ``detail`` is (1)'s decline reason
(``reference unavailable`` without one).  Each request carries its predecessor (:func:`chain`).  An
evaluator that did not just evaluate it (a pool worker, a resume, a
retry) holds no capture of it, and needs none: where (1) declines *k*,
*k* runs full, and if that run accepts *k-1*'s depths the two share a
class (a class is symmetric), so *k-1*'s capture serves *k* — labelled
so.  Nothing runs at *k-1* on *k*'s behalf; what an evaluator holds is
a cache that cannot change an answer.

:class:`Replayer` alone knows what a batch is and builds each
:class:`SweepPoint` (a :class:`ReplayOutcome` adds the handles
``run_many`` serves from); :meth:`Replayer.for_session` asks the
:class:`~repro.api.Session` what to replay against, and
:meth:`Replayer.in_worker` rebuilds the policy in a pool worker.
"""

from __future__ import annotations

import functools
import time as _time
from dataclasses import dataclass

from ..errors import ConstraintViolation, DeadlockError, SimulationError
from ..sim.registry import run_engine
from ..sim.result import IncrementalResult, SimulationResult
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
        """The one point document (``repro dse --json``, journals,
        ``/v1/sweep``): ``failure`` repeats ``detail`` where there are
        no ``cycles``, as wire schema v1 always carried it."""
        return {
            "depths": dict(self.depths),
            "cycles": self.cycles,
            "buffer_bits": self.buffer_bits,
            "source": self.source,
            "seconds": round(self.seconds, 6),
            "detail": self.detail,
            "mode": self.mode,
            "failure": None if self.ok else self.detail,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "SweepPoint":
        """A journalled :meth:`to_json` (``failure`` is derived)."""
        return cls(**{k: v for k, v in doc.items() if k != "failure"})


@dataclass(slots=True)
class ReplayOutcome:
    """What the policy found at one depth configuration: the point,
    and the transient handles behind it — never kept with a collected
    point (they pin whole runs in memory and in pool pickles)."""

    point: SweepPoint
    #: the validated replay, on :data:`SOURCE_INCREMENTAL` outcomes
    incremental: IncrementalResult | None = None
    #: the run behind the number: the capture that was replayed
    #: (incremental) or the fresh run (full)
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


def incremental_rows(reference, depth_maps: list) -> list:
    """Replays of one fixed capture
    (:meth:`repro.api.Session.resimulate_many`: no full run, no
    neighbour): one ``IncrementalResult | None`` per depth map,
    ``DEFAULT_BATCH_SIZE`` rows per kernel call — one scalar replay each
    where the kernel cannot serve this reference (no NumPy, no all-depth
    replay order) and for a one-row slice, as in
    :meth:`Replayer.evaluate`; ``None`` marks a row only a full run can
    decide."""
    trace = reference.trace
    size = DEFAULT_BATCH_SIZE if batch_supported(trace) else 1
    rows = []
    for lo in range(0, len(depth_maps), size):
        chunk = depth_maps[lo:lo + size]
        rows += (resimulate_batch(trace, chunk) if len(chunk) > 1
                 else [replay_one(reference, dict(chunk[0]))[0]])
    return rows


def chain(configs, after=None) -> list:
    """The ``(config, after)`` requests :meth:`Replayer.evaluate`
    takes: each configuration with the one before it in the request's
    own order — ``after`` (``None``, or the last configuration of an
    earlier round) for the first."""
    configs = list(configs)
    return list(zip(configs, [after] + configs[:-1]))


class Replayer:
    """The policy against the declared capture (see the module
    docstring for which capture serves what)."""

    def __init__(self, reference, base_depths: dict, compile_fn,
                 executor: str | None = None):
        """Args:
            reference: the declared capture, an OmniSim run at
                ``base_depths`` (its ``trace`` is what replays), or
                ``None`` — neighbours and full runs then decide.
            base_depths: the design's declared depths; each evaluated
                config overlays these.
            compile_fn: zero-arg callable producing the compiled design,
                invoked lazily on the first full run.
            executor: the Func Sim executor of full runs.
        """
        self.reference = reference
        self.base_depths = dict(base_depths)
        self._compile = functools.cache(compile_fn)
        self.executor = executor
        #: the cache behind neighbours: the depths last evaluated and
        #: the ``run`` of their class (``None``: the declared class or
        #: a deadlock)
        self._held = {"depths": None, "run": None}

    @classmethod
    def for_session(cls, session, *, capture: bool = True):
        """The policy over ``session``'s design: replays
        ``session.reference()``, overlays ``session.declared()``,
        compiles through the session and runs on its executor.
        ``capture=False`` starts without a reference (a batch with
        nothing to serve from one does not pay for a capture)."""
        return cls(session.reference() if capture else None,
                   session.declared()[1], lambda: session.compiled,
                   session.executor)

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
            digest = session.trace_digest() if store is not None else None
            if digest is not None and store.contains(digest):
                shipped = ("stored", digest, store.root)
            else:
                self.reference.trace.ensure_static()
                shipped = ("artifact", self.reference.trace)
        return type(self).in_worker, (
            session.design_ref, self.base_depths, self.executor, shipped)

    @classmethod
    def in_worker(cls, design_ref, base_depths, executor, shipped):
        """Pool-worker side of :meth:`worker_spec`: the design compiles
        lazily, only if a configuration needs a full run; a store entry
        that vanished or went corrupt degrades to no reference (with
        the store's warning), and full runs decide."""
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
                   executor)

    @property
    def compiled(self):
        """The compiled design, built on first use (full runs only)."""
        return self._compile()

    def evaluate(self, requests):
        """One :class:`ReplayOutcome` per ``(config, after)`` request
        (:func:`chain`), in order, ``DEFAULT_BATCH_SIZE`` per kernel
        call.  Lazy: a slice's kernel call waits until the previous
        slice is consumed, so a caller can journal each outcome as it
        arrives."""
        requests = list(requests)
        reference, size = self.reference, DEFAULT_BATCH_SIZE
        kernel = reference is not None and batch_supported(reference.trace)
        mode = MODE_SCALAR_FALLBACK if kernel else MODE_SCALAR
        for lo in range(0, len(requests), size):
            chunk = requests[lo:lo + size]
            depth_maps = [dict(self.base_depths, **config)
                          for config, _after in chunk]
            # a one-row slice: a scalar replay labels it as a call would
            one_row = kernel and len(chunk) == 1
            rows = (resimulate_batch(reference.trace, depth_maps)
                    if kernel and not one_row else [None] * len(chunk))
            for (_config, after), depths, inc in zip(chunk, depth_maps,
                                                     rows):
                if inc is None:
                    outcome = self.replay(depths, after, mode, one_row)
                else:
                    outcome = _replayed(inc.depths, inc, inc.seconds,
                                        MODE_VECTORIZED, reference)
                run = None if outcome.run is reference else outcome.run
                self._held.update(depths=depths, run=run)
                yield outcome

    def replay(self, depths: dict, after: dict | None = None,
               mode: str = MODE_SCALAR,
               one_row: bool = False) -> ReplayOutcome:
        """One configuration (a full depth map) no kernel call served —
        called alone, the door of ``repro run --depth`` and ``/v1/run``,
        which never imports NumPy: scalar replays of the neighbour this
        evaluator holds for the predecessor ``after``, then of the
        declared capture (a neighbour is never of the declared class, so
        the order changes no answer), then a full run.  ``one_row``: a
        one-row slice, ``vectorized`` where the declared capture serves
        it — the kernel accepts exactly the rows a scalar replay
        accepts, and a one-row call costs seven scalar replays."""
        start = _time.perf_counter()
        before = None if after is None else dict(self.base_depths, **after)
        held = before is not None and self._held["depths"] == before
        detail = "reference unavailable"
        for capture in (self._held["run"] if held else None, self.reference):
            if capture is None:
                continue
            inc, why = replay_one(capture, depths)
            if inc is not None:
                if one_row and capture is self.reference:
                    mode = MODE_VECTORIZED
                return _replayed(depths, inc, _time.perf_counter() - start,
                                 mode, capture)
            if capture is self.reference:
                detail = why
        try:
            fresh = run_engine("omnisim", self.compiled, depths=depths,
                               executor=self.executor)
        except DeadlockError as exc:
            return ReplayOutcome(
                SweepPoint(depths, None, self._storage_bits(depths),
                           SOURCE_DEADLOCK, _time.perf_counter() - start,
                           str(exc), MODE_FULL),
                error=exc)
        if (before is not None and not held
                and replay_one(fresh, before)[0] is not None):
            # k-1 is of k's class (a class is symmetric): its capture,
            # which this evaluator does not hold, serves k
            inc, _ = replay_one(fresh, depths)
            return _replayed(depths, inc, _time.perf_counter() - start,
                             mode, fresh)
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
