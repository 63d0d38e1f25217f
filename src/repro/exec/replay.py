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
   configuration (:func:`replay_one`) or a slice at a time through the
   NumPy batch kernel (:func:`kernel_rows`).
3. **Fall back on divergence**: a flipped constraint, or a graph made
   cyclic by the new depths, invalidates the recorded execution there —
   run a full OmniSim simulation at those depths and **re-capture** it
   as the reference, so the neighbourhood returns to the fast path.
4. **A true deadlock is an outcome**, not an exception.

:class:`Replayer` carries the mutable reference through a stream of
configurations; callers adapt its :class:`ReplayOutcome` to their own
result shape (:class:`repro.dse.SweepPoint`, a served
:class:`~repro.sim.result.SimulationResult`).  It is built in two
places only: :meth:`Replayer.for_session` asks the
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


@dataclass(slots=True)
class ReplayOutcome:
    """What the policy found at one depth configuration."""

    #: full resolved depth map (every FIFO, not just the overridden ones)
    depths: dict
    source: str
    mode: str
    #: total simulated cycles; ``None`` when the configuration deadlocks
    cycles: int | None
    seconds: float
    #: why the incremental path was abandoned, or the deadlock diagnosis
    detail: str | None = None
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


def resolve_batch_size(batch_size: int | None) -> int:
    """Rows per kernel call of a sweep: ``None`` means
    :data:`~repro.trace.vectorized.DEFAULT_BATCH_SIZE`, below 1 is a
    :class:`~repro.errors.RequestError`."""
    if batch_size is None:
        return DEFAULT_BATCH_SIZE
    if batch_size < 1:
        raise RequestError(f"batch_size must be >= 1, got {batch_size}")
    return batch_size


def kernel_rows(reference, depth_maps: list,
                batch_size: int | None = None) -> list | None:
    """Batched incremental replay of many depth maps against one
    reference, ``batch_size`` rows per kernel call (default: all at
    once).  Returns one ``IncrementalResult | None`` per map (``None``:
    the row needs the scalar path or a full run), or ``None`` when the
    kernel cannot serve this reference at all (no NumPy, no all-depth
    replay order)."""
    trace = reference.trace
    if not batch_supported(trace):
        return None
    size = batch_size or len(depth_maps) or 1
    rows: list = []
    for lo in range(0, len(depth_maps), size):
        rows.extend(resimulate_batch(trace, depth_maps[lo:lo + size]))
    return rows


class Replayer:
    """The policy against a mutable reference run."""

    def __init__(self, reference, base_depths: dict, compile_fn,
                 executor: str | None = None):
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
        """
        #: most recent captured run; replaced on every successful fallback
        self.reference = reference
        self.base_depths = dict(base_depths)
        self._compile_fn = compile_fn
        self._compiled = None
        self.executor = executor

    @classmethod
    def for_session(cls, session, executor: str | None = None, *,
                    capture: bool = True):
        """The policy over ``session``'s design: replays
        ``session.reference(executor)``, overlays
        ``session.declared(executor)``, compiles through the session.
        ``capture=False`` starts without a reference (a batch with
        nothing to serve from one does not pay for a capture)."""
        if executor is None:
            executor = session.executor
        return cls(session.reference(executor) if capture else None,
                   session.declared(executor)[1], lambda: session.compiled,
                   executor)

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
            session.design_ref, self.base_depths, self.executor, shipped)

    @classmethod
    def in_worker(cls, design_ref, base_depths, executor, shipped):
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
                   executor)

    @property
    def compiled(self):
        """The compiled design, built on first use (fallbacks only)."""
        if self._compiled is None:
            self._compiled = self._compile_fn()
        return self._compiled

    def replay(self, config: dict, executor: str | None = None,
               _mode: str = MODE_SCALAR) -> ReplayOutcome:
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
                return ReplayOutcome(
                    depths, SOURCE_INCREMENTAL, _mode, inc.cycles,
                    _time.perf_counter() - start, incremental=inc,
                    run=reference)
        try:
            fresh = run_engine(
                "omnisim", self.compiled, depths=depths,
                executor=executor if executor is not None
                else self.executor)
        except DeadlockError as exc:
            return ReplayOutcome(
                depths, SOURCE_DEADLOCK, MODE_FULL, None,
                _time.perf_counter() - start, detail=str(exc), error=exc)
        # Re-capture: the divergent run's graph serves the neighbourhood.
        self.reference = fresh
        return ReplayOutcome(
            depths, SOURCE_FULL, MODE_FULL, fresh.cycles,
            _time.perf_counter() - start, detail=detail, run=fresh)

    def replay_batch(self, configs, executors=None):
        """One slice of configurations through a single kernel call:
        rows whose recorded queries re-validate are served from the
        reference as it stood at the start of the slice; declined rows
        re-run in order through :meth:`replay` (identical values,
        re-capturing as they go).  ``executors`` optionally names a
        fallback executor per config.  Without a usable kernel every
        config takes :meth:`replay`.

        Yields one outcome per config, in order — lazily, so a caller
        that adapts each outcome as it arrives never holds more than
        one superseded full run alive."""
        configs = list(configs)
        if executors is None:
            executors = [None] * len(configs)
        reference = self.reference
        rows = [None] * len(configs)
        mode = MODE_SCALAR
        if len(configs) > 1 and reference is not None:
            kernel = kernel_rows(
                reference, [dict(self.base_depths, **c) for c in configs])
            if kernel is not None:
                rows, mode = kernel, MODE_SCALAR_FALLBACK
        for config, executor, inc in zip(configs, executors, rows):
            if inc is None:
                yield self.replay(config, executor, mode)
            else:
                yield ReplayOutcome(
                    inc.depths, SOURCE_INCREMENTAL, MODE_VECTORIZED,
                    inc.cycles, inc.seconds, incremental=inc,
                    run=reference)
