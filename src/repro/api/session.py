"""The Session facade: one compiled artifact, many cheap runs.

A :class:`Session` owns the cached :class:`~repro.compile.CompiledDesign`
and the captured baseline simulation (its trace artifact: graph + query
constraints) for one design, and exposes every operation the CLI, the
benchmark harness and the depth-space explorer previously wired up by
hand:

    from repro.api import Session

    with Session.open("fig4_ex5") as session:
        result = session.run()                      # OmniSim, RTL cycles
        oracle = session.run(engine="cosim")        # cycle-stepped check
        fast = session.resimulate({"fifo2": 8})     # incremental, µs
        batch = session.run_many(
            [{"depths": {"fifo2": d}} for d in (2, 4, 8, 16)], jobs=2)

Lifecycle and caching rules (DESIGN.md section 13):

* the design is resolved **eagerly** at ``open`` (unknown names fail
  fast), compiled **lazily** on first use, and the compiled artifact is
  cached for the life of the session;
* the Func Sim executor is chosen at ``open``; only a one-shot
  ``run(executor=...)`` picks another;
* ``baseline()`` caches one OmniSim run captured with that executor —
  the reference that ``trace``/``resimulate`` replay against;
  ``reference()`` is the same run, or ``None`` when the design deadlocks
  at its *declared* depths (an override may not: a full run decides),
  and ``declared()`` the depth map overrides overlay — what every
  depth-override door asks, through
  :meth:`repro.exec.replay.Replayer.for_session`;
* with a trace cache enabled (``trace_cache=`` / ``REPRO_TRACE_CACHE``),
  ``baseline()`` first consults the content-addressed on-disk store
  (:mod:`repro.trace.store`): a hit skips compilation *and* capture
  entirely (the baseline is rebuilt from the stored artifact); fresh
  captures are written back for the next process;
* a session assumes its design is immutable; re-open (or
  ``baseline(refresh=True)``) after mutating a design object in place;
* sessions are **thread-safe for caching**: concurrent first-touch
  calls to :attr:`compiled` / :meth:`baseline` from many threads (the
  simulation service dispatches requests to a thread pool) perform
  exactly one compile and one capture — an internal re-entrant lock
  serializes cache fills, and every later call is a lock-free-in-effect
  cached read.
"""

from __future__ import annotations

import os
import threading

from ..errors import DeadlockError
from ..sim.context import resolve_executor
from ..sim.registry import run_engine, validate_depth_names
from ..trace import ENV_VAR
from .design_ref import resolve_design


class Session:
    """Programmatic facade over one design's compile/simulate lifecycle."""

    def __init__(self, design, *, executor: str | None = None,
                 trace_cache=None, **params):
        """See :meth:`open` (the constructor and ``open`` are
        equivalent; ``open`` reads better at call sites)."""
        self.design_ref, self._compile_fn, self.spec = resolve_design(
            design, params
        )
        #: builder parameter overrides the design was opened with
        self.params = dict(params)
        #: the Func Sim executor of every capture, replay and run on
        #: this session's behalf, resolved (None -> "compiled"): one
        #: capture has one name in store keys and journal identities;
        #: an unknown name fails at open
        self.executor = resolve_executor(executor)
        #: the on-disk trace store (its module loads only when something
        #: configures one), or None when caching is disabled
        self.trace_store = None
        if (ENV_VAR in os.environ if trace_cache is None
                else trace_cache is not False):
            from ..trace.store import resolve_store

            self.trace_store = resolve_store(trace_cache)
        self._compiled = None
        #: the captured baseline OmniSim run, once there is one
        self._baseline = None
        # Serializes compile/capture cache fills so concurrent threads
        # (service worker pool) never duplicate the expensive work;
        # re-entrant because baseline() compiles under the same lock.
        self._lock = threading.RLock()

    @classmethod
    def open(cls, design, *, executor: str | None = None,
             trace_cache=None, **params) -> "Session":
        """Open a session on a design.

        Args:
            design: registry name or group alias (``"fig4_ex5"``,
                ``"typea_large"``), DSL spec path (``"corpus/a.yaml"``),
                :class:`~repro.designs.registry.DesignSpec`,
                :class:`~repro.hls.Design`, or an already-compiled
                :class:`~repro.compile.CompiledDesign`.
            executor: the Func Sim executor (``"compiled"``, the
                default, or ``"interp"``) the session captures its
                baseline with and runs full re-simulations on; only
                :meth:`run` takes a per-call override.
            trace_cache: on-disk trace-artifact cache setting — a
                directory path, ``True`` (default directory,
                ``~/.cache/repro-trace``), ``False`` (disabled even if
                the env var is set), or ``None`` (consult
                ``REPRO_TRACE_CACHE``; disabled when unset).
            **params: builder parameter overrides, e.g. ``n=256``.
        """
        return cls(design, executor=executor, trace_cache=trace_cache,
                   **params)

    # -- cached artifacts ----------------------------------------------

    @property
    def compiled(self):
        """The compiled design (front-end + scheduling), built once —
        even under concurrent first-touch from many threads."""
        if self._compiled is None:
            with self._lock:
                if self._compiled is None:
                    self._compiled = self._compile_fn()
        return self._compiled

    @property
    def name(self) -> str:
        """The design's name (without forcing compilation when a spec
        is known)."""
        if self.spec is not None:
            return self.spec.name
        return self.compiled.name

    def trace_digest(self) -> str | None:
        """The content-address of this session's baseline capture (see
        :func:`repro.trace.artifact_digest`), or ``None`` when the
        design is not fingerprintable (ad-hoc compiled objects)."""
        from ..trace.store import artifact_digest

        return artifact_digest(self.design_ref, self.executor)

    def baseline(self, *, refresh: bool = False):
        """The captured OmniSim reference run (``.trace`` is the
        replay handle).

        Cached; ``refresh=True`` re-captures (the invalidation knob for
        mutated designs or fresh timing numbers) and rewrites the
        on-disk cache entry.  With a trace store enabled, a warm hit
        loads the columnar artifact instead of compiling + capturing;
        the result's ``phase_seconds["capture"]`` reports ``"warm"`` or
        ``"cold"``.
        """
        if refresh or self._baseline is None:
            with self._lock:
                if refresh or self._baseline is None:
                    self._baseline = self._capture_baseline(refresh)
        return self._baseline

    def has_baseline(self) -> bool:
        """Whether the baseline is already cached in-memory (no
        compile, capture or disk I/O is triggered) — what the
        simulation service consults to label a request ``hot`` before
        dispatching a capture."""
        return self._baseline is not None

    def _capture_baseline(self, refresh: bool):
        """The baseline cache fill (store lookup, else capture +
        write-back); runs under ``_lock``."""
        result = None
        store = self.trace_store
        digest = self.trace_digest() if store is not None else None
        if not refresh and digest is not None:
            artifact = store.get(digest)
            if artifact is not None:
                result = artifact.to_result()
                result.phase_seconds["capture"] = "warm"
        if result is None:
            result = run_engine("omnisim", self.compiled,
                                executor=self.executor)
            result.phase_seconds["capture"] = "cold"
            if digest is not None:
                store.put(digest, result.trace)
        return result

    def reference(self):
        """What depth overrides replay against: :meth:`baseline`, or
        ``None`` when the design deadlocks at its declared depths —
        the override decides then, by a full run (nothing is cached
        for such a design: each call pays the short capture again)."""
        try:
            return self.baseline()
        except DeadlockError:
            return None

    def declared(self) -> tuple:
        """``(design name, declared depth map)`` — what a depth
        override names and overlays.  While the session has not
        compiled, both are read off the baseline artifact when it is
        cached here or sits in the trace store, so warm paths stay
        compile-free (a corrupt store entry re-captures, which
        compiles)."""
        if self._compiled is None:
            store = self.trace_store
            if self._baseline is not None or (
                    store is not None
                    and store.contains(self.trace_digest() or "")):
                trace = self.baseline().trace
                if self._compiled is None:  # else: the entry was corrupt
                    return trace.design_name, dict(trace.depths)
        return self.compiled.name, self.compiled.stream_depths()

    @property
    def trace(self):
        """The baseline's :class:`~repro.trace.TraceArtifact` — the
        replay handle (recorded by the capture run, or loaded from the
        store on warm-cache baselines)."""
        return self.baseline().trace

    # -- execution ------------------------------------------------------

    def run(self, engine: str = "omnisim", *, executor: str | None = None,
            depths: dict | None = None, **kwargs):
        """Simulate once and return the
        :class:`~repro.sim.result.SimulationResult`.

        ``engine`` is a registry name (``repro.sim.engine_names()``);
        ``depths`` are per-FIFO overrides, validated here — unknown FIFO
        names raise :class:`~repro.errors.UnknownFifoError`, and depths
        passed to an engine with ``supports_depths=False`` (csim) are
        dropped with an explicit warning.  ``executor`` overrides the
        session's for this one run; extra ``kwargs`` forward to the
        engine constructor (``step_limit=`` etc.).
        """
        return run_engine(engine, self.compiled, depths=depths,
                          executor=executor or self.executor, **kwargs)

    def resimulate(self, depths: dict):
        """Incrementally re-simulate the cached baseline under new
        depths (microseconds; no Func Sim re-execution).

        Returns an :class:`~repro.sim.result.IncrementalResult`;
        raises :class:`~repro.errors.ConstraintViolation` when a
        recorded query flips under the new depths, or a plain
        :class:`~repro.errors.SimulationError` when they deadlock the
        recording (fall back to ``run(depths=...)``, as :meth:`sweep`
        does).  Depth names are checked against :meth:`declared`, so a
        warm-cache replay stays compile-free.
        """
        name, declared = self.declared()
        return self.baseline().trace.resimulate(
            validate_depth_names(depths, declared, name))

    def resimulate_many(self, configs, *,
                        batch_size: int | None = None) -> list:
        """Batched :meth:`resimulate`: evaluate many depth-override
        dicts against the cached baseline in one vectorized matrix
        sweep.

        Returns one entry per config, **in config order**: an
        :class:`~repro.sim.result.IncrementalResult` (bit-for-bit
        what scalar :meth:`resimulate` would return) when the recorded
        constraints re-validate under that row's depths, or ``None``
        when the row needs a full run (constraint flip — the scalar path
        would raise :class:`~repro.errors.ConstraintViolation` — or the
        row falls outside the kernel's safe range).  Unlike
        :meth:`run_many` there is no full-simulation fallback: callers
        that want automatic fallback use :meth:`sweep` or
        :meth:`run_many`.

        Without NumPy (or on artifacts lacking the all-depth replay
        order) every row is evaluated by the scalar path instead —
        same values, just not batched.
        """
        from ..exec import replay

        return replay.incremental_rows(
            self.baseline(), list(configs),
            replay.resolve_batch_size(batch_size))

    def run_many(self, configs, *, jobs: int = 1,
                 timeout: float | None = None, max_retries: int = 3,
                 checkpoint=None, resume: bool = False, faults=None,
                 batch_size: int | None = None) -> list:
        """Run a batch of configurations, optionally over a process pool.

        Each config is a dict with optional keys ``engine`` (default
        ``"omnisim"``) and ``depths``, plus any engine keyword
        (``step_limit``, ``executor``, ...).  OmniSim configs that
        differ only in depths are served by constraint-checked
        incremental replay of the cached baseline (full-run fallback);
        a config with engine keywords is a plain run, on the session's
        executor unless it names its own.  With ``jobs > 1`` the
        batch is sharded over worker processes that receive the design
        reference and baseline once and compile locally — the compiled
        artifact is the unit of reuse, not the individual run.  Results
        come back in config order; simulation-level failures (deadlock,
        unsupported design) are returned as results with ``.failure``
        set instead of aborting the batch.

        Execution is supervised (:mod:`repro.exec`): ``timeout`` bounds
        each chunk's wall-clock, crashed workers are respawned and their
        configs retried up to ``max_retries`` times before quarantine,
        ``checkpoint``/``resume`` journal completed configs across
        interruptions, and ``faults`` injects deterministic failures
        (default: ``REPRO_FAULTS``).  The returned list's
        ``supervision`` attribute carries the provenance block.
        Replay-eligible configs go through the NumPy batch-retiming
        kernel in ``batch_size``-row slices (``batch_size=1``: the
        scalar path only), with per-row scalar fallback — identical
        values, each result's ``phase_seconds["mode"]`` records the
        path (``"vectorized"`` / ``"scalar"`` / ``"scalar-fallback"`` /
        ``"full"``).
        """
        from .batch import run_many

        return run_many(self, configs, jobs=jobs, timeout=timeout,
                        max_retries=max_retries, checkpoint=checkpoint,
                        resume=resume, faults=faults, batch_size=batch_size)

    def sweep(self, space, *, samples: int | None = None, seed: int = 0,
              jobs: int = 1,
              timeout: float | None = None, max_retries: int = 3,
              checkpoint=None, resume: bool = False, faults=None,
              batch_size: int | None = None,
              strategy: str | None = None, max_evals: int | None = None):
        """Depth-space exploration over this session's design.

        ``space`` is a :class:`~repro.dse.DepthSpace` or a list of axis
        specs (``["fifo=1:16"]``).  Delegates to
        :func:`repro.dse.explore`, reusing this session's compiled
        design and cached baseline; returns a
        :class:`~repro.dse.SweepResult`.  The resilience knobs
        (``timeout``, ``max_retries``, ``checkpoint``/``resume``,
        ``faults``) pass through to the supervised executor, and
        ``batch_size`` bounds the rows per call of the batched retiming
        kernel (1: scalar path only) — see :func:`repro.dse.explore`.
        ``strategy`` selects how the space is covered (``"exhaustive"``
        default, ``"refine"``, ``"random"``) and ``max_evals`` bounds
        the total number of evaluated configurations — the adaptive
        seam for spaces too large to enumerate.
        """
        from ..dse import explore

        return explore(self, space, samples=samples, seed=seed, jobs=jobs,
                       timeout=timeout, max_retries=max_retries,
                       checkpoint=checkpoint, resume=resume,
                       faults=faults, batch_size=batch_size,
                       strategy=strategy, max_evals=max_evals)

    # -- analysis -------------------------------------------------------

    def classify(self):
        """Type A/B/C taxonomy analysis of the compiled design."""
        from ..analysis import classify

        return classify(self.compiled)

    def report(self) -> list:
        """Static C-synthesis report: one dict per module (name, block
        count, FSM states, static latency or ``"?"`` when dynamic)."""
        return [
            {
                "module": module.name,
                "blocks": len(module.function.blocks),
                "fsm_states": module.schedule.total_static_states,
                "static_latency": str(module.static_latency),
            }
            for module in self.compiled.modules
        ]

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        """Drop cached artifacts (the session stays usable; artifacts
        rebuild on next use)."""
        with self._lock:
            self._compiled = None
            self._baseline = None

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "compiled" if self._compiled is not None else "lazy"
        return (f"Session({self.name!r}, params={self.params}, "
                f"{state}, executor={self.executor!r})")
