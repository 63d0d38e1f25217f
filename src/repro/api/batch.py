"""Batched multi-run execution: ship the artifact once, run everywhere.

``Session.run_many`` evaluates a list of run configurations against one
design.  Two mechanisms make a batch cheaper than a sequential
``session.run()`` loop:

* **Incremental serving.**  OmniSim configurations that differ only in
  FIFO depths go through the replay policy ``repro.dse`` sweeps use
  (:mod:`repro.exec.replay`): retime the session's captured baseline and
  re-check its recorded query constraints — microseconds instead of a
  full Func+Perf re-simulation — with automatic fallback to a real run
  (and reference re-capture) when a constraint flips.  A config that
  passes constraint validation provably leaves the recorded execution —
  and hence every functional output — unchanged, so the baseline's
  scalars/buffers are the config's too.
  This is the LightningSimV2/GSIM argument (the compiled model, not the
  run, is the unit of reuse) applied to batch execution; it is why
  ``run_many`` beats a ``.run()`` loop even on one core.
* **Process-pool sharding.**  With ``jobs > 1`` the batch is split into
  contiguous chunks over worker processes.  Each worker receives the
  session's small picklable *design reference* and the captured baseline
  once through the pool initializer — shipped as the columnar trace
  artifact (CSR static-edge columns included, so no worker rebuilds
  them) plus the functional outputs served results inherit; the design
  is compiled in a worker only if one of its configurations actually
  needs a full run.

Failure semantics: a configuration that deadlocks or is unsupported by
its engine produces a :class:`~repro.sim.result.SimulationResult` with
``.failure`` set (and ``cycles`` at the deadlock point) instead of
aborting the whole batch — batch callers are sweeps and services, not
interactive debugging.

Results come back **in config order**.  Each result's
``phase_seconds["serving"]`` records which path produced it
(``"incremental"``, ``"full"``, or ``"quarantined"``).  The replay handle
(``result.trace``) and the engine's FIFO channel tables are stripped
from returned results: they dominate pickle size (~250 KB per typea
run) and batch callers want numbers, not replay state —
``session.baseline().trace`` is where a replay handle lives.

Execution is a :class:`repro.exec.JournaledRun`: worker crashes respawn
the pool and retry with backoff, hung chunks die at the ``timeout``
deadline, a config that keeps failing alone is quarantined as a result
with ``.failure`` set, and ``checkpoint=``/``resume=`` journal
completed configs so an interrupted batch re-runs only what is
missing.  The returned :class:`BatchResult` (a plain ``list`` of
results) carries the ``supervision`` provenance block.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json

from ..errors import DeadlockError, UnsupportedDesignError
from ..exec.replay import (
    MODE_FULL,
    SOURCE_FULL,
    Replayer,
    load_reference,
    resolve_batch_size,
    ship_reference,
)
from ..sim.registry import (
    get_engine,
    run_engine,
    validate_depth_names,
    validate_depths,
)
from ..sim.result import SimulationResult, SimulationStats
from .design_ref import compile_from_ref, shardable

#: config keys consumed by the batch layer itself; everything else in a
#: config dict forwards to the engine constructor
_CONFIG_KEYS = ("engine", "executor", "depths")


def normalize_config(config: dict, compiled) -> dict:
    """Validate one run configuration eagerly (before any pool spawns).

    Returns a normalized ``{"engine", "executor", "depths", "kwargs"}``
    dict.  Unknown engines raise
    :class:`~repro.errors.UnknownEngineError`; depth overrides are
    validated against the design exactly as ``Session.run`` would.
    """
    if not isinstance(config, dict):
        raise TypeError(
            f"run_many configs must be dicts, got {type(config).__name__}"
        )
    engine = config.get("engine", "omnisim")
    get_engine(engine)  # raises UnknownEngineError with the known list
    depths = validate_depths(compiled, config.get("depths"))
    kwargs = {k: v for k, v in config.items() if k not in _CONFIG_KEYS}
    return {
        "engine": engine,
        "executor": config.get("executor"),
        "depths": depths,
        "kwargs": kwargs,
    }


class _BatchRunner(Replayer):
    """Serves one shard of a batch: :class:`repro.exec.replay.Replayer`
    outcomes as :class:`SimulationResult`\\ s.

    Configs the policy can serve (OmniSim, no engine kwargs — executor
    choice doesn't gate eligibility: incremental replay re-runs no Func
    Sim code at all) go through it; everything else, and every config
    when ``incremental`` is off, is a plain full run on its own engine.
    Served results inherit the functional outputs of the run that was
    replayed: constraint validation proves the recorded execution —
    hence every value — is exactly what a fresh run at the served
    depths would produce (paper section 7.2).
    """

    def __init__(self, reference, base_depths: dict, compile_fn, *,
                 incremental: bool = True):
        super().__init__(reference, base_depths, compile_fn)
        self.incremental = incremental

    def _eligible(self, config: dict) -> bool:
        return (self.incremental and config["engine"] == "omnisim"
                and not config["kwargs"])

    def evaluate(self, config: dict) -> SimulationResult:
        """Run one normalized config; simulation-level failures fold
        into the result instead of raising."""
        if self._eligible(config):
            return self.result_of(self.replay(config["depths"],
                                              config["executor"]))
        return self._run(config)

    def evaluate_batch(self, configs: list) -> list:
        """Evaluate a slice of configs in order, the eligible ones
        through one call of the vectorized batch kernel (rows it
        declines take the scalar path, bit-for-bit identical)."""
        eligible = [c for c in configs if self._eligible(c)]
        served = self.replay_batch([c["depths"] for c in eligible],
                                   [c["executor"] for c in eligible])
        return [self.result_of(next(served)) if self._eligible(c)
                else self._run(c) for c in configs]

    def result_of(self, outcome) -> SimulationResult:
        """The served :class:`SimulationResult` for one replay outcome."""
        if outcome.error is not None:
            return self._failed("omnisim", outcome.error)
        if outcome.source == SOURCE_FULL:
            return self._full(outcome.run)
        inc = outcome.incremental
        # The replayed run's outputs (copies), at the retimed cycles.
        return dataclasses.replace(
            outcome.run.trace.to_result(),
            cycles=inc.cycles,
            module_end_times=dict(inc.module_end_times),
            execute_seconds=outcome.seconds,
            phase_seconds={"serving": "incremental",
                           "replay_seconds": inc.seconds,
                           "mode": outcome.mode},
            trace=None,
        )

    def _run(self, config: dict) -> SimulationResult:
        try:
            return self._full(run_engine(
                config["engine"], self.compiled,
                depths=config["depths"] or None,
                executor=config["executor"], **config["kwargs"]))
        except (DeadlockError, UnsupportedDesignError) as exc:
            return self._failed(config["engine"], exc)

    def _full(self, result: SimulationResult) -> SimulationResult:
        result.phase_seconds.update(serving="full", mode=MODE_FULL)
        # The run may be the reference the shard still replays against:
        # drop the heavy attachments from a copy.
        return dataclasses.replace(result, fifo_channels={}, trace=None)

    def _failed(self, engine: str, exc) -> SimulationResult:
        return SimulationResult(
            design_name=self.compiled.name,
            simulator=engine,
            cycles=exc.cycle if isinstance(exc, DeadlockError) else 0,
            failure=str(exc),
            phase_seconds={"serving": "full", "mode": MODE_FULL},
        )


def _worker_runner(design_ref, base_depths, shipped, incremental):
    """Pool-worker factory (:func:`repro.exec.worker.init_worker`)."""
    return _BatchRunner(
        load_reference(shipped), base_depths,
        functools.partial(compile_from_ref, design_ref),
        incremental=incremental)


def serve_depths(session, baseline, depths: dict,
                 executor: str | None = None) -> SimulationResult:
    """One OmniSim run of ``session``'s design at depth overrides,
    served from ``baseline`` (its captured run, or ``None``):
    incremental replay first, one full re-simulation on divergence —
    what ``repro run --depth`` and ``/v1/run`` answer with.  The
    result's ``phase_seconds["serving"]`` says which; a true deadlock
    at the requested depths raises :class:`~repro.errors.DeadlockError`.
    """
    name, declared = session.declared(baseline)
    runner = _BatchRunner(baseline, declared, lambda: session.compiled)
    outcome = runner.replay(
        validate_depth_names(depths, declared, name),
        executor if executor is not None else session.executor)
    if outcome.error is not None:
        raise outcome.error
    result = runner.result_of(outcome)
    if outcome.incremental is not None:
        # ``repro run`` prints the replayed capture's label.
        result.phase_seconds = dict(outcome.run.phase_seconds,
                                    **result.phase_seconds)
    return result


# ---------------------------------------------------------------------------
# checkpoint journaling: a stripped SimulationResult is JSON-shaped (the
# heavy replay state never journals), so completed configs round-trip
# through the append-only journal losslessly.

_STRIPPED_FIELDS = ("fifo_channels", "trace")


def _result_to_json(result: SimulationResult) -> dict:
    doc = {
        f.name: getattr(result, f.name)
        for f in dataclasses.fields(result)
        if f.name not in _STRIPPED_FIELDS and f.name != "stats"
    }
    doc["stats"] = dataclasses.asdict(result.stats)
    return doc


def _result_from_json(doc: dict) -> SimulationResult:
    doc = dict(doc)
    stats = SimulationStats(**doc.pop("stats", {}))
    return SimulationResult(stats=stats, **doc)


def _config_key(index: int, normalized: dict) -> str:
    """Journal key for one config: position + content fingerprint (the
    same config may legitimately appear twice in a batch)."""
    canonical = json.dumps(normalized, sort_keys=True, default=repr)
    digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]
    return f"{index}:{digest}"


class BatchResult(list):
    """``run_many``'s return value: results in config order (a plain
    ``list``), plus the supervised-execution provenance block
    (:class:`repro.exec.SupervisionReport` JSON with ``resumed`` /
    ``checkpoint`` merged in; ``None`` only on the empty batch)."""

    supervision: dict | None = None


# ---------------------------------------------------------------------------


def run_many(session, configs, *, jobs: int = 1, incremental: bool = True,
             timeout: float | None = None, max_retries: int = 3,
             checkpoint=None, resume: bool = False, faults=None,
             vectorize: bool = True,
             batch_size: int | None = None) -> BatchResult:
    """Evaluate ``configs`` against ``session``'s design (see
    :meth:`repro.api.Session.run_many` for the config schema).

    ``incremental=False`` forces a full simulation per configuration
    (differential testing of the serving path itself).  Every config is
    validated up front, so a typo in config 37 of 200 fails before any
    work starts.  Ad-hoc designs that cannot cross the process boundary
    (unpicklable ``@hls.kernel`` closures under spawn-style start
    methods) degrade to in-process evaluation rather than crashing
    platform-dependently.

    Resilience knobs mirror :func:`repro.dse.explore`: ``timeout``
    (per-chunk wall-clock deadline), ``max_retries`` (failures one
    config may accrue before being quarantined as a result with
    ``.failure`` set), ``checkpoint``/``resume`` (append-only journal of
    completed configs; resuming re-runs only what is missing) and
    ``faults`` (deterministic injection; default: ``REPRO_FAULTS``).  A
    refused knob is a :class:`~repro.errors.RequestError`.  Returns a
    :class:`BatchResult` whose ``supervision`` attribute is the
    provenance block.

    ``vectorize`` (default on) serves incremental-eligible configs in
    ``batch_size``-row slices through the NumPy batch-retiming kernel
    (:mod:`repro.trace.vectorized`); rows the kernel declines fall back
    to the scalar path with bit-for-bit identical values.  Each result's
    ``phase_seconds["mode"]`` records which path evaluated it
    (``"vectorized"`` / ``"scalar"`` / ``"scalar-fallback"`` /
    ``"full"``).  ``vectorize=False`` pins every config to the scalar
    path.  Checkpoint/journal granularity stays per config either way.
    """
    from ..exec import ExecPolicy, JournaledRun, Unit, resolve_plan

    batch_size = resolve_batch_size(batch_size)
    fault_plan = resolve_plan(faults)
    policy = ExecPolicy(timeout=timeout, max_retries=max_retries)
    compiled = session.compiled
    normalized = [normalize_config(config, compiled) for config in configs]
    if not normalized:
        return BatchResult()
    base_depths = compiled.stream_depths()
    runner = _BatchRunner(None, base_depths, lambda: compiled,
                          incremental=incremental)
    # Capture (or reuse) the baseline only when some config can actually
    # be served from it.  A design that deadlocks at its declared depths
    # has no baseline to replay: full runs decide (and the first one
    # that completes is re-captured as the reference).
    if any(runner._eligible(c) for c in normalized):
        try:
            runner.reference = session.baseline()
        except DeadlockError:
            pass

    units = [Unit(i, _config_key(i, config), config)
             for i, config in enumerate(normalized)]
    identity = None
    if checkpoint is not None:
        identity = {
            "kind": "run_many",
            "design": compiled.name,
            "digest": session.trace_digest(),
            "configs": hashlib.sha256("\n".join(
                u.key for u in units).encode("utf-8")).hexdigest()[:16],
            "count": len(units),
            "incremental": incremental,
        }

    def quarantined(unit, detail):
        return SimulationResult(
            design_name=compiled.name,
            simulator=unit.payload["engine"],
            cycles=0,
            failure=(f"quarantined after {detail['attempts']} attempts: "
                     f"{detail['reason']}: {detail['message']}"),
            phase_seconds={"serving": "quarantined"},
        )

    worker = None
    if jobs > 1 and shardable(session.design_ref):
        worker = (_worker_runner, (
            session.design_ref, base_depths,
            ship_reference(session, runner.reference), incremental))
    with JournaledRun(
        runner, worker=worker, jobs=jobs,
        batch_size=batch_size if (vectorize and incremental) else 0,
        policy=policy, fault_plan=fault_plan,
        encode=_result_to_json, decode=_result_from_json,
        quarantined=quarantined, checkpoint=checkpoint,
        identity=identity, resume=resume,
    ) as run:
        out = BatchResult(run.run(units)[0])
        out.supervision = run.supervision()
    return out
