"""Batched multi-run execution: ship the artifact once, run everywhere.

``Session.run_many`` evaluates a list of run configurations against one
design.  Two mechanisms make a batch cheaper than a sequential
``session.run()`` loop:

* **Incremental serving.**  OmniSim configurations that differ only in
  FIFO depths go through the replay policy ``repro.dse`` sweeps use
  (:mod:`repro.exec.replay`): retime the session's captured baseline and
  re-check its recorded query constraints — microseconds instead of a
  full Func+Perf re-simulation — falling back, when a constraint flips,
  to the capture of the eligible config before it, then to a real run.
  A config that passes constraint validation provably leaves the
  recorded execution — and hence every functional output — unchanged,
  so the replayed run's scalars/buffers are the config's too.
  This is the LightningSimV2/GSIM argument (the compiled model, not the
  run, is the unit of reuse) applied to batch execution; it is why
  ``run_many`` beats a ``.run()`` loop even on one core.
* **Process-pool sharding.**  With ``jobs > 1`` the batch is split into
  contiguous chunks over worker processes, each of which rebuilds the
  policy once, in the pool initializer
  (:meth:`repro.exec.replay.Replayer.worker_spec`: a small picklable
  *design reference* plus the captured baseline); the design is compiled
  in a worker only if one of its configurations needs a full run.

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
import hashlib
import json

from ..errors import DeadlockError, UnsupportedDesignError
from ..exec import ExecPolicy, JournaledRun, Unit, resolve_plan
from ..exec.replay import MODE_FULL, SOURCE_FULL, Replayer
from ..sim.registry import get_engine, run_engine, validate_depth_names
from ..sim.result import SimulationResult, SimulationStats

#: config keys consumed by the batch layer itself; everything else in a
#: config dict forwards to the engine constructor
_CONFIG_KEYS = ("engine", "executor", "depths")


def normalize_config(config: dict, name: str, declared: dict) -> dict:
    """Validate one run configuration eagerly (before any pool spawns)
    against the design's ``(name, declared depths)``
    (:meth:`repro.api.Session.declared`).

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
    depths = validate_depth_names(config.get("depths"), declared, name)
    kwargs = {k: v for k, v in config.items() if k not in _CONFIG_KEYS}
    return {
        "engine": engine,
        "executor": config.get("executor"),
        "depths": depths,
        "kwargs": kwargs,
    }


def _eligible(config: dict) -> bool:
    """Whether the replay policy can serve a normalized config: OmniSim,
    no engine kwargs (executor choice does not gate it — incremental
    replay re-runs no Func Sim code at all)."""
    return config["engine"] == "omnisim" and not config["kwargs"]


class _BatchRunner(Replayer):
    """Serves one shard of a batch: :class:`repro.exec.replay.Replayer`
    outcomes as :class:`SimulationResult`\\ s.

    Configs the policy can serve (:func:`_eligible`) go through it;
    everything else is a plain full run on its own engine.  Served
    results inherit the functional outputs of the run that was
    replayed: constraint validation proves the recorded execution —
    hence every value — is exactly what a fresh run at the served
    depths would produce (paper section 7.2).
    """

    def evaluate(self, payloads: list):
        """One :class:`SimulationResult` per ``(normalized config,
        after)`` payload, in order — ``after`` is the depths of the
        eligible config before it — the eligible ones through the
        policy's stream (see :meth:`Replayer.evaluate`); simulation-level
        failures fold into the result instead of raising."""
        eligible = [(c, after) for c, after in payloads if _eligible(c)]
        served = super().evaluate([(c["depths"], after)
                                   for c, after in eligible],
                                  [c["executor"] for c, _ in eligible])
        for config, _after in payloads:
            if not _eligible(config):
                yield self._run(config)
                continue
            outcome = next(served)
            yield (_served(outcome) if outcome.error is None
                   else self._failed("omnisim", outcome.error))

    def _run(self, config: dict) -> SimulationResult:
        try:
            return _full(run_engine(
                config["engine"], self.compiled,
                depths=config["depths"] or None,
                executor=config["executor"], **config["kwargs"]))
        except (DeadlockError, UnsupportedDesignError) as exc:
            return self._failed(config["engine"], exc)

    def _failed(self, engine: str, exc) -> SimulationResult:
        return SimulationResult(
            design_name=self.compiled.name,
            simulator=engine,
            cycles=exc.cycle if isinstance(exc, DeadlockError) else 0,
            failure=str(exc),
            phase_seconds={"serving": "full", "mode": MODE_FULL},
        )


def _full(result: SimulationResult) -> SimulationResult:
    result.phase_seconds.update(serving="full", mode=MODE_FULL)
    # The run may be the reference the shard still replays against:
    # drop the heavy attachments from a copy.
    return dataclasses.replace(result, fifo_channels={}, trace=None)


def _served(outcome) -> SimulationResult:
    """The :class:`SimulationResult` of a replay outcome that completed."""
    point = outcome.point
    if point.source == SOURCE_FULL:
        return _full(outcome.run)
    inc = outcome.incremental
    # The replayed run's outputs (copies), at the retimed cycles.
    return dataclasses.replace(
        outcome.run.trace.to_result(),
        cycles=inc.cycles,
        module_end_times=dict(inc.module_end_times),
        execute_seconds=point.seconds,
        phase_seconds={"serving": "incremental",
                       "replay_seconds": inc.seconds,
                       "mode": point.mode},
        trace=None,
    )


def serve_depths(session, depths: dict,
                 executor: str | None = None) -> SimulationResult:
    """One OmniSim run of ``session``'s design at depth overrides:
    incremental replay of its reference first, one full re-simulation
    on divergence (or when the declared depths deadlock and there is no
    reference) — what ``repro run --depth`` and ``/v1/run`` answer
    with.  The result's ``phase_seconds["serving"]`` says which; a true
    deadlock at the requested depths raises
    :class:`~repro.errors.DeadlockError`.
    """
    name, declared = session.declared(executor)
    depths = validate_depth_names(depths, declared, name)
    outcome, = Replayer.for_session(session, executor,
                                    batch_size=1).evaluate([(depths, None)])
    if outcome.error is not None:
        raise outcome.error
    result = _served(outcome)
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


def run_many(session, configs, *, jobs: int = 1,
             timeout: float | None = None, max_retries: int = 3,
             checkpoint=None, resume: bool = False, faults=None,
             batch_size: int | None = None) -> BatchResult:
    """:meth:`repro.api.Session.run_many` (the config schema, the
    serving paths and every knob are documented there).

    Every config is validated up front — against the session's
    ``declared()`` depths, so a warm batch of depth-only configs never
    compiles — and a typo in config 37 of 200 fails before any work
    starts.  Ad-hoc designs that cannot cross the process boundary
    (unpicklable ``@hls.kernel`` closures under spawn-style start
    methods) degrade to in-process evaluation rather than crashing
    platform-dependently.  A refused knob is a
    :class:`~repro.errors.RequestError`; checkpoint/journal granularity
    is per config, batched or not.
    """
    fault_plan = resolve_plan(faults)
    policy = ExecPolicy(timeout=timeout, max_retries=max_retries, jobs=jobs)
    name, declared = session.declared()
    normalized = [normalize_config(config, name, declared)
                  for config in configs]
    # Capture (or reuse) the baseline only when some config can actually
    # be served from it.
    runner = _BatchRunner.for_session(
        session, capture=any(map(_eligible, normalized)),
        batch_size=batch_size)
    if not normalized:
        return BatchResult()

    # each payload carries the depths of the eligible config before it
    units, after = [], None
    for i, config in enumerate(normalized):
        units.append(Unit(i, _config_key(i, config), (config, after)))
        if _eligible(config):
            after = config["depths"]
    identity = None
    if checkpoint is not None:
        identity = {
            "kind": "run_many",
            "design": name,
            "digest": session.trace_digest(),
            "configs": hashlib.sha256("\n".join(
                u.key for u in units).encode("utf-8")).hexdigest()[:16],
            "count": len(units),
            # constant: journals from when ``incremental=`` was a knob
            # carry it, and still resume
            "incremental": True,
        }

    def quarantined(unit, detail):
        return SimulationResult(
            design_name=name,
            simulator=unit.payload[0]["engine"],
            cycles=0,
            # how many attempts it took is the schedule's: supervision
            failure=f"quarantined: {detail['reason']}: {detail['message']}",
            phase_seconds={"serving": "quarantined"},
        )

    with JournaledRun(
        runner, worker=runner.worker_spec(session, jobs),
        policy=policy, fault_plan=fault_plan,
        encode=_result_to_json, decode=_result_from_json,
        quarantined=quarantined, checkpoint=checkpoint,
        identity=identity, resume=resume,
    ) as run:
        out = BatchResult(run.run(units)[0])
        out.supervision = run.supervision()
    return out
