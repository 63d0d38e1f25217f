"""Depth-space exploration engine: incremental-first, fallback-on-violation.

Every configuration is evaluated by the replay policy of
:mod:`repro.exec.replay` (paper section 7.2 at sweep scale): retime the
captured graph under the configuration's depths and re-validate the
recorded queries — microseconds per point — and when a constraint
flips replay the capture of the configuration before it in proposal
order instead (sweeps enumerate neighbours consecutively, so the
neighbourhood of a full run stays on the incremental path), paying for
a full OmniSim run only where both flip.  True deadlocks are
recorded as points without a cycle count rather than aborting the sweep.
:class:`Evaluator` is that policy; the :class:`SweepPoint`\\ s are its.

*Which* configurations are evaluated is a :mod:`repro.dse.search`
strategy's call — the exhaustive grid (or a seeded sample of it) is the
strategy that proposes everything in round one — and one round loop
drives them all: the strategy proposes a batch, a
:class:`repro.exec.JournaledRun` evaluates it (journal-restored,
in-process or sharded over supervised pool workers, vectorized where
possible), and the observed outcomes steer the next round.  A
configuration that keeps failing on its own is *quarantined* as a
:data:`SOURCE_QUARANTINED` point (``cycles=None``) instead of aborting
the sweep; the ``SweepResult.supervision`` block records retries,
respawns, quarantines, rounds and resumed counts.
"""

from __future__ import annotations

import os
import time as _time
from dataclasses import dataclass, field

from ..errors import DseError, ReproError
from ..exec import ExecPolicy, JournaledRun, Unit, resolve_plan
from ..exec.replay import (  # noqa: F401  (the labels are dse API)
    MODE_FULL,
    MODE_SCALAR,
    MODE_SCALAR_FALLBACK,
    MODE_VECTORIZED,
    SOURCE_DEADLOCK,
    SOURCE_FULL,
    SOURCE_INCREMENTAL,
    Replayer,
    SweepPoint,
    chain,
)
from .pareto import frontier_distance, pareto_front
from .search import config_key, make_strategy
from .space import DepthSpace

#: a configuration that exhausted its retry budget (never an evaluation
#: path: the supervised executor synthesizes these points)
SOURCE_QUARANTINED = "quarantined"


@dataclass
class SweepResult:
    """Aggregate outcome of one depth-space exploration."""

    design: str
    params: dict
    base_depths: dict
    #: cycles at the declared depths; None when they deadlock
    base_cycles: int | None
    space_size: int
    jobs: int
    points: list = field(default_factory=list)
    #: wall-clock seconds of obtaining the reference (compile + capture
    #: run, or the warm load)
    capture_seconds: float = 0.0
    #: wall-clock seconds of the sweep itself
    seconds: float = 0.0
    #: where the reference capture came from: "cold" (fresh simulation),
    #: "warm" (loaded from the on-disk trace cache) or "none" (the
    #: declared depths deadlock: the sweep started without a reference)
    capture: str = "cold"
    #: provenance of the supervised execution (retries, respawns,
    #: quarantines, resumed count, checkpoint path) — see
    #: :class:`repro.exec.SupervisionReport`
    supervision: dict | None = None
    #: search provenance (strategy, per-round evals/frontier movement,
    #: prune counters, budget accounting) — None unless ``strategy=`` or
    #: ``max_evals=`` asked for a search; see :mod:`repro.dse.search`
    search: dict | None = None

    @property
    def evaluated(self) -> int:
        """Number of configurations actually evaluated."""
        return len(self.points)

    def _count(self, source: str) -> int:
        return sum(1 for p in self.points if p.source == source)

    @property
    def incremental_count(self) -> int:
        """Points served by incremental re-simulation (the fast path)."""
        return self._count(SOURCE_INCREMENTAL)

    @property
    def full_count(self) -> int:
        """Points that needed a full re-simulation fallback."""
        return self._count(SOURCE_FULL)

    @property
    def deadlock_count(self) -> int:
        """Points whose configuration truly deadlocks (no cycle count)."""
        return self._count(SOURCE_DEADLOCK)

    @property
    def quarantined_count(self) -> int:
        """Points whose configuration exhausted its retry budget (kept
        as structured failures, never dropped from the result)."""
        return self._count(SOURCE_QUARANTINED)

    @property
    def incremental_fraction(self) -> float:
        """Share of points served incrementally, in [0, 1]."""
        return (self.incremental_count / self.evaluated
                if self.points else 0.0)

    @property
    def configs_per_sec(self) -> float:
        """Sweep throughput (excludes the initial capture run)."""
        return self.evaluated / self.seconds if self.seconds > 0 else 0.0

    @property
    def mode_counts(self) -> dict:
        """Evaluation-mode histogram (``vectorized`` /
        ``scalar`` / ``scalar-fallback`` / ``full``; None keys from old
        journals are dropped)."""
        counts: dict = {}
        for p in self.points:
            if p.mode is not None:
                counts[p.mode] = counts.get(p.mode, 0) + 1
        return counts

    def pareto(self) -> list:
        """Non-dominated points: cycles (perf) vs buffer bits (area)."""
        return pareto_front(self.points)

    def best(self) -> SweepPoint | None:
        """The lowest-cycle point (buffer bits break ties)."""
        ok = [p for p in self.points if p.ok]
        if not ok:
            return None
        return min(ok, key=lambda p: (p.cycles, p.buffer_bits))

    def to_json(self) -> dict:
        """Plain-dict form (aggregates, all points, Pareto frontier)."""
        return {
            "design": self.design,
            "params": dict(self.params),
            "base_depths": dict(self.base_depths),
            "base_cycles": self.base_cycles,
            "space_size": self.space_size,
            "jobs": self.jobs,
            "evaluated": self.evaluated,
            "incremental": self.incremental_count,
            "full": self.full_count,
            "deadlocked": self.deadlock_count,
            "quarantined": self.quarantined_count,
            "incremental_fraction": round(self.incremental_fraction, 4),
            "modes": self.mode_counts,
            "capture": self.capture,
            "supervision": self.supervision,
            "search": self.search,
            "capture_seconds": round(self.capture_seconds, 6),
            "seconds": round(self.seconds, 6),
            "configs_per_sec": round(self.configs_per_sec, 2),
            "points": [p.to_json() for p in self.points],
            "pareto": [p.to_json() for p in self.pareto()],
        }


class Evaluator(Replayer):
    """The replay policy (:class:`repro.exec.replay.Replayer`) as the
    sweep's evaluator: its points, without the handles behind them."""

    def evaluate(self, requests):
        """One :class:`SweepPoint` per ``(config, after)`` request, in
        order (lazily: see :meth:`Replayer.evaluate`)."""
        return (outcome.point for outcome in super().evaluate(requests))

    def quarantined(self, config: dict, detail: dict) -> SweepPoint:
        """A structured failure point for a configuration that
        exhausted its retry budget (never dropped from the result); the
        attempts it took are the schedule's, in ``supervision``."""
        depths = dict(self.base_depths, **config)
        return SweepPoint(
            depths=depths,
            cycles=None,
            buffer_bits=self._storage_bits(depths),
            source=SOURCE_QUARANTINED,
            seconds=0.0,
            detail=f"{detail['reason']}: {detail['message']} (quarantined)",
        )


# ---------------------------------------------------------------------------


def explore(session, space, *, samples: int | None = None, seed: int = 0,
            jobs: int = 1, executor: str | None = None,
            timeout: float | None = None, max_retries: int = 3,
            checkpoint=None, resume: bool = False, faults=None,
            batch_size: int | None = None, strategy: str | None = None,
            max_evals: int | None = None) -> SweepResult:
    """Sweep ``session``'s design over ``space`` and aggregate a
    :class:`SweepResult`.

    ``session`` is an open :class:`repro.api.Session`: its cached
    compiled artifact and captured baseline are reused, and under its
    ``trace_cache`` a warm sweep skips recapture (and compilation)
    entirely — the result's ``capture`` field reports ``"warm"`` or
    ``"cold"``.  ``space`` is a :class:`DepthSpace` or a list of axis
    specs (``"fifo=1:16"``).  ``samples`` draws a seeded random subset
    instead of the full grid; ``jobs`` shards configurations across a
    process pool, never wider than a round's pending configurations
    (the result's ``jobs`` field reports the parallelism actually
    used; see :meth:`repro.exec.replay.Replayer.worker_spec`).

    A design that deadlocks at its *declared* depths is swept all the
    same (sizing the FIFOs behind a deadlock is the question, paper
    sections 7.1-7.2): the sweep starts without a reference
    (``base_cycles`` ``None``, ``capture`` ``"none"``), and full runs
    decide, each serving its successor as its neighbour.

    Resilience knobs (the supervised executor, :mod:`repro.exec`):
    ``timeout`` is the per-chunk wall-clock deadline in seconds (hung
    workers are killed and their chunks retried); ``max_retries`` bounds
    how many failures one configuration may accrue before it is
    quarantined as a :data:`SOURCE_QUARANTINED` point; ``checkpoint``
    names an append-only JSONL journal of completed configurations, and
    ``resume=True`` reuses a prior journal so only unfinished
    configurations are re-evaluated (an identity mismatch — different
    design, space, strategy, sampling or trace digest — raises
    :class:`~repro.errors.CheckpointError`); ``faults`` injects
    deterministic failures for testing (a spec string or
    :class:`repro.exec.FaultPlan`; default: the ``REPRO_FAULTS``
    environment variable).  The result's ``supervision`` block reports
    what the executor actually did.

    Configurations are evaluated in batches through the NumPy retiming
    kernel (:mod:`repro.trace.vectorized`), ``batch_size`` rows per
    call (default :data:`repro.trace.vectorized.DEFAULT_BATCH_SIZE`);
    rows the kernel declines fall back to the scalar path one by one,
    so every point is bit-for-bit what ``batch_size=1`` — the scalar
    path only — computes.  Each point's ``mode`` field records the path
    that served it.  Points, ``source`` / ``mode`` / ``detail``
    included, depend on the request and ``batch_size`` only — never on
    ``jobs``, resumes or retries (:mod:`repro.exec.replay`).  Without
    NumPy the sweep transparently degrades to the scalar path.

    Search (:mod:`repro.dse.search`): ``strategy`` picks how the space
    is covered — ``"exhaustive"`` (default; enumerate or
    ``samples``-sample the grid), ``"refine"`` (successive refinement
    with dominated-region pruning) or ``"random"`` (seeded restarts
    with a stagnation stop).  ``max_evals`` bounds the total number of
    configurations evaluated: adaptive strategies stop when the budget
    is spent, and the exhaustive strategy degrades to a seeded sample of
    that many configurations.  Exhaustive sweeps refuse to enumerate
    spaces above :data:`repro.dse.ENUMERATE_LIMIT` configurations
    without a ``samples``/``max_evals`` cap — million-config products
    are the adaptive strategies' job.  Asking for a ``strategy`` or a
    budget fills the result's ``search`` provenance block.  Every sweep
    checkpoints round-by-round: a resumed search replays the same
    deterministic proposal sequence, serving journaled configurations
    from disk, and lands on the exact frontier of an uninterrupted run.
    """
    if not isinstance(space, DepthSpace):
        space = DepthSpace.parse(space)
    strategy_name = "exhaustive" if strategy is None else strategy
    exhaustive = strategy_name == "exhaustive"
    if max_evals is not None and max_evals < 1:
        raise DseError(f"max_evals must be >= 1, got {max_evals}")
    # The exhaustive strategy's effective cap decides which
    # configurations the sweep covers, so it is part of the journal's
    # identity.  An adaptive max_evals deliberately is not: the proposal
    # sequence is deterministic given (space, seed, strategy) and a
    # budget only truncates it, so a budget-stopped search may be
    # resumed with a bigger (or no) budget.
    cap = None
    if exhaustive:
        cap = min((c for c in (samples, max_evals) if c is not None),
                  default=None)
        if cap is not None and cap >= space.size:
            cap = None
    # Built first: a bad strategy or space fails before any capture.
    searcher = make_strategy(strategy_name, space, seed=seed,
                             **({"cap": cap} if exhaustive else {}))
    if samples is not None and not exhaustive:
        raise DseError(
            "samples applies to the exhaustive strategy only; bound an "
            "adaptive search with max_evals instead"
        )

    fault_plan = resolve_plan(faults)
    policy = ExecPolicy(timeout=timeout, max_retries=max_retries,
                        seed=seed, jobs=jobs)

    # The session's cached baseline is the capture run: a pre-warmed
    # session (or a warm cache hit, compile-free) makes this (nearly)
    # free, which is the point of the facade.
    capture_start = _time.perf_counter()
    design_name, base_depths = session.declared(executor)
    space.validate_against(base_depths)
    evaluator = Evaluator.for_session(session, executor,
                                      batch_size=batch_size)
    capture_seconds = _time.perf_counter() - capture_start
    base = evaluator.reference

    identity = None if checkpoint is None else {
        "kind": "dse",
        "design": design_name,
        "digest": session.trace_digest(executor),
        "space": [[axis.fifo, list(axis.values)] for axis in space.axes],
        "strategy": strategy_name,
        "cap": cap,
        "seed": seed,
        "executor": executor,
    }

    sweep_start = _time.perf_counter()
    with JournaledRun(
        evaluator, worker=evaluator.worker_spec(session, jobs),
        policy=policy, fault_plan=fault_plan,
        encode=SweepPoint.to_json, decode=SweepPoint.from_json,
        quarantined=lambda unit, detail: evaluator.quarantined(
            unit.payload[0], detail),
        checkpoint=checkpoint, identity=identity, resume=resume,
    ) as run:
        points, search = _run_rounds(searcher, run, space.size, max_evals)
        supervision = run.supervision()
    supervision["rounds"] = len(search["rounds"])

    return SweepResult(
        design=design_name,
        params=dict(session.params),
        base_depths=base_depths,
        base_cycles=None if base is None else base.cycles,
        space_size=space.size,
        jobs=supervision["jobs"],
        points=points,
        capture_seconds=capture_seconds,
        seconds=_time.perf_counter() - sweep_start,
        capture=("none" if base is None
                 else base.phase_seconds.get("capture", "cold")),
        supervision=supervision,
        search=(search if strategy is not None or max_evals is not None
                else None),
    )


def _run_rounds(strategy, run, space_size: int,
                max_evals: int | None) -> tuple:
    """The sweep driver: ``strategy`` proposes configuration batches,
    ``run`` (a :class:`repro.exec.JournaledRun`) evaluates them, and the
    observed outcomes steer the next round.  Returns ``(points,
    search)`` — every evaluated point in proposal order and the
    ``search`` provenance block.

    Checkpointing is round-structured: completed configurations journal
    under their canonical JSON, and a ``round:N`` marker line with the
    round's provenance follows each round that evaluated anything.
    Resume does not *rewind* to a round boundary — it replays the
    deterministic proposal sequence from the start, serving every
    journaled configuration from the restored outcomes (including a
    partially journaled final round), so the search continues exactly
    where the killed run stopped paying for evaluations.  Each unit's
    payload is a ``(config, after)`` request (:func:`chain`), chained
    across rounds, so its neighbour is the same however it is resumed.
    """
    points: list = []
    after = None
    proposed: set = set()
    rounds: list = []
    prev_frontier = None
    stalls = 0
    stopped = strategy.stop_label
    while not strategy.done:
        remaining = (max_evals - len(points)
                     if max_evals is not None else space_size + 1)
        if remaining <= 0:
            stopped = "budget"
            break
        batch = strategy.next_batch(remaining)[:remaining]
        if not batch:
            break
        fresh: dict = {}
        for config in batch:
            key = config_key(config)
            if key not in proposed:
                proposed.add(key)
                fresh[key] = config
        units = [Unit(len(points) + i, key, request) for i, (key, request)
                 in enumerate(zip(fresh, chain(fresh.values(), after)))]
        if not units:
            # A strategy re-proposing only known configs is a bug;
            # fail safe rather than spinning forever.
            stalls += 1
            if stalls >= 2:
                stopped = "stalled"
                break
            continue
        stalls = 0
        after = units[-1].payload[0]
        outcomes, restored = run.run(units)
        points.extend(outcomes)
        strategy.observe([(unit.payload[0], point)
                          for unit, point in zip(units, outcomes)])
        frontier = [(p.cycles, p.buffer_bits)
                    for p in pareto_front(points)]
        moved = None
        if prev_frontier is not None:
            distance = frontier_distance(frontier, prev_frontier)
            if distance != float("inf"):
                moved = round(distance, 6)
        round_doc = {
            "round": len(rounds) + 1,
            "proposed": len(units),
            "evaluated": len(units) - restored,
            "restored": restored,
            "frontier_size": len(frontier),
            "frontier_moved": moved,
        }
        rounds.append(round_doc)
        if restored < len(units):
            run.mark(f"round:{round_doc['round']}", round_doc)
        prev_frontier = frontier

    search = {
        "strategy": strategy.name,
        "stopped": stopped,
        "converged": stopped == strategy.stop_label,
        "rounds": rounds,
        "evals": {
            "budget": max_evals,
            "spent": len(points),
            "restored": run.resumed,
            "new": len(points) - run.resumed,
        },
    }
    search.update(strategy.provenance())
    return points, search


def iter_spec_files(directory) -> list:
    """Sorted DSL spec files (``*.yaml``/``*.yml``/``*.json``) under
    ``directory`` (non-recursive)."""
    from ..designs.dsl import SPEC_SUFFIXES

    return sorted(
        os.path.join(directory, entry)
        for entry in os.listdir(directory)
        if entry.lower().endswith(SPEC_SUFFIXES)
    )


def explore_specs(spec_paths, space, *, trace_cache=None,
                  **explore_kwargs) -> list:
    """Sweep one depth space over many spec files (generated corpora).

    ``spec_paths`` is a directory (all specs inside are swept) or an
    iterable of spec file paths; each is opened as a
    :class:`repro.api.Session` (under ``trace_cache``) and the remaining
    keyword arguments pass through to :func:`explore`.  Specs that
    cannot be swept — missing the swept FIFO axis or malformed; mixed
    corpora contain both — are skipped rather than aborting the batch.

    Returns:
        List of ``(path, SweepResult | ReproError)`` pairs in sweep
        order (errors mark skipped specs).
    """
    from ..api import Session

    if isinstance(spec_paths, (str, bytes)) or hasattr(spec_paths,
                                                       "__fspath__"):
        path = os.fspath(spec_paths)
        spec_paths = iter_spec_files(path) if os.path.isdir(path) else [path]
    outcomes = []
    for path in spec_paths:
        try:
            with Session(path, trace_cache=trace_cache) as session:
                outcomes.append((path, explore(session, space,
                                               **explore_kwargs)))
        except ReproError as exc:
            outcomes.append((path, exc))
    return outcomes
