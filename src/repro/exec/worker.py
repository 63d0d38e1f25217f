"""One worker protocol and one journaled, supervised run over it.

``repro.dse`` sweeps, ``Session.run_many`` batches and ``repro fuzz``
campaigns are the same execution problem: a list of
:class:`~repro.exec.supervisor.Unit`\\ s, an *evaluator* — any object
with ``evaluate(payloads)``, yielding one outcome per payload in order
(for the first two a shape adapter over
:class:`repro.exec.replay.Replayer`, which alone decides how payloads
group into kernel calls) — an optional checkpoint journal, and
``policy.jobs`` worker processes.  :class:`JournaledRun`
owns everything between the units and their outcomes: it serves
journaled units from the (resumed) journal, runs the rest in-process
(:func:`~repro.exec.supervisor.run_serial`, when no worker factory was
given) or over a pool (:class:`~repro.exec.supervisor.Supervisor`)
never wider than the work at hand, journals each outcome the moment it
completes, synthesizes a structured outcome for units that exhaust
their retries, and folds every call's report into one ``supervision``
block.

Pool workers build their evaluator once, in :func:`init_worker`, from a
picklable factory; :func:`run_chunk` evaluates the supervisor's wire
format against it.  Module-level state because pool tasks can only
reach module globals; whatever the evaluator keeps between chunks is a
cache, since each payload carries what its answer depends on (a replay
request, its predecessor: :mod:`repro.exec.replay`).
"""

from __future__ import annotations

import os

from .faults import apply_fault
from .journal import CheckpointJournal
from .supervisor import SupervisionReport, Supervisor, run_serial

_EVALUATOR = None


def init_worker(factory, args: tuple) -> None:
    """Pool initializer: ``factory(*args)`` builds this worker's
    evaluator (``factory`` must be importable by path)."""
    global _EVALUATOR
    _EVALUATOR = factory(*args)


def run_chunk(wire) -> list:
    """Supervised wire format: ``[(payload, fault_directive), ...]`` —
    directives come from :class:`repro.exec.FaultPlan` and fire before
    the evaluation they target, so a directive flushes the running
    segment first and lands exactly where sequential evaluation would
    put it."""
    values: list = []
    segment: list = []
    for payload, directive in wire:
        if directive is not None:
            values.extend(_EVALUATOR.evaluate(segment))
            segment = []
            apply_fault(directive)
        segment.append(payload)
    values.extend(_EVALUATOR.evaluate(segment))
    return values


class JournaledRun:
    """A supervised execution of units against one evaluator, across
    any number of :meth:`run` calls (a search calls it once per round)
    sharing one checkpoint journal, which leaving the context closes."""

    def __init__(self, evaluator, *, policy, fault_plan, encode, decode,
                 quarantined, worker: tuple | None = None, checkpoint=None,
                 identity: dict | None = None, resume: bool = False):
        """Args:
            evaluator: in-process evaluator, used without ``worker``.
            policy: the :class:`~repro.exec.supervisor.ExecPolicy`;
                its ``jobs`` is the widest pool to spawn.
            encode / decode: outcome <-> journal document.
            quarantined: ``(unit, detail) -> outcome`` for a unit that
                exhausted its retries.
            worker: ``(factory, args)`` building the same evaluator in
                a pool worker; ``None`` keeps everything in-process.
            checkpoint / identity / resume: the journal file, the
                identity it must carry, and whether completed entries
                may be reused.
        """
        self._evaluator = evaluator
        self._worker = worker
        self.jobs = policy.jobs if worker is not None else 1
        self._policy = policy
        self._fault_plan = fault_plan
        self._encode = encode
        self._decode = decode
        self._quarantined = quarantined
        self._checkpoint = checkpoint
        self._journal = None
        self._restored: dict = {}
        if checkpoint is not None:
            self._journal, self._restored = CheckpointJournal.open(
                checkpoint, identity, resume=resume)
        self._report: SupervisionReport | None = None
        #: units served from the journal so far
        self.resumed = 0

    def __enter__(self) -> "JournaledRun":
        return self

    def __exit__(self, *exc_info) -> None:
        if self._journal is not None:
            self._journal.close()

    def mark(self, key: str, doc: dict) -> None:
        """Journal a non-unit line (round markers)."""
        if self._journal is not None:
            self._journal.append(key, doc)

    def _outcome(self, unit, status, value):
        return value if status == "ok" else self._quarantined(unit, value)

    def _record(self, unit, status, value) -> None:
        self._journal.append(
            unit.key, self._encode(self._outcome(unit, status, value)))

    def run(self, units) -> tuple:
        """``(outcomes, restored)``: one outcome per unit, in order —
        decoded from the journal where it has the unit's key, evaluated
        otherwise — and how many came from the journal."""
        pending = [u for u in units if u.key not in self._restored]
        restored = len(units) - len(pending)
        self.resumed += restored
        # Decoded before anything runs: a decoder may restore state the
        # pending units read (a fuzz campaign's coverage map).
        results = {u.index: ("ok", self._decode(self._restored[u.key]))
                   for u in units if u.key in self._restored}
        if pending:
            record = self._record if self._journal is not None else None
            if self._worker is None:
                ran, report = run_serial(
                    pending, self._evaluator.evaluate, policy=self._policy,
                    fault_plan=self._fault_plan, record=record)
            else:
                # A pool even for one pending unit: only a second
                # process enforces the deadline and survives a crash.
                # Imported where a pool is actually built: the name
                # drags in multiprocessing (~20 ms of every jobs=1 run).
                from concurrent.futures import ProcessPoolExecutor

                width = min(self.jobs, len(pending))
                ran, report = Supervisor(
                    lambda: ProcessPoolExecutor(
                        max_workers=width, initializer=init_worker,
                        initargs=self._worker),
                    run_chunk, jobs=width, policy=self._policy,
                    fault_plan=self._fault_plan, record=record,
                ).run(pending)
            results.update(ran)
            if self._report is None:
                self._report = report
            else:
                self._report.absorb(report)
        return [self._outcome(unit, *results[unit.index])
                for unit in units], restored

    def supervision(self) -> dict:
        """The provenance block: the merged
        :class:`~repro.exec.supervisor.SupervisionReport` JSON plus
        ``resumed`` / ``checkpoint``."""
        # Everything came from the journal: nothing ran, but the
        # provenance shape stays stable.
        doc = (self._report or SupervisionReport(
            mode="serial" if self._worker is None else "pool",
            jobs=self.jobs)).to_json()
        if self._fault_plan is not None:
            # Each call's report carries the plan's cumulative counter;
            # the total is the plan's, not the per-call sum.
            doc["faults_injected"] = self._fault_plan.injected
        doc["resumed"] = self.resumed
        doc["checkpoint"] = (os.fspath(self._checkpoint)
                             if self._checkpoint is not None else None)
        return doc
