"""Supervised, fault-tolerant work-queue execution (``repro.exec``).

The shared execution layer under ``repro dse`` / :meth:`Session.sweep`
and :func:`repro.api.run_many`:

* :mod:`~repro.exec.supervisor` — the work-queue
  :class:`~repro.exec.supervisor.Supervisor` (per-chunk futures,
  wall-clock timeouts, retry with exponential backoff + jitter,
  chunk re-splitting to isolate poison configs, solo verdict runs,
  ``BrokenProcessPool`` recovery) and its serial twin
  :func:`~repro.exec.supervisor.run_serial`.
* :mod:`~repro.exec.journal` — append-only JSONL checkpoint journals
  behind ``--checkpoint``/``--resume``.
* :mod:`~repro.exec.replay` — the replay policy every depth-override
  evaluation goes through (declared capture, then the previous
  configuration's, then a full run; deadlock as an outcome).
* :mod:`~repro.exec.worker` — the pool-worker protocol and the journal
  + supervisor plumbing (``JournaledRun``) sweeps and batches share.
* :mod:`~repro.exec.faults` — the deterministic fault-injection
  harness (``REPRO_FAULTS``) that makes every resilience path
  testable in CI.
"""

from .faults import (
    CRASH_EXIT_CODE,
    DEFAULT_HANG_SECONDS,
    ENV_VAR,
    KINDS,
    FaultPlan,
    FaultRule,
    apply_fault,
    parse_faults,
    resolve_plan,
)
from .journal import CheckpointJournal, close_active_journals, read_journal
from .replay import ReplayOutcome, Replayer
from .supervisor import (
    ExecPolicy,
    SupervisionReport,
    Supervisor,
    Unit,
    chunk_contiguous,
    run_serial,
)
from .worker import JournaledRun

__all__ = [
    "CRASH_EXIT_CODE",
    "DEFAULT_HANG_SECONDS",
    "ENV_VAR",
    "KINDS",
    "CheckpointJournal",
    "ExecPolicy",
    "FaultPlan",
    "FaultRule",
    "JournaledRun",
    "ReplayOutcome",
    "Replayer",
    "SupervisionReport",
    "Supervisor",
    "Unit",
    "apply_fault",
    "chunk_contiguous",
    "close_active_journals",
    "parse_faults",
    "read_journal",
    "resolve_plan",
    "run_serial",
]
