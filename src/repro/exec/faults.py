"""Deterministic fault injection for the supervised executor.

Every resilience path in :mod:`repro.exec` — worker death, hangs past
the chunk timeout, transient simulation errors — must be testable in CI
without relying on real OOM kills or scheduler luck.  A
:class:`FaultPlan` injects those failures at chosen *configuration
indices* (the position in the sweep's full enumerated config list, so a
fault names one reproducible unit of work):

* ``crash`` — the worker process exits hard (``os._exit``), modelling a
  segfault / OOM kill; the pool breaks with ``BrokenProcessPool``.
  In-process (``jobs=1``) it raises
  :class:`~repro.errors.WorkerCrashError` instead (a serial run cannot
  kill itself and still be supervised).
* ``hang`` — the worker sleeps for ``seconds`` (default 30), tripping
  the per-chunk wall-clock timeout.  In-process it simply sleeps, which
  is exactly what the SIGKILL-and-resume CI smoke needs: a
  deterministic window in which to kill the process.
* ``error`` — raises a transient :class:`~repro.errors.SimulationError`;
  the supervisor retries and the config succeeds on a later attempt.

Spec grammar (the ``REPRO_FAULTS`` environment variable and the
``faults=`` parameter share it)::

    KIND@INDEX[:TIMES[:SECONDS]] [; more entries]

``TIMES`` is how many submissions the fault fires on (default 1 — a
*transient* fault; ``inf`` makes it permanent, i.e. a poison config that
ends up quarantined).  ``SECONDS`` is the hang duration.  Examples::

    crash@3                 one worker crash when config 3 first runs
    hang@5:1:60             one 60-second hang at config 5
    error@7:2               config 7 fails its first two attempts
    crash@9:inf             config 9 kills every worker that runs it

Determinism: the plan is consumed on the *parent* side — the supervisor
asks :meth:`FaultPlan.take` for each unit at submission time and ships
the directive with the work, so remaining-count bookkeeping survives
worker death and pool respawns, and a transient fault provably fires
exactly ``TIMES`` times regardless of retry scheduling.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass

from ..errors import RequestError, SimulationError, WorkerCrashError

#: environment variable carrying a fault spec (see module docstring)
ENV_VAR = "REPRO_FAULTS"

#: recognized fault kinds
KINDS = ("crash", "hang", "error")

#: default sleep for ``hang`` faults — long enough to trip any sane
#: chunk timeout, short enough that an unsupervised test still finishes
DEFAULT_HANG_SECONDS = 30.0

#: exit status used by injected worker crashes (visible in pool logs)
CRASH_EXIT_CODE = 96


@dataclass
class FaultRule:
    """One injection site: fire ``kind`` at config ``index`` for the
    next ``times`` submissions."""

    kind: str
    index: int
    times: float  # remaining submissions to fire on; math.inf = poison
    seconds: float = DEFAULT_HANG_SECONDS


class FaultPlan:
    """Parent-side fault schedule, consumed one submission at a time."""

    def __init__(self, rules):
        self._rules: dict[int, FaultRule] = {}
        for rule in rules:
            if rule.index in self._rules:
                raise RequestError(
                    f"duplicate fault rule for config index {rule.index}"
                )
            self._rules[rule.index] = rule
        #: directives handed out so far (provenance counter)
        self.injected = 0

    def __bool__(self) -> bool:
        return bool(self._rules)

    def take(self, index: int) -> dict | None:
        """The wire directive for submitting config ``index`` now, or
        ``None``.  Decrements the rule's remaining count — call exactly
        once per submission."""
        rule = self._rules.get(index)
        if rule is None or rule.times <= 0:
            return None
        rule.times -= 1
        self.injected += 1
        return {"kind": rule.kind, "seconds": rule.seconds}


def parse_faults(spec: str) -> FaultPlan:
    """Parse a fault spec string (see module docstring) into a plan;
    :class:`~repro.errors.RequestError` says what is wrong with it."""
    rules = []
    for entry in spec.replace(",", ";").split(";"):
        entry = entry.strip()
        if not entry:
            continue
        kind, sep, rest = entry.partition("@")
        kind = kind.strip().lower()
        parts = rest.split(":")
        if not sep or kind not in KINDS or len(parts) > 3:
            raise RequestError(
                f"bad fault entry {entry!r}: expected "
                f"KIND@INDEX[:TIMES[:SECONDS]] with KIND in {KINDS}"
            )
        try:
            index = int(parts[0])
            times = (math.inf if len(parts) > 1
                     and parts[1].strip().lower() in ("inf", "-1")
                     else float(int(parts[1])) if len(parts) > 1 else 1.0)
            seconds = (float(parts[2]) if len(parts) > 2
                       else DEFAULT_HANG_SECONDS)
        except ValueError:
            raise RequestError(
                f"bad fault entry {entry!r}: INDEX/TIMES/SECONDS must be "
                "numbers"
            ) from None
        if index < 0 or times < 0 or seconds < 0:
            raise RequestError(
                f"bad fault entry {entry!r}: values must be >= 0"
            )
        rules.append(FaultRule(kind, index, times, seconds))
    return FaultPlan(rules)


def resolve_plan(setting=None) -> FaultPlan | None:
    """Turn a user-facing fault setting into a plan.

    ``None`` consults :data:`ENV_VAR` (no plan when unset/empty);
    ``False`` disables injection even if the env var is set; a string is
    parsed as a spec; an existing :class:`FaultPlan` passes through.
    """
    if setting is None:
        env = os.environ.get(ENV_VAR, "").strip()
        return parse_faults(env) if env else None
    if setting is False:
        return None
    if isinstance(setting, FaultPlan):
        return setting
    if isinstance(setting, str):
        plan = parse_faults(setting)
        return plan if plan else None
    raise TypeError(
        f"faults must be a spec string, FaultPlan, False or None; "
        f"got {type(setting).__name__}"
    )


def apply_fault(directive: dict, in_process: bool = False) -> None:
    """Execute one wire directive at the injection point.

    Pool workers call this with ``in_process=False`` (a ``crash`` really
    kills the process); the serial executor passes ``in_process=True``
    (a ``crash`` raises :class:`~repro.errors.WorkerCrashError` so the
    retry path runs without killing the interpreter).
    """
    kind = directive["kind"]
    if kind == "crash":
        if in_process:
            raise WorkerCrashError("injected worker crash (in-process)")
        os._exit(CRASH_EXIT_CODE)
    elif kind == "hang":
        time.sleep(directive.get("seconds", DEFAULT_HANG_SECONDS))
    elif kind == "error":
        raise SimulationError("injected transient simulation error")
    else:  # pragma: no cover - parse_faults rejects unknown kinds
        raise ValueError(f"unknown fault kind {kind!r}")
