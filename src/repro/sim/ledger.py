"""Per-module timing ledger with elastic pipeline semantics.

This module *states* the hardware timing contract and *holds* its
per-module state; two engines execute it.  The co-simulator calls the
methods below once per event, as written.  OmniSim's commit kernel
(:meth:`repro.sim.omnisim.OmniSimulator._commit_ready`) inlines the same
arithmetic on locals: it loads ``effective_start``/``cur_serial``/
``cur_base``/``last_commit_time`` when it starts committing a module and
stores them back when the module blocks.  The methods here are thus
also the readable specification of that loop.

Hardware timing contract (shared by OmniSim and the co-simulator):

* A module's execution is a sequence of **segments**: straight-line code is
  one segment; each iteration of a *pipelined* loop is its own segment.
  Events carry ``(segment serial, segment base, offset)`` where ``offset``
  is the event's cycle position inside the segment per the static schedule.
* Within a segment, stalls freeze everything later in the segment (an
  in-order pipeline: ``ready = E + offset`` where the *effective start* E
  grows to ``commit - offset`` whenever an event stalls).
* Across segments, stalls propagate forward only:
  ``E_next = E_prev + (base_next - base_prev)`` — iteration k+1 issues II
  cycles after iteration k's *effective* start.  Crucially, a stall in a
  later iteration never retroactively delays an earlier iteration's
  in-flight stages (hardware pipelines drain), which is what lets cyclic
  blocking designs like the paper's Ex. 3 run instead of deadlocking.
* Events commit strictly in emission (program) order per module; commit
  *times* may be non-monotonic across overlapped iterations, exactly like
  the hardware.

The ledger also exposes :meth:`future_commit_bound`: given a bound on when
the head event can commit, a sound lower bound on the commit time of every
other (queued or future) event of this module.  Later same-segment events
sit at larger offsets (>= head commit); later segments start at least one
cycle after the head's effective position.  The engines use this to apply
the paper's earliest-query-false rule soundly (section 7.1);
:func:`future_bounds` propagates it along the modules' wait-for chains.
"""

from __future__ import annotations

from collections import deque

from ..errors import SimulationError

INFINITY = 1 << 62


class ModuleLedger:
    """Timing state of one module: its emission-order queue of pending
    requests and the current segment's effective start."""

    __slots__ = ("module", "queue", "effective_start", "cur_serial",
                 "cur_base", "last_commit_time")

    def __init__(self, module: str):
        self.module = module
        self.queue: deque = deque()
        #: E: effective start cycle of the current segment (stall-adjusted)
        self.effective_start = 0
        self.cur_serial = 0
        self.cur_base = 0
        self.last_commit_time = 0

    # --- emission ------------------------------------------------------

    def add(self, request):
        self.queue.append(request)
        return request

    # --- commit ordering ------------------------------------------------

    def head(self):
        """Next request in commit (emission) order, with its segment's
        timing transition applied."""
        if not self.queue:
            return None
        request = self.queue[0]
        self._apply_transition(request)
        return request

    def _apply_transition(self, request) -> None:
        if request.segment != self.cur_serial:
            # Entering a new segment: the effective start advances by the
            # nominal distance between segment bases (covers skipped empty
            # segments too, since bases are absolute).
            self.effective_start += request.seg_base - self.cur_base
            self.cur_serial = request.segment
            self.cur_base = request.seg_base

    def offset_of(self, request) -> int:
        return request.nominal - self.cur_base

    def ready_of(self, request) -> int:
        """Stall-adjusted earliest cycle for the head request."""
        return self.effective_start + self.offset_of(request)

    def commit(self, request, cycle: int) -> None:
        # Real exceptions, not asserts: these are the timing contract's
        # load-bearing invariants and must hold under ``python -O``.
        if not (self.queue and self.queue[0] is request):
            raise SimulationError(
                f"{self.module}: commit must target the queue head"
            )
        offset = self.offset_of(request)
        if cycle < self.effective_start + offset:
            raise SimulationError(
                f"{self.module}: commit at {cycle} before ready "
                f"{self.effective_start + offset}"
            )
        self.queue.popleft()
        self.effective_start = max(self.effective_start, cycle - offset)
        self.last_commit_time = max(self.last_commit_time, cycle)

    # --- stuck-resolution support ------------------------------------------

    def future_commit_bound(self, head_commit_bound: int) -> int:
        """Lower bound on the commit time of every event other than the
        head, given that the head cannot commit before
        ``head_commit_bound``.

        Same-segment successors have offsets >= the head's, so they commit
        at >= the head's commit.  Later segments (pipelined iterations or
        post-loop code) start at least 1 cycle after the current segment's
        effective start, i.e. at >= head_commit - head_offset + 1.  The
        bound is therefore ``head_commit_bound`` minus a *slack* that
        depends only on the head: ``max(0, offset - 1)`` inside a
        pipelined segment, 0 elsewhere.
        """
        if not self.queue:
            return INFINITY
        head = self.queue[0]
        self._apply_transition(head)
        if not head.pipelined:
            return head_commit_bound
        return head_commit_bound - max(0, self.offset_of(head) - 1)


def future_bounds(heads: dict) -> dict:
    """Fixpoint lower bound on each blocked module's next possible commit
    time: the guard that makes the earliest-query-false rule sound under
    elastic pipeline timing.

    ``heads`` maps a module key to ``(ready, slack, source)`` for its
    head request: its stall-adjusted ready cycle, the slack of
    :meth:`ModuleLedger.future_commit_bound`, and the key of the module
    that must commit first for a constraint-blocked blocking access
    (``None`` when the head waits on nobody).  Modules absent from
    ``heads`` have drained: no future commits.

    Each blocked head waits on at most one source, so the wait-for graph
    is functional: every chain is walked once, iteratively (a ring of N
    modules is an N-link chain), treating cycles — pure blocking
    deadlocks, which never commit — as unbounded.
    """
    bounds: dict = {}
    for start, (ready, slack, source) in heads.items():
        if source is None:  # the common case: a chain of one
            bounds[start] = ready - slack
            continue
        chain = []
        on_chain = set()
        key = start
        bound = INFINITY
        while key is not None:
            if key in bounds:
                bound = bounds[key]
                break
            if key not in heads or key in on_chain:
                break  # drained module / blocking cycle: unbounded
            chain.append(key)
            on_chain.add(key)
            key = heads[key][2]
        for key in reversed(chain):
            ready, slack, source = heads[key]
            if source is not None:
                ready = max(ready, min(bound + 1, INFINITY))
            bound = bounds[key] = min(ready - slack, INFINITY)
    return bounds
