"""Static latency estimation: the "C synthesis report" substrate.

After scheduling, HLS tools report a static latency estimate per module.
As the paper stresses (section 1), these estimates are often inaccurate or
unavailable ("?") for designs with variable loop bounds, infinite loops, or
data-dependent control flow - which is precisely why dynamic simulation is
needed.  We reproduce that behaviour: the estimate assumes every branch
takes its longest arm, loops run for their static trip hint, and any loop
without a static trip count makes the whole estimate unknown.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..ir.function import BasicBlock, Function, LoopMeta
from .scheduler import ModuleSchedule


@dataclass(frozen=True)
class StaticLatency:
    """Result of the static estimate: cycles, or unknown."""

    cycles: int | None

    @property
    def known(self) -> bool:
        return self.cycles is not None

    def __str__(self) -> str:
        return str(self.cycles) if self.known else "?"


def estimate_function_latency(schedule: ModuleSchedule) -> StaticLatency:
    """Best-effort static latency of one module, computed once per
    schedule and kept on it."""
    if schedule.static_latency is None:
        function = schedule.function
        try:
            cycles = _region_latency(function, schedule, function.entry,
                                     stop=None, loop=None, memo={})
        except _Unknown:
            cycles = None
        schedule.static_latency = StaticLatency(cycles)
    return schedule.static_latency


class _Unknown(Exception):
    """Raised when the estimate cannot be determined statically."""


def _loop_of_header(function: Function, block: BasicBlock) -> LoopMeta | None:
    for loop in function.loops:
        if loop.header is block:
            return loop
    return None


def _region_latency(function: Function, schedule: ModuleSchedule,
                    start: BasicBlock, stop: BasicBlock | None,
                    loop: LoopMeta | None, memo: dict,
                    _depth: int = 0) -> int:
    """Longest path latency from ``start`` until ``stop`` (exclusive),
    collapsing loops into single super-nodes.

    ``memo`` (one dict per estimate) caches the answer per
    ``(start, stop, loop)``: both arms of an if/else reconverge on the
    same join block, so without it a chain of N sequential diamonds
    costs 2**N walks of the tail."""
    if _depth > 10000:
        raise _Unknown
    if start is stop or start is None:
        return 0
    key = (start, stop, loop and loop.header)
    if key in memo:
        return memo[key]
    header_loop = _loop_of_header(function, start)
    if header_loop is not None and header_loop is not loop:
        latency = _loop_latency(function, schedule, header_loop, memo)
        rest = _region_latency(function, schedule, header_loop.exit,
                               stop, loop, memo, _depth + 1)
    else:
        latency = schedule.for_block(start).latency
        rest = 0
        for succ in start.successors():
            # A back edge ends this iteration's path, and so does a
            # break out of the loop.
            if loop is None or (succ is not loop.header
                                and succ in loop.blocks):
                rest = max(rest, _region_latency(
                    function, schedule, succ, stop, loop, memo,
                    _depth + 1))
    memo[key] = latency + rest
    return latency + rest


def _loop_latency(function: Function, schedule: ModuleSchedule,
                  loop: LoopMeta, memo: dict) -> int:
    trips = loop.trip_hint
    if trips is None:
        raise _Unknown
    if trips == 0:
        return schedule.for_block(loop.header).latency
    iteration = _iteration_latency(function, schedule, loop, memo)
    if loop.pipelined:
        return (trips - 1) * loop.ii + iteration
    return trips * iteration + schedule.for_block(loop.header).latency


def _iteration_latency(function: Function, schedule: ModuleSchedule,
                       loop: LoopMeta, memo: dict) -> int:
    """Longest path through one iteration (header included)."""
    return schedule.for_block(loop.header).latency + max(
        (_region_latency(function, schedule, succ, None, loop, memo)
         for succ in loop.header.successors() if succ in loop.blocks),
        default=0,
    )
