"""Machine-speed calibration.

The reference sandbox is a 2-vCPU VM on a shared host: the same Python
code runs 20-40 % slower for minutes at a time when a neighbour is busy
(wall and CPU time move together, steal stays near zero), and ten-second
medians of raw wall time spread by ~30 % between runs.  So every timed
op is bracketed by a fixed pure-Python kernel, and the op's wall is
divided by how slow the kernel ran just then.  Times read as "seconds
on a machine where the kernel takes :data:`REF_S`" — wall time on the
quiet reference box — and repeat within ~5 %.

The kernel mixes integer arithmetic with object, list and dict churn,
which is what the simulator's hot loops do.  It lives with the
benchmark, so a change to ``src/`` cannot move it.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager

#: the kernel's best wall on the quiet reference sandbox, seconds
REF_S = 0.0100


class _Node:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


def kernel() -> float:
    """Run the fixed calibration kernel; returns its wall in seconds."""
    start = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i % 7
    table: dict = {}
    items: list = []
    for i in range(20_000):
        node = _Node(i, (i, total))
        items.append(node)
        table[i & 1023] = node.b
        if len(items) > 256:
            items = []
    return time.perf_counter() - start


def slowdown() -> float:
    """How slow the machine is right now: 1.0 on the quiet reference
    box, 1.3 when the same code takes 30 % longer."""
    return kernel() / REF_S


class Timed:
    """``with Timed() as t:`` — the wall of the block, the machine's
    slowdown around it (mean of a sample taken before and one after),
    and ``t.seconds``, the first divided by the second."""

    def __enter__(self) -> "Timed":
        self._before = slowdown()
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.wall = time.perf_counter() - self._start
        self.slowdown = (self._before + slowdown()) / 2.0
        self.seconds = self.wall / self.slowdown


@contextmanager
def one_cpu():
    """Keep this process, and the children it starts meanwhile, on the
    CPU it is running on.  The two vCPUs of the reference box are not
    equally fast at any moment, so a child timed from here must run
    where the kernel that calibrates it runs."""
    allowed = os.sched_getaffinity(0)
    with open("/proc/self/stat", encoding="ascii") as fh:
        # field 39 of stat(5), counted after the parenthesised name
        current = int(fh.read().rsplit(")", 1)[1].split()[36])
    os.sched_setaffinity(0, {current})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)
