"""FIFO channel state and the FIFO read/write timing tables.

:class:`FifoChannel` is data structure (D) of the paper's Fig. 7: per FIFO
it records the exact hardware cycle of every committed read and write.
These tables are what the Perf Sim thread consults to resolve non-blocking
queries (paper Table 2) — deliberately *not* a simple occupancy counter,
because software thread scheduling order does not match hardware timing.

Two views of a FIFO are kept deliberately separate:

* the **functional** view: the sequence of successfully written values.
  For blocking accesses this is timing-independent (paper section 3.2.2),
  so values are recorded as soon as the access is *emitted* by a Func Sim
  thread, letting readers run ahead functionally;
* the **timing** view: the commit cycle of each access (the R/W tables),
  filled in as the Perf Sim thread resolves hardware timing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import SimulationError


@dataclass
class FifoChannel:
    """State of one FIFO: depth, value sequence, and the R/W timing tables."""

    name: str
    depth: int
    #: Values of all successful writes ever, in write-index order.  Appended
    #: when a blocking write is emitted or a non-blocking write resolves
    #: successfully.
    values: list = field(default_factory=list)
    #: 1-based index already handed out to emitted blocking reads.
    emitted_reads: int = 0
    #: Commit cycle of the i-th successful write (the write table).
    write_times: list = field(default_factory=list)
    #: Commit cycle of the i-th successful read (the read table).
    read_times: list = field(default_factory=list)
    #: Port-occupancy serialization: one access per port per cycle.  These
    #: track the last cycle each port was used (including *failed*
    #: non-blocking attempts, which still occupy the port).
    read_port_time: int = -1
    write_port_time: int = -1

    # --- functional (value) view ------------------------------------------

    def push_value(self, value) -> int:
        """Record a successful write's value; returns its 1-based index."""
        self.values.append(value)
        return len(self.values)

    def assign_read_index(self) -> int:
        """Reserve the next read index for an emitted blocking read."""
        self.emitted_reads += 1
        return self.emitted_reads

    def value_available(self, read_index: int) -> bool:
        return read_index <= len(self.values)

    def value_for(self, read_index: int):
        return self.values[read_index - 1]

    # --- timing (commit) view ------------------------------------------

    def commit_write(self, index: int, cycle: int) -> None:
        # A real exception, not an assert: the in-order-commit invariant
        # must hold under ``python -O`` too.
        if len(self.write_times) != index - 1:
            raise SimulationError(
                f"fifo {self.name}: out-of-order write commit "
                f"(index {index}, {len(self.write_times)} committed)"
            )
        self.write_times.append(cycle)

    def commit_read(self, index: int, cycle: int) -> None:
        if len(self.read_times) != index - 1:
            raise SimulationError(
                f"fifo {self.name}: out-of-order read commit "
                f"(index {index}, {len(self.read_times)} committed)"
            )
        self.read_times.append(cycle)

    def write_time(self, index: int) -> int | None:
        """Commit cycle of the 1-based ``index``-th write, if committed."""
        if 1 <= index <= len(self.write_times):
            return self.write_times[index - 1]
        return None

    def read_time(self, index: int) -> int | None:
        if 1 <= index <= len(self.read_times):
            return self.read_times[index - 1]
        return None

    # --- cycle-stepped occupancy view (used by the co-simulator) ----------

    def can_read_at(self, cycle: int) -> bool:
        """True if a read attempted at ``cycle`` finds data: some write
        committed strictly before ``cycle`` is still unconsumed."""
        writes = _count_before(self.write_times, cycle)
        return writes > len(self.read_times)

    def can_write_at(self, cycle: int) -> bool:
        """True if a write attempted at ``cycle`` finds space: occupancy
        (counting only reads strictly before ``cycle``) is below depth."""
        reads = _count_before(self.read_times, cycle)
        return len(self.write_times) - reads < self.depth

    # --- end-of-simulation reporting ------------------------------------

    def leftover(self) -> int:
        """Written values never consumed (for Vitis-style warnings)."""
        return len(self.values) - len(self.read_times)


def _count_before(times: list, cycle: int) -> int:
    """How many committed events happened strictly before ``cycle``.

    ``times`` is non-decreasing (each endpoint commits in time order), so a
    reverse scan from the end is cheap in the common case.
    """
    count = len(times)
    while count > 0 and times[count - 1] >= cycle:
        count -= 1
    return count
