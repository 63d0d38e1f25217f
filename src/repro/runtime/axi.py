"""AXI master port model.

Models the latency behaviour of a Vitis ``m_axi`` interface: a read burst
request committed at cycle c delivers beat i at ``c + read_latency + i``;
write beats are posted, and the write response arrives ``write_latency``
cycles after a burst's last beat commits.  Port contention is not modelled
(each port owns its channel).

Mirroring :class:`~repro.runtime.fifo.FifoChannel`, the functional view
(which value a beat carries) is resolved at *emission* time in program
order, while the timing view (when each request/beat commits) is resolved
by the driving engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import SimulationError


@dataclass(eq=False)
class _Burst:
    offset: int
    length: int
    #: index of this burst's first beat (0-based, cumulative across bursts)
    first_beat: int
    commit_cycle: int | None = None


@dataclass
class AxiPort:
    """State of one AXI master port and its backing memory."""

    name: str
    memory: list
    read_latency: int = 12
    write_latency: int = 6

    read_bursts: list = field(default_factory=list)
    write_bursts: list = field(default_factory=list)
    #: beats handed out at emission (functional view)
    emitted_read_beats: int = 0
    emitted_write_beats: int = 0
    #: commit cycle per beat (timing view)
    read_beat_times: list = field(default_factory=list)
    write_beat_times: list = field(default_factory=list)
    #: per-channel serialization (one transfer per channel per cycle)
    read_channel_time: int = -1
    write_channel_time: int = -1
    req_channel_time: int = -1

    # --- emission-time (functional) operations -----------------------------

    def emit_read_req(self, offset: int, length: int) -> int:
        """Register a read burst; returns its request index."""
        self._check_range("read", offset, length)
        first = (self.read_bursts[-1].first_beat + self.read_bursts[-1].length
                 if self.read_bursts else 0)
        self.read_bursts.append(_Burst(offset, length, first))
        return len(self.read_bursts) - 1

    def emit_read_beat(self) -> tuple[int, object]:
        """Hand out the next read beat; returns (beat_index, value)."""
        beat = self.emitted_read_beats
        burst = self._burst_of(self.read_bursts, beat, "read")
        value = self.memory[burst.offset + (beat - burst.first_beat)]
        self.emitted_read_beats += 1
        return beat, value

    def emit_write_req(self, offset: int, length: int) -> int:
        self._check_range("write", offset, length)
        first = (self.write_bursts[-1].first_beat
                 + self.write_bursts[-1].length
                 if self.write_bursts else 0)
        self.write_bursts.append(_Burst(offset, length, first))
        return len(self.write_bursts) - 1

    def emit_write_beat(self, value) -> int:
        """Apply the next write beat's value to memory; returns beat index."""
        beat = self.emitted_write_beats
        burst = self._burst_of(self.write_bursts, beat, "write")
        self.memory[burst.offset + (beat - burst.first_beat)] = value
        self.emitted_write_beats += 1
        return beat

    def emit_write_resp(self) -> int:
        """Associate a write_resp with the most recent fully-sent burst;
        returns that burst's index."""
        if not self.write_bursts:
            raise SimulationError(
                f"axi {self.name}: write_resp with no write burst"
            )
        burst_index = len(self.write_bursts) - 1
        burst = self.write_bursts[burst_index]
        if self.emitted_write_beats < burst.first_beat + burst.length:
            raise SimulationError(
                f"axi {self.name}: write_resp before all beats of the burst "
                "were sent"
            )
        return burst_index

    # --- commit-time (timing) operations ------------------------------------

    def commit_read_req(self, req_index: int, cycle: int) -> None:
        self.read_bursts[req_index].commit_cycle = cycle

    def commit_write_req(self, req_index: int, cycle: int) -> None:
        self.write_bursts[req_index].commit_cycle = cycle

    def read_beat_ready(self, beat: int) -> int | None:
        """Earliest cycle beat ``beat`` can be consumed, or None if its
        burst request has not committed yet."""
        burst = self._burst_of(self.read_bursts, beat, "read")
        if burst.commit_cycle is None:
            return None
        return burst.commit_cycle + self.read_latency + (beat
                                                         - burst.first_beat)

    def commit_read_beat(self, beat: int, cycle: int) -> None:
        assert len(self.read_beat_times) == beat
        self.read_beat_times.append(cycle)

    def commit_write_beat(self, beat: int, cycle: int) -> None:
        assert len(self.write_beat_times) == beat
        self.write_beat_times.append(cycle)

    def write_resp_ready(self, burst_index: int) -> int | None:
        """Cycle the response for ``burst_index`` arrives, or None if the
        burst's last beat has not committed yet."""
        burst = self.write_bursts[burst_index]
        last_beat = burst.first_beat + burst.length - 1
        if last_beat >= len(self.write_beat_times):
            return None
        return self.write_beat_times[last_beat] + self.write_latency

    # --- helpers ------------------------------------------------------------

    def _burst_of(self, bursts: list, beat: int, what: str) -> _Burst:
        for burst in reversed(bursts):
            if beat >= burst.first_beat:
                if beat < burst.first_beat + burst.length:
                    return burst
                break
        raise SimulationError(
            f"axi {self.name}: {what} beat {beat} outside any burst "
            "(missing or exhausted request)"
        )

    def _check_range(self, what: str, offset: int, length: int) -> None:
        if length <= 0:
            raise SimulationError(
                f"axi {self.name}: {what} burst length must be positive"
            )
        if offset < 0 or offset + length > len(self.memory):
            raise SimulationError(
                f"axi {self.name}: {what} burst [{offset}, {offset + length})"
                f" out of bounds (size {len(self.memory)})"
            )
