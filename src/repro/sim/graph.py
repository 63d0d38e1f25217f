"""Partial simulation graph: the append-only event recorder (paper 7.3.1).

Nodes are committed hardware events carrying their timing-segment
metadata (segment serial, segment base, nominal cycle); the FIFO / AXI
node tables register which nodes are the N-th access of each channel
port.  The engines write into this structure while they execute — during
an OmniSim run node times are assigned eagerly (the engine *is* the
incremental longest-path computation).

Recomputing the times under new FIFO depths — the core of incremental
re-simulation (paper 7.2) — is not done here: edges are derived from the
recorded structure by the one scalar retiming kernel,
:class:`repro.trace.columnar.TraceArtifact` (edge classes, static/overlay
split and the all-depth order are documented there and in DESIGN section
14).  :meth:`SimulationGraph.retime` is a delegation to that kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Node kinds relevant to retiming.
K_OTHER = 0      # start/end/trace and failed queries (never stall)
K_READ = 1       # committed blocking read (stalls on RAW)
K_WRITE = 2      # committed blocking write (stalls on WAR)
K_AXI_READ = 3   # AXI read beat
K_AXI_RESP = 4   # AXI write response
K_NB_READ = 5    # successful NB read: consumes a value but never stalls
K_NB_WRITE = 6   # successful NB write: produces a value but never stalls


@dataclass
class FifoNodeTable:
    """Graph-node registry of one FIFO's committed accesses."""

    #: successful accesses in index order (for RAW/WAR edges)
    write_nodes: list = field(default_factory=list)
    read_nodes: list = field(default_factory=list)
    #: every port access incl. failed NB attempts (for +1 serialization)
    write_port_nodes: list = field(default_factory=list)
    read_port_nodes: list = field(default_factory=list)


@dataclass
class AxiNodeTable:
    """Graph-node registry of one AXI port's committed events."""

    #: (req_node, first_beat, length) per read burst
    read_bursts: list = field(default_factory=list)
    read_beat_nodes: list = field(default_factory=list)
    write_beat_nodes: list = field(default_factory=list)
    #: (resp_node, last_beat_index) per write response
    resp_nodes: list = field(default_factory=list)
    read_req_nodes: list = field(default_factory=list)
    write_req_nodes: list = field(default_factory=list)
    read_latency: int = 12
    write_latency: int = 6


class SimulationGraph:
    """Append-only event graph: what the engines record into."""

    def __init__(self):
        # Parallel arrays per node (adjacency-list style, 7.3.1).
        self.module_of: list[int] = []
        self.nominal: list[int] = []
        self.time: list[int] = []
        self.kind: list[int] = []
        self.seg_serial: list[int] = []
        self.seg_base: list[int] = []
        #: node ids per module, in emission order
        self.module_nodes: dict[int, list] = {}
        self._module_ids: dict[str, int] = {}
        self.module_names: list[str] = []
        self.fifo_tables: dict[str, FifoNodeTable] = {}
        self.axi_tables: dict[str, AxiNodeTable] = {}
        #: end-task node per module id
        self.end_nodes: dict[int, int] = {}
        #: fifo name -> element width in bits (for buffer-cost estimates);
        #: populated by the engine from the design's stream declarations
        self.fifo_widths: dict[str, int] = {}
        #: columnar view :meth:`retime` delegates to (rebuilt when nodes
        #: are appended)
        self._retime_view = None

    def module_id(self, name: str) -> int:
        mid = self._module_ids.get(name)
        if mid is None:
            mid = len(self.module_names)
            self._module_ids[name] = mid
            self.module_names.append(name)
            self.module_nodes[mid] = []
        return mid

    def fifo_table(self, fifo: str) -> FifoNodeTable:
        table = self.fifo_tables.get(fifo)
        if table is None:
            table = FifoNodeTable()
            self.fifo_tables[fifo] = table
        return table

    def axi_table(self, port: str) -> AxiNodeTable:
        table = self.axi_tables.get(port)
        if table is None:
            table = AxiNodeTable()
            self.axi_tables[port] = table
        return table

    def add_node(self, module: str, request, time: int,
                 kind: int = K_OTHER) -> int:
        """Append a committed event; returns its node id."""
        mid = self.module_id(module)
        node = len(self.time)
        self.module_of.append(mid)
        self.nominal.append(request.nominal)
        self.time.append(time)
        self.kind.append(kind)
        self.seg_serial.append(request.segment)
        self.seg_base.append(request.seg_base)
        self.module_nodes[mid].append(node)
        return node

    @property
    def node_count(self) -> int:
        return len(self.time)

    def retime(self, depths: dict[str, int]) -> list[int]:
        """Recompute all node times under new FIFO ``depths``.

        Returns the new time list; assumes the functional execution is
        unchanged (the caller re-validates recorded query constraints).
        Delegates to :meth:`repro.trace.columnar.TraceArtifact.retime`
        on a columnar view of this graph, cached until nodes are added.
        """
        view = self._retime_view
        if view is None or view.node_count != self.node_count:
            from ..trace.columnar import TraceArtifact

            view = self._retime_view = TraceArtifact.from_graph(self)
        return view.retime(depths)

    def total_cycles(self, times: list[int] | None = None) -> int:
        times = times if times is not None else self.time
        if not self.end_nodes:
            return max(times, default=0)
        return max(times[v] for v in self.end_nodes.values())

    def end_times(self, times: list[int] | None = None) -> dict[str, int]:
        """Per-module end-of-task commit cycle under ``times``."""
        times = times if times is not None else self.time
        return {self.module_names[mid]: times[node]
                for mid, node in self.end_nodes.items()}

    def buffer_bits(self, depths: dict[str, int],
                    default_width: int = 32) -> int:
        """Total FIFO storage in bits under ``depths`` (sum depth x width).

        The area half of the cycles-vs-area trade-off that depth-space
        exploration optimizes; FIFOs absent from :attr:`fifo_widths`
        (hand-built graphs) are costed at ``default_width``.
        """
        return sum(
            depth * self.fifo_widths.get(name, default_width)
            for name, depth in depths.items()
        )
