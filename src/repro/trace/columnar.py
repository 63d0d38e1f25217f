"""Columnar trace artifact: capture once, resimulate anywhere.

OmniSim's premise is "capture at C speed, resimulate at RTL accuracy" —
which makes the captured trace the central artifact of the whole system.
The engines record into the append-only
:class:`~repro.sim.graph.SimulationGraph`; :class:`TraceArtifact` is its
flat, struct-of-arrays form (the LightningSimV2/GSIM move: dense packed
state instead of per-node Python objects) and the home of the one scalar
retiming kernel:

* **node columns** — ``module_of``/``nominal``/``time``/``kind``/
  ``seg_serial``/``seg_base`` as ``array('q')``, plus a CSR view of the
  per-module node lists;
* **FIFO / AXI columns** — the graph-node registries flattened to
  integer arrays per channel, with the base depth and element width per
  FIFO;
* **constraint columns** — every recorded timing query as five parallel
  arrays (kind code, FIFO index, access index, outcome, node id);
* **static columns** — the depth-independent retiming edges in CSR form
  (``succ_ptr``/``succ_node``/``succ_weight``) plus the all-depth
  topological order, built once and *kept through pickling and
  serialization*, so pool workers and cache-warm processes never
  rebuild them;
* **functional payload** — scalars/buffers/AXI memories/stats of the
  capture run, so a cache-loaded artifact can stand in for the full
  baseline :class:`~repro.sim.result.SimulationResult`.

Retiming derives edges from the recorded structure rather than storing
them per node:

* **intra-segment chains**: consecutive events of one segment, weight =
  offset difference (in-order pipeline within an iteration);
* **segment propagation**: a virtual "segment end" node per segment
  collects ``commit - offset`` of its members (the iteration's *effective
  start*), and feeds the next segment's events with weight
  ``base_next - base_prev + offset`` — elastic pipelined-iteration timing;
* **RAW** (write #r -> read #r, weight 1) and **WAR**
  (read #(w-S) -> write #w, weight 1) FIFO edges — non-blocking accesses
  never stall, so they receive no incoming FIFO edges (their consistency
  is checked via constraints);
* **port serialization**: consecutive accesses on one FIFO port (or AXI
  channel) are one cycle apart minimum — including failed NB attempts;
* **AXI latency** edges: request -> beat (latency + beat offset), last
  beat -> write response (write latency).

Only **WAR** depends on the FIFO depths, so ``retime`` overlays those
per call on the static columns: a depth sweep pays O(WAR edges)
construction per configuration instead of O(graph).  This is the only
scalar implementation; :mod:`repro.trace.vectorized` is the batched one,
and both are tested against full OmniSim runs at the new depths.

Serialization (schema-versioned binary format, checksum, on-disk
content-addressed cache) lives in :mod:`repro.trace.store`.
"""

from __future__ import annotations

import time as _time
from array import array
from collections import deque
from dataclasses import dataclass, field

from ..errors import ConstraintViolation, SimulationError
from ..sim.graph import K_READ, K_WRITE
from ..sim.incremental import IncrementalResult
from ..sim.result import Constraint, SimulationResult, SimulationStats

#: constraint kind <-> small-int code for the constraint columns.
#: Codes 0-1 are the write-side queries (paper Table 2 left column);
#: codes 2-3 the read-side ones.  Order is part of the on-disk schema.
CONSTRAINT_KINDS = (
    "fifo_nb_write", "fifo_can_write", "fifo_nb_read", "fifo_can_read",
)
_KIND_CODE = {kind: code for code, kind in enumerate(CONSTRAINT_KINDS)}
_WRITE_QUERY_MAX_CODE = 1

#: default element width (bits) for FIFOs absent from the width table
#: (hand-built graphs) — must match ``SimulationGraph.buffer_bits``.
DEFAULT_FIFO_WIDTH = 32

_NEG_INF = -(1 << 62)


def _qarray(values=()) -> array:
    return array("q", values)


@dataclass
class FifoColumns:
    """One FIFO's committed accesses, flattened to node-id arrays."""

    name: str
    #: base depth of the capture run (the reference configuration)
    depth: int
    #: element width in bits (buffer-cost estimates)
    width: int = DEFAULT_FIFO_WIDTH
    #: successful accesses in index order (RAW/WAR edges)
    write_nodes: array = field(default_factory=_qarray)
    read_nodes: array = field(default_factory=_qarray)
    #: every port access incl. failed NB attempts (+1 serialization)
    write_port_nodes: array = field(default_factory=_qarray)
    read_port_nodes: array = field(default_factory=_qarray)


@dataclass
class AxiColumns:
    """One AXI port's committed events, flattened to node-id arrays."""

    name: str
    read_latency: int = 12
    write_latency: int = 6
    #: flattened ``(req_node, first_beat, length)`` triples
    read_bursts: array = field(default_factory=_qarray)
    #: flattened ``(resp_node, last_beat)`` pairs
    resp_nodes: array = field(default_factory=_qarray)
    read_beat_nodes: array = field(default_factory=_qarray)
    write_beat_nodes: array = field(default_factory=_qarray)
    read_req_nodes: array = field(default_factory=_qarray)
    write_req_nodes: array = field(default_factory=_qarray)


class TraceArtifact:
    """Flat, picklable, serializable form of one captured OmniSim run."""

    def __init__(self, design_name: str, executor: str):
        self.design_name = design_name
        #: Func Sim executor of the capture run (part of the cache key)
        self.executor = executor
        # -- node columns ----------------------------------------------
        self.module_of = _qarray()
        self.nominal = _qarray()
        self.time = _qarray()
        self.kind = _qarray()
        self.seg_serial = _qarray()
        self.seg_base = _qarray()
        self.module_names: list[str] = []
        #: CSR of per-module node lists (module id -> node ids)
        self.mod_ptr = _qarray([0])
        self.mod_nodes = _qarray()
        #: end-task node per module, as parallel (mid, node) arrays
        self.end_mids = _qarray()
        self.end_node_ids = _qarray()
        # -- channel columns -------------------------------------------
        self.fifos: list[FifoColumns] = []
        self.axis: list[AxiColumns] = []
        #: full base depth map of the capture run — every declared FIFO,
        #: including ones that recorded no accesses
        self.depths: dict[str, int] = {}
        self.widths: dict[str, int] = {}
        # -- constraint columns ----------------------------------------
        self.c_kind = _qarray()
        self.c_fifo = _qarray()
        self.c_index = _qarray()
        self.c_outcome = _qarray()
        self.c_node = _qarray()
        # -- functional payload ----------------------------------------
        self.scalars: dict = {}
        self.buffers: dict = {}
        self.axi_memories: dict = {}
        self.fifo_leftovers: dict = {}
        self.warnings: list = []
        self.stats: dict = {}
        # -- static columns (depth-independent retiming edges) ---------
        #: real + virtual (segment-end) node count; None = not built
        self.s_total: int | None = None
        self.s_base: array | None = None
        self.s_indegree: array | None = None
        self.s_succ_ptr: array | None = None
        self.s_succ_node: array | None = None
        self.s_succ_weight: array | None = None
        #: topological order valid for every depth configuration >= 1,
        #: or None when the depth-1 ordering graph is cyclic
        self.s_order: array | None = None
        self.s_has_order = False
        #: derived iteration view (lists/tuples) — never serialized
        self._view = None

    # ------------------------------------------------------------------
    # construction

    @classmethod
    def from_graph(cls, graph, design_name: str = "",
                   executor: str = "compiled",
                   depths: dict | None = None) -> "TraceArtifact":
        """Node + channel columns of a recorded
        :class:`~repro.sim.graph.SimulationGraph` — everything
        :meth:`retime` needs.  ``depths`` is the capture run's base
        depth map (absent for hand-built graphs)."""
        art = cls(design_name, executor)
        art.module_of = _qarray(graph.module_of)
        art.nominal = _qarray(graph.nominal)
        art.time = _qarray(graph.time)
        art.kind = _qarray(graph.kind)
        art.seg_serial = _qarray(graph.seg_serial)
        art.seg_base = _qarray(graph.seg_base)
        art.module_names = list(graph.module_names)
        mod_ptr = [0]
        mod_nodes: list[int] = []
        for mid in range(len(graph.module_names)):
            mod_nodes.extend(graph.module_nodes.get(mid, ()))
            mod_ptr.append(len(mod_nodes))
        art.mod_ptr = _qarray(mod_ptr)
        art.mod_nodes = _qarray(mod_nodes)
        for mid, node in graph.end_nodes.items():
            art.end_mids.append(mid)
            art.end_node_ids.append(node)
        art.depths = dict(depths or {})
        art.widths = dict(graph.fifo_widths)
        for name, table in graph.fifo_tables.items():
            art.fifos.append(FifoColumns(
                name=name,
                depth=art.depths.get(name, 1),
                width=art.widths.get(name, DEFAULT_FIFO_WIDTH),
                write_nodes=_qarray(table.write_nodes),
                read_nodes=_qarray(table.read_nodes),
                write_port_nodes=_qarray(table.write_port_nodes),
                read_port_nodes=_qarray(table.read_port_nodes),
            ))
        for name, table in graph.axi_tables.items():
            bursts = _qarray()
            for req, first, length in table.read_bursts:
                bursts.extend((req, first, length))
            resp = _qarray()
            for node, last in table.resp_nodes:
                resp.extend((node, last))
            art.axis.append(AxiColumns(
                name=name,
                read_latency=table.read_latency,
                write_latency=table.write_latency,
                read_bursts=bursts,
                resp_nodes=resp,
                read_beat_nodes=_qarray(table.read_beat_nodes),
                write_beat_nodes=_qarray(table.write_beat_nodes),
                read_req_nodes=_qarray(table.read_req_nodes),
                write_req_nodes=_qarray(table.write_req_nodes),
            ))
        return art

    @classmethod
    def from_result(cls, result: SimulationResult,
                    executor: str = "compiled") -> "TraceArtifact":
        """Build the columnar artifact from a captured OmniSim result:
        :meth:`from_graph` plus the constraint columns and the
        functional payload."""
        if result.graph is None or result.fifo_channels is None:
            raise SimulationError(
                "a trace artifact requires an OmniSim result (with graph "
                "and FIFO channels)"
            )
        art = cls.from_graph(
            result.graph, result.design_name, executor,
            {name: ch.depth for name, ch in result.fifo_channels.items()})
        fifo_index = {fc.name: i for i, fc in enumerate(art.fifos)}
        for c in result.constraints:
            art.c_kind.append(_KIND_CODE[c.kind])
            art.c_fifo.append(fifo_index[c.fifo])
            art.c_index.append(c.index)
            art.c_outcome.append(1 if c.outcome else 0)
            art.c_node.append(c.node_id)
        art.scalars = dict(result.scalars)
        art.buffers = {k: list(v) for k, v in result.buffers.items()}
        art.axi_memories = {k: list(v)
                            for k, v in result.axi_memories.items()}
        art.fifo_leftovers = dict(result.fifo_leftovers)
        art.warnings = list(result.warnings)
        stats = result.stats
        art.stats = {
            "events": stats.events,
            "queries": stats.queries,
            "queries_resolved_false_by_rule":
                stats.queries_resolved_false_by_rule,
            "instructions": stats.instructions,
            "blocks": stats.blocks,
        }
        return art

    # ------------------------------------------------------------------
    # cross-process shipping: static columns travel WITH the artifact;
    # only the cheap derived iteration view is rebuilt per process.

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_view"] = None
        # the vectorized batch plan (repro.trace.vectorized) holds NumPy
        # arrays and rebuilds cheaply; never ship it across processes
        state.pop("_vplan", None)
        return state

    # ------------------------------------------------------------------
    # basic shape

    @property
    def node_count(self) -> int:
        return len(self.time)

    def nbytes(self) -> int:
        """Approximate in-memory size of the integer columns (bytes)."""
        total = 0
        for _name, col in self.columns():
            total += len(col) * col.itemsize
        return total

    # ------------------------------------------------------------------
    # static edge build: every depth-independent edge, once

    def ensure_static(self) -> None:
        """Build the depth-independent CSR columns once (idempotent)."""
        if self.s_succ_ptr is None:
            self._build_static_columns()

    def _build_static_columns(self) -> None:
        """Intra-segment chains, segment propagation via virtual
        segment-end nodes, RAW FIFO edges, port-serialization chains and
        all AXI edges, flattened to CSR; only the WAR edges are left to
        the per-call overlay in :meth:`retime`."""
        n = self.node_count
        edges: list[tuple[int, int, int]] = []
        add_edge = edges.append
        # Virtual segment-end nodes are appended past the real nodes.
        base_value: list[int] = [0] * n
        next_virtual = n

        # --- structural edges per module -------------------------------
        nominal = self.nominal
        seg_serial = self.seg_serial
        seg_base = self.seg_base
        mod_ptr = self.mod_ptr
        mod_nodes = self.mod_nodes
        for mid in range(len(self.module_names)):
            prev_node = None
            prev_offset = 0
            prev_serial = None
            prev_base = 0
            segend = None
            for k in range(mod_ptr[mid], mod_ptr[mid + 1]):
                v = mod_nodes[k]
                offset = nominal[v] - seg_base[v]
                if prev_serial is None:
                    base_value[v] = nominal[v]
                    segend = next_virtual
                    next_virtual += 1
                    base_value.append(seg_base[v])
                elif seg_serial[v] != prev_serial:
                    delta = seg_base[v] - prev_base
                    new_segend = next_virtual
                    next_virtual += 1
                    base_value.append(_NEG_INF)
                    # effective start propagates: E_next = E_prev + delta
                    add_edge((segend, new_segend, delta))
                    add_edge((segend, v, delta + offset))
                    segend = new_segend
                else:
                    add_edge((prev_node, v, offset - prev_offset))
                # every event raises its segment's effective start
                add_edge((v, segend, -offset))
                prev_node, prev_offset = v, offset
                prev_serial = seg_serial[v]
                prev_base = seg_base[v]

        # --- depth-independent FIFO edges ------------------------------
        kind = self.kind
        for fc in self.fifos:
            writes = fc.write_nodes
            for r, read_node in enumerate(fc.read_nodes, start=1):
                # NB accesses never stall; validated via constraints.
                if kind[read_node] == K_READ:
                    add_edge((writes[r - 1], read_node, 1))  # RAW
            for chain in (fc.write_port_nodes, fc.read_port_nodes):
                for a, b in zip(chain, chain[1:]):
                    add_edge((a, b, 1))  # one access per port per cycle

        # --- AXI edges --------------------------------------------------
        for ax in self.axis:
            beats = ax.read_beat_nodes
            bursts = ax.read_bursts
            for i in range(0, len(bursts), 3):
                req_node, first_beat, length = (
                    bursts[i], bursts[i + 1], bursts[i + 2]
                )
                for j in range(length):
                    beat_index = first_beat + j
                    if beat_index < len(beats):
                        add_edge((req_node, beats[beat_index],
                                  ax.read_latency + j))
            resp = ax.resp_nodes
            for i in range(0, len(resp), 2):
                add_edge((ax.write_beat_nodes[resp[i + 1]], resp[i],
                          ax.write_latency))
            for chain in (ax.read_beat_nodes, ax.write_beat_nodes,
                          ax.read_req_nodes, ax.write_req_nodes):
                for a, b in zip(chain, chain[1:]):
                    add_edge((a, b, 1))

        # --- flatten to CSR columns ------------------------------------
        total = next_virtual
        counts = [0] * (total + 1)
        indegree = [0] * total
        for u, v, _w in edges:
            counts[u + 1] += 1
            indegree[v] += 1
        succ_ptr = counts
        for i in range(1, total + 1):
            succ_ptr[i] += succ_ptr[i - 1]
        succ_node = [0] * len(edges)
        succ_weight = [0] * len(edges)
        cursor = succ_ptr[:-1].copy()
        for u, v, w in edges:
            k = cursor[u]
            succ_node[k] = v
            succ_weight[k] = w
            cursor[u] = k + 1

        self.s_total = total
        self.s_base = _qarray(base_value)
        self.s_indegree = _qarray(indegree)
        self.s_succ_ptr = _qarray(succ_ptr)
        self.s_succ_node = _qarray(succ_node)
        self.s_succ_weight = _qarray(succ_weight)
        order = self._build_order_column()
        self.s_has_order = order is not None
        self.s_order = _qarray(order) if order is not None else _qarray()
        self._view = None

    def _build_order_column(self) -> list | None:
        """Topological order covering every depth configuration at once.

        A WAR edge ``read #(w-S) -> write #w`` is order-implied by the
        depth-1 WAR pair ``read #(w-S) -> write #(w-S+1)`` followed by the
        (static) write-port serialization chain up to write ``#w``.  So a
        topological order of the static graph augmented with *all* depth-1
        WAR ordering pairs is a valid relaxation order for every
        ``depths >= 1`` — and its existence proves no such configuration
        can deadlock the graph.  The augmentation deliberately ignores
        the ``K_WRITE`` filter that real WAR overlays apply: the chain
        through write #(w-S+1) must hold even when that write is a
        non-stalling NB access, otherwise the implication breaks.  The
        cost is conservatism — a cycle through such a pair forces the
        per-call Kahn fallback (returns None) even though no real
        overlay may ever be cyclic, e.g. for recorded runs whose depth-1
        variant would deadlock.
        """
        total = self.s_total
        indegree = list(self.s_indegree)
        aug: dict[int, list[int]] = {}
        for fc in self.fifos:
            writes = fc.write_nodes
            for r, read_node in enumerate(fc.read_nodes, start=1):
                if r < len(writes):
                    aug.setdefault(read_node, []).append(writes[r])
                    indegree[writes[r]] += 1
        succ_ptr = self.s_succ_ptr
        succ_node = self.s_succ_node
        aug_get = aug.get
        order: list[int] = []
        queue = deque(v for v in range(total) if indegree[v] == 0)
        while queue:
            u = queue.popleft()
            order.append(u)
            for k in range(succ_ptr[u], succ_ptr[u + 1]):
                v = succ_node[k]
                indegree[v] -= 1
                if indegree[v] == 0:
                    queue.append(v)
            extra = aug_get(u)
            if extra is not None:
                for v in extra:
                    indegree[v] -= 1
                    if indegree[v] == 0:
                        queue.append(v)
        return order if len(order) == total else None

    # ------------------------------------------------------------------
    # derived iteration view: the CSR columns are the persistent form;
    # the relaxation loop wants per-node adjacency tuples (PR 1's
    # iteration-friendly shape).  Rebuilt per process from the columns —
    # a zip + slicing pass, orders cheaper than the full edge build.

    def _iter_view(self):
        view = self._view
        if view is None:
            self.ensure_static()
            succ_ptr = self.s_succ_ptr
            # Box the columns into lists before zipping: the pair
            # tuples then hold compactly-allocated ints (boxing straight
            # out of array('q') measurably hurts sweep locality).
            pairs_flat = list(zip(list(self.s_succ_node),
                                  list(self.s_succ_weight)))
            succ_pairs = [
                tuple(pairs_flat[succ_ptr[u]:succ_ptr[u + 1]])
                for u in range(self.s_total)
            ]
            base = list(self.s_base)
            indegree = list(self.s_indegree)
            if self.s_has_order:
                # Only overlay-eligible nodes (successful FIFO reads —
                # the only possible WAR edge sources) must appear in the
                # sweep even with no static successors; everything else
                # with an empty adjacency relaxes nothing and is skipped.
                may_overlay = set()
                for fc in self.fifos:
                    may_overlay.update(fc.read_nodes)
                sweep = [
                    (u, succ_pairs[u]) for u in self.s_order
                    if succ_pairs[u] or u in may_overlay
                ]
            else:
                sweep = None
            # Hot-loop list views: indexing an array('q') boxes a fresh
            # int per access; the WAR-overlay loop indexes the kind and
            # FIFO node columns per write, so it iterates plain lists.
            kind_list = list(self.kind)
            fifo_views = [
                (fc.name, list(fc.write_nodes), list(fc.read_nodes))
                for fc in self.fifos
            ]
            view = (sweep, succ_pairs, base, indegree, kind_list,
                    fifo_views)
            self._view = view
        return view

    # ------------------------------------------------------------------
    # retiming

    def _check_depths(self, depths: dict) -> None:
        """Every recorded FIFO needs a depth and every depth is >= 1 —
        what the all-depth order (and a physical FIFO) assumes."""
        missing = sorted(fc.name for fc in self.fifos
                         if fc.name not in depths)
        if missing:
            raise SimulationError(f"no depth given for FIFO(s): {missing}")
        for name, depth in depths.items():
            if depth < 1:
                raise SimulationError(f"fifo {name}: depth must be >= 1")

    def retime(self, depths: dict) -> list[int]:
        """Recompute all node times under new FIFO ``depths``.

        ``depths`` must be the fully resolved map (every FIFO with
        recorded accesses present, every depth >= 1 — anything else is
        a :class:`~repro.errors.SimulationError`).  Assumes the
        functional execution is unchanged; the caller re-validates the
        recorded query constraints.  Returns the new time list for real
        nodes.
        """
        self._check_depths(depths)
        (sweep, succ_pairs, base, indegree_base, kind,
         fifo_views) = self._iter_view()
        total = self.s_total

        # --- per-depth WAR overlay: the only depth-dependent edges ------
        # A node-indexed list, not a dict: the sweep probes it once per
        # node, and a BINARY_SUBSCR beats a dict.get call on that path.
        overlay: list = [None] * total
        overlay_sources: list[int] = []
        for name, writes, reads in fifo_views:
            depth = depths[name]
            for w in range(depth + 1, len(writes) + 1):
                write_node = writes[w - 1]
                if kind[write_node] == K_WRITE:
                    read_node = reads[w - depth - 1]  # frees the slot
                    targets = overlay[read_node]
                    if targets is None:
                        overlay[read_node] = [write_node]
                        overlay_sources.append(read_node)
                    else:
                        targets.append(write_node)

        new_time = base[:]

        if sweep is not None:
            # Fast path: one relaxation sweep over the precomputed
            # (node, adjacency) pairs — no indegree bookkeeping, no
            # queue, no cycle check (the order's existence proves every
            # configuration acyclic).
            for u, pairs in sweep:
                time_u = new_time[u]
                for v, w in pairs:
                    cand = time_u + w
                    if cand > new_time[v]:
                        new_time[v] = cand
                extra = overlay[u]
                if extra is not None:
                    cand = time_u + 1  # WAR edges always have weight 1
                    for v in extra:
                        if cand > new_time[v]:
                            new_time[v] = cand
            return new_time[:self.node_count]

        # --- Kahn longest-path fallback (order graph was cyclic) --------
        indegree = indegree_base[:]
        for u in overlay_sources:
            for v in overlay[u]:
                indegree[v] += 1
        queue = deque(v for v in range(total) if indegree[v] == 0)
        visited = 0
        while queue:
            u = queue.popleft()
            visited += 1
            time_u = new_time[u]
            for v, w in succ_pairs[u]:
                cand = time_u + w
                if cand > new_time[v]:
                    new_time[v] = cand
                indegree[v] -= 1
                if indegree[v] == 0:
                    queue.append(v)
            extra = overlay[u]
            if extra is not None:
                cand = time_u + 1
                for v in extra:
                    if cand > new_time[v]:
                        new_time[v] = cand
                    indegree[v] -= 1
                    if indegree[v] == 0:
                        queue.append(v)
        if visited != total:
            raise SimulationError(
                "simulation graph became cyclic under the new FIFO depths "
                "(the configuration deadlocks); full re-simulation required"
            )
        return new_time[:self.node_count]

    # ------------------------------------------------------------------
    # incremental re-simulation

    def resimulate(self, new_depths: dict) -> IncrementalResult:
        """Re-derive the capture's cycle count under new FIFO depths.

        Unmentioned FIFOs keep the capture depth; raises
        :class:`~repro.errors.ConstraintViolation` when a recorded query
        flips, :class:`~repro.errors.SimulationError` on unknown names,
        depths < 1, or a configuration that deadlocks the recording.
        """
        start = _time.perf_counter()
        depths = dict(self.depths)
        unknown = set(new_depths) - set(depths)
        if unknown:
            raise SimulationError(
                f"unknown FIFO name(s): {sorted(unknown)}"
            )
        depths.update(new_depths)
        times = self.retime(depths)
        self._validate_constraints(times, depths)
        seconds = _time.perf_counter() - start
        return IncrementalResult(
            cycles=self.total_cycles(times),
            seconds=seconds,
            depths=depths,
            constraints_checked=len(self.c_node),
            module_end_times=self.end_times(times),
            buffer_bits=self.buffer_bits(depths),
        )

    def _validate_constraints(self, times: list, depths: dict) -> None:
        """Table 2 re-validation of every recorded query under the new
        times and depths (iterates the constraint columns)."""
        kinds = self.c_kind
        fifo_ids = self.c_fifo
        indices = self.c_index
        outcomes = self.c_outcome
        nodes = self.c_node
        fifos = self.fifos
        for i in range(len(nodes)):
            fc = fifos[fifo_ids[i]]
            depth = depths[fc.name]
            source_time = times[nodes[i]]
            code = kinds[i]
            index = indices[i]
            if code <= _WRITE_QUERY_MAX_CODE:  # nb_write / can_write
                if index <= depth:
                    outcome = True
                else:
                    target = index - depth
                    if target <= len(fc.read_nodes):
                        outcome = source_time > times[fc.read_nodes[
                            target - 1]]
                    else:
                        outcome = False  # the freeing read never happened
            else:  # nb_read / can_read
                if index <= len(fc.write_nodes):
                    outcome = source_time > times[fc.write_nodes[
                        index - 1]]
                else:
                    outcome = False  # the awaited write never happened
            recorded = bool(outcomes[i])
            if outcome != recorded:
                kind = CONSTRAINT_KINDS[code]
                raise ConstraintViolation(
                    f"query {kind} on '{fc.name}' "
                    f"(access #{index}) resolved "
                    f"{recorded} in the recorded run but would "
                    f"resolve {outcome} with depths {depths}; full "
                    "re-simulation required",
                    query=Constraint(kind, fc.name, index, recorded,
                                     nodes[i]),
                    depths=depths,
                )

    # ------------------------------------------------------------------
    # aggregates

    def total_cycles(self, times=None) -> int:
        times = times if times is not None else self.time
        if not len(self.end_node_ids):
            return max(times, default=0)
        return max(times[v] for v in self.end_node_ids)

    def end_times(self, times=None) -> dict[str, int]:
        """Per-module end-of-task commit cycle under ``times``."""
        times = times if times is not None else self.time
        return {
            self.module_names[self.end_mids[i]]: times[self.end_node_ids[i]]
            for i in range(len(self.end_mids))
        }

    def buffer_bits(self, depths: dict,
                    default_width: int = DEFAULT_FIFO_WIDTH) -> int:
        """Total FIFO storage in bits under ``depths`` (depth x width)."""
        widths = self.widths
        return sum(
            depth * widths.get(name, default_width)
            for name, depth in depths.items()
        )

    # ------------------------------------------------------------------
    # interop with the object world

    def constraints_list(self) -> list[Constraint]:
        """Materialize the constraint columns back into
        :class:`~repro.sim.result.Constraint` objects."""
        fifos = self.fifos
        return [
            Constraint(CONSTRAINT_KINDS[self.c_kind[i]],
                       fifos[self.c_fifo[i]].name,
                       self.c_index[i],
                       bool(self.c_outcome[i]),
                       self.c_node[i])
            for i in range(len(self.c_node))
        ]

    def to_result(self) -> SimulationResult:
        """Reconstruct a baseline-equivalent
        :class:`~repro.sim.result.SimulationResult`: functional payload
        plus this artifact as the replay state.  There is no object
        graph, and ``fifo_channels`` holds depth-only stand-in channels
        (the documented ``{name: ch.depth}`` consumer pattern works;
        the per-access R/W timing tables live in the columns here)."""
        from ..runtime.fifo import FifoChannel

        return SimulationResult(
            design_name=self.design_name,
            simulator="omnisim",
            cycles=self.total_cycles(),
            scalars=dict(self.scalars),
            buffers={k: list(v) for k, v in self.buffers.items()},
            axi_memories={k: list(v) for k, v in self.axi_memories.items()},
            module_end_times=self.end_times(),
            fifo_leftovers=dict(self.fifo_leftovers),
            stats=SimulationStats(**self.stats),
            warnings=list(self.warnings),
            constraints=self.constraints_list(),
            fifo_channels={name: FifoChannel(name=name, depth=depth)
                           for name, depth in self.depths.items()},
            trace=self,
        )

    # ------------------------------------------------------------------
    # serialization support (the store flattens these; see store.py)

    def meta_dict(self) -> dict:
        """JSON-serializable scalar/str metadata (no integer columns)."""
        return {
            "design_name": self.design_name,
            "executor": self.executor,
            "module_names": list(self.module_names),
            "depths": dict(self.depths),
            "widths": dict(self.widths),
            "fifos": [
                {"name": fc.name, "depth": fc.depth, "width": fc.width}
                for fc in self.fifos
            ],
            "axis": [
                {"name": ax.name, "read_latency": ax.read_latency,
                 "write_latency": ax.write_latency}
                for ax in self.axis
            ],
            "functional": {
                "scalars": self.scalars,
                "buffers": self.buffers,
                "axi_memories": self.axi_memories,
                "fifo_leftovers": self.fifo_leftovers,
                "warnings": self.warnings,
                "stats": self.stats,
            },
            "static": {
                "built": self.s_succ_ptr is not None,
                "total": self.s_total,
                "has_order": self.s_has_order,
            },
        }

    _FIFO_COLUMNS = ("write_nodes", "read_nodes",
                     "write_port_nodes", "read_port_nodes")
    _AXI_COLUMNS = ("read_bursts", "resp_nodes", "read_beat_nodes",
                    "write_beat_nodes", "read_req_nodes", "write_req_nodes")
    _NODE_COLUMNS = ("module_of", "nominal", "time", "kind",
                     "seg_serial", "seg_base", "mod_ptr", "mod_nodes",
                     "end_mids", "end_node_ids")
    _CONSTRAINT_COLUMNS = ("c_kind", "c_fifo", "c_index",
                           "c_outcome", "c_node")
    _STATIC_COLUMNS = ("s_base", "s_indegree", "s_succ_ptr",
                       "s_succ_node", "s_succ_weight", "s_order")

    def columns(self):
        """Yield ``(name, array)`` for every integer column, in schema
        order (the store serializes exactly this sequence)."""
        for name in self._NODE_COLUMNS + self._CONSTRAINT_COLUMNS:
            yield name, getattr(self, name)
        for i, fc in enumerate(self.fifos):
            for col in self._FIFO_COLUMNS:
                yield f"fifo{i}.{col}", getattr(fc, col)
        for i, ax in enumerate(self.axis):
            for col in self._AXI_COLUMNS:
                yield f"axi{i}.{col}", getattr(ax, col)
        if self.s_succ_ptr is not None:
            for name in self._STATIC_COLUMNS:
                yield name, getattr(self, name)

    @classmethod
    def from_serial(cls, meta: dict, columns: dict) -> "TraceArtifact":
        """Inverse of ``meta_dict``/``columns`` (store load side)."""
        art = cls(meta["design_name"], meta["executor"])
        art.module_names = list(meta["module_names"])
        art.depths = {str(k): int(v) for k, v in meta["depths"].items()}
        art.widths = {str(k): int(v) for k, v in meta["widths"].items()}
        for name in cls._NODE_COLUMNS + cls._CONSTRAINT_COLUMNS:
            setattr(art, name, columns[name])
        for i, fd in enumerate(meta["fifos"]):
            art.fifos.append(FifoColumns(
                name=str(fd["name"]), depth=int(fd["depth"]),
                width=int(fd["width"]),
                **{col: columns[f"fifo{i}.{col}"]
                   for col in cls._FIFO_COLUMNS},
            ))
        for i, ad in enumerate(meta["axis"]):
            art.axis.append(AxiColumns(
                name=str(ad["name"]),
                read_latency=int(ad["read_latency"]),
                write_latency=int(ad["write_latency"]),
                **{col: columns[f"axi{i}.{col}"]
                   for col in cls._AXI_COLUMNS},
            ))
        fn = meta["functional"]
        art.scalars = dict(fn["scalars"])
        art.buffers = {k: list(v) for k, v in fn["buffers"].items()}
        art.axi_memories = {k: list(v)
                            for k, v in fn["axi_memories"].items()}
        art.fifo_leftovers = dict(fn["fifo_leftovers"])
        art.warnings = list(fn["warnings"])
        art.stats = dict(fn["stats"])
        static = meta["static"]
        if static["built"]:
            art.s_total = int(static["total"])
            art.s_has_order = bool(static["has_order"])
            for name in cls._STATIC_COLUMNS:
                setattr(art, name, columns[name])
            if not art.s_has_order:
                art.s_order = _qarray()
        return art

    def __repr__(self) -> str:
        return (f"TraceArtifact({self.design_name!r}, "
                f"executor={self.executor!r}, nodes={self.node_count}, "
                f"fifos={len(self.fifos)}, "
                f"constraints={len(self.c_node)}, "
                f"static={'built' if self.s_succ_ptr is not None else 'lazy'})")


def replay_trace(result, executor: str = "compiled"
                 ) -> TraceArtifact | None:
    """The columnar replay handle of a result.

    Returns ``result.trace`` when present; otherwise builds (and
    attaches) an artifact from the object graph when the result carries
    one, or ``None`` when the result has no replay state at all.  This
    lazy derivation is how capture "emits" the artifact: runs that never
    replay never pay the column build.  ``executor`` labels a
    newly-built artifact (cache-key relevant metadata; ignored when the
    artifact already exists).
    """
    trace = getattr(result, "trace", None)
    if trace is not None:
        return trace
    if getattr(result, "graph", None) is None:
        return None
    if getattr(result, "fifo_channels", None) is None:
        return None  # base depths unknown: cannot build a replay handle
    trace = TraceArtifact.from_result(result, executor=executor)
    result.trace = trace
    return trace
