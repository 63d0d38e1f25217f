"""Columnar trace artifact: capture once, resimulate anywhere.

OmniSim's premise is "capture at C speed, resimulate at RTL accuracy" —
which makes the captured trace the central artifact of the whole system.
:class:`TraceArtifact` is the paper's partial simulation graph (7.3.1):
adjacency-list-style parallel columns the engines append to *while they
run*, and the same object every consumer replays, pickles and stores —
one structure, written once, read many times (the LightningSimV2/GSIM
move: dense packed state instead of per-node Python objects).  It is
also the home of the one scalar retiming kernel:

* **node columns** — ``module_of``/``nominal``/``time``/``kind``, plus
  a CSR view of the per-module node lists (derived from ``module_of`` on
  first use);
* **FIFO / AXI columns** — per channel, which nodes are the N-th access
  of each port (base depths and element widths are the artifact-wide
  ``depths``/``widths`` maps);
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

Columns are plain lists while an engine records (``list.append`` is the
cheapest per-event write CPython has) and ``array('q')`` once loaded
from the store or a pickle; :meth:`TraceArtifact.columns` packs to
``array('q')`` where bytes are actually needed.  Every reader works on
either.

Retiming derives edges from the recorded structure rather than storing
them per node:

* **module chains**: consecutive events of one module in emission
  order, weight = nominal distance ``nominal[v] - nominal[prev]`` — the
  offset difference inside a segment, and across a segment boundary the
  ledger's elastic rule ``E_next = E_prev + (base_next - base_prev)``
  with no node for the *effective start* E.  A node ``S = max_i(t(v_i)
  - o_i)`` per segment (events ``v_i`` at offsets ``o_i``) adds nothing:
  (i) the chain makes ``t(v_i) - o_i`` non-decreasing, so ``t(S) =
  t(v_m) - o_m``, its last event's; (ii) the carried-in start reaches
  ``S`` through ``v_1`` at the same weight, and the module's first start
  is below ``t(v_1) - o_1`` because ``t(v_1) >= nominal_1``; (iii) so
  all ``S`` tells the next segment is ``t(v_1') >= t(v_m) - o_m + delta
  + o_1' = t(v_m) + nominal(v_1') - nominal(v_m)`` — the chain edge,
  negative where pipelined iterations overlap (no sign is assumed);
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

import dataclasses
import threading
import time as _time
from array import array
from collections import Counter, deque
from dataclasses import dataclass, field
from itertools import accumulate

from ..errors import ConstraintViolation, SimulationError
from ..sim.result import (
    Constraint,
    IncrementalResult,
    SimulationResult,
    SimulationStats,
)

#: Node kinds, as the retiming kernel interprets them.
K_OTHER = 0      # start/end/trace and failed queries (never stall)
K_READ = 1       # committed blocking read (stalls on RAW)
K_WRITE = 2      # committed blocking write (stalls on WAR)
K_AXI_READ = 3   # AXI read beat
K_AXI_RESP = 4   # AXI write response
K_NB_READ = 5    # successful NB read: consumes a value but never stalls
K_NB_WRITE = 6   # successful NB write: produces a value but never stalls

#: constraint kind <-> small-int code for the constraint columns.
#: Codes 0-1 are the write-side queries (paper Table 2 left column);
#: codes 2-3 the read-side ones.  Order is part of the on-disk schema,
#: and the request codes of :mod:`repro.runtime.requests` follow it
#: (a query's constraint code is ``request.code - NB_WRITE``).
CONSTRAINT_KINDS = (
    "fifo_nb_write", "fifo_can_write", "fifo_nb_read", "fifo_can_read",
)
_WRITE_QUERY_MAX_CODE = 1

#: default element width (bits) for FIFOs absent from the width table
#: (hand-built artifacts)
DEFAULT_FIFO_WIDTH = 32


def _qarray(values=()) -> array:
    return array("q", values)


def _packed(col) -> array:
    """``col`` as ``array('q')`` (recorded columns are lists)."""
    return col if isinstance(col, array) else array("q", col)


@dataclass
class FifoColumns:
    """One FIFO's committed accesses, as node-id columns."""

    name: str
    #: position in ``TraceArtifact.fifos`` (the constraint columns' id)
    index: int
    #: successful accesses in index order (RAW/WAR edges)
    write_nodes: list = field(default_factory=list)
    read_nodes: list = field(default_factory=list)
    #: every port access incl. failed NB attempts (+1 serialization)
    write_port_nodes: list = field(default_factory=list)
    read_port_nodes: list = field(default_factory=list)

    def add_write(self, node: int, success: bool = True) -> None:
        """Register a write-port access; a failed NB attempt occupies
        the port for its cycle but is no write in the index order."""
        self.write_port_nodes.append(node)
        if success:
            self.write_nodes.append(node)

    def add_read(self, node: int, success: bool = True) -> None:
        """Register a read-port access (see :meth:`add_write`)."""
        self.read_port_nodes.append(node)
        if success:
            self.read_nodes.append(node)


@dataclass
class AxiColumns:
    """One AXI port's committed events, as node-id columns."""

    name: str
    read_latency: int = 12
    write_latency: int = 6
    #: flattened ``(req_node, first_beat, length)`` triples
    read_bursts: list = field(default_factory=list)
    #: flattened ``(resp_node, last_beat)`` pairs
    resp_nodes: list = field(default_factory=list)
    read_beat_nodes: list = field(default_factory=list)
    write_beat_nodes: list = field(default_factory=list)
    read_req_nodes: list = field(default_factory=list)
    write_req_nodes: list = field(default_factory=list)

    def add_read_req(self, node: int, first_beat: int,
                     length: int) -> None:
        """Register a read request and the beats its burst covers."""
        self.read_req_nodes.append(node)
        self.read_bursts.extend((node, first_beat, length))

    def add_write_resp(self, node: int, first_beat: int,
                       length: int) -> None:
        """Register the write response of the burst
        ``[first_beat, first_beat + length)``: it waits on the last
        beat."""
        self.resp_nodes.extend((node, first_beat + length - 1))


class TraceArtifact:
    """One captured run: the recorder the engines append to and the
    flat, picklable, serializable form everything replays."""

    def __init__(self, design_name: str = "", executor: str = "compiled"):
        self.design_name = design_name
        #: Func Sim executor of the capture run (part of the cache key)
        self.executor = executor
        # -- node columns ----------------------------------------------
        self.module_of: list = []
        self.nominal: list = []
        self.time: list = []
        self.kind: list = []
        self.module_names: list[str] = []
        #: CSR of per-module node lists (module id -> node ids),
        #: derived from ``module_of`` by :meth:`_sync`
        self.mod_ptr: list = [0]
        self.mod_nodes: list = []
        #: end-task node per module, as parallel (mid, node) arrays
        self.end_mids: list = []
        self.end_node_ids: list = []
        # -- channel columns -------------------------------------------
        self.fifos: list[FifoColumns] = []
        self.axis: list[AxiColumns] = []
        #: full base depth map of the capture run — every declared FIFO,
        #: including ones that recorded no accesses
        self.depths: dict[str, int] = {}
        self.widths: dict[str, int] = {}
        # -- constraint columns ----------------------------------------
        self.c_kind: list = []
        self.c_fifo: list = []
        self.c_index: list = []
        self.c_outcome: list = []
        self.c_node: list = []
        # -- functional payload ----------------------------------------
        self.scalars: dict = {}
        self.buffers: dict = {}
        self.axi_memories: dict = {}
        self.fifo_leftovers: dict = {}
        self.warnings: list = []
        self.stats = SimulationStats()
        # -- static columns (depth-independent retiming edges) ---------
        #: one entry per recorded node; None = not built
        self.s_base: array | None = None
        self.s_indegree: array | None = None
        self.s_succ_ptr: array | None = None
        self.s_succ_node: array | None = None
        self.s_succ_weight: array | None = None
        #: topological order valid for every depth configuration >= 1,
        #: or None when the depth-1 ordering graph is cyclic
        self.s_order: array | None = None
        self.s_has_order = False
        #: per-process derived caches, never serialized: the scalar
        #: iteration view and :mod:`repro.trace.vectorized`'s batch plan
        self._view = self._vplan = None
        #: makes the lazy builds single-flight: sessions are shared by
        #: the service's thread pool, and the first retimes of a cold
        #: artifact arrive together.  Readers that find a build already
        #: published never take it (and it never travels: see __reduce__).
        self._build_lock = threading.RLock()
        #: name -> module id / entry of ``fifos`` / entry of ``axis``
        self._module_ids: dict[str, int] = {}
        self._fifo_tables: dict[str, FifoColumns] = {}
        self._axi_tables: dict[str, AxiColumns] = {}

    # ------------------------------------------------------------------
    # recording: what the engines call while they execute

    def module_id(self, name: str) -> int:
        mid = self._module_ids.get(name)
        if mid is None:
            mid = self._module_ids[name] = len(self.module_names)
            self.module_names.append(name)
        return mid

    def fifo_table(self, name: str) -> FifoColumns:
        table = self._fifo_tables.get(name)
        if table is None:
            table = self._fifo_tables[name] = FifoColumns(
                name, len(self.fifos))
            self.fifos.append(table)
        return table

    def axi_table(self, name: str) -> AxiColumns:
        table = self._axi_tables.get(name)
        if table is None:
            table = self._axi_tables[name] = AxiColumns(name)
            self.axis.append(table)
        return table

    def add_node(self, module: str, request, time: int,
                 kind: int = K_OTHER) -> int:
        """Append a committed event; returns its node id."""
        mid = self._module_ids.get(module)
        if mid is None:
            mid = self.module_id(module)
        node = len(self.time)
        self.module_of.append(mid)
        self.nominal.append(request.nominal)
        self.time.append(time)
        self.kind.append(kind)
        return node

    def add_end_node(self, module: str, node: int) -> None:
        """Register ``node`` as ``module``'s end-of-task event."""
        self.end_mids.append(self.module_id(module))
        self.end_node_ids.append(node)

    def add_constraint(self, code: int, fifo: int, index: int,
                       outcome: bool, node: int) -> None:
        """Record one resolved timing query (paper 7.2): ``code`` indexes
        :data:`CONSTRAINT_KINDS`, ``fifo`` is the channel's
        :attr:`FifoColumns.index`, ``index`` the FIFO access index it
        resolved against (the would-be w-th write / r-th read), ``node``
        the query's own event."""
        self.c_kind.append(code)
        self.c_fifo.append(fifo)
        self.c_index.append(index)
        self.c_outcome.append(1 if outcome else 0)
        self.c_node.append(node)

    def attach_payload(self, result: SimulationResult) -> None:
        """Adopt the capture result's functional outputs — the objects
        themselves, not copies: one run has one set of outputs, and
        :meth:`to_result` copies on the way out."""
        self.scalars = result.scalars
        self.buffers = result.buffers
        self.axi_memories = result.axi_memories
        self.fifo_leftovers = result.fifo_leftovers
        self.warnings = result.warnings
        self.stats = result.stats

    def _sync(self) -> None:
        """Bring the derived columns up to date with the recorded nodes:
        the per-module CSR is a stable sort of ``module_of`` (emission
        order within a module), and static columns built before the
        last append are dropped.  A no-op on anything already current —
        loaded artifacts, and recorded ones nobody appended to since."""
        if self._synced():
            return
        with self._build_lock:
            if self._synced():
                return  # another thread built it while we waited
            module_of = self.module_of
            per_module = Counter(module_of)
            mod_ptr = [0, *accumulate(
                per_module[mid] for mid in range(len(self.module_names)))]
            self.s_succ_ptr = None
            self._view = self._vplan = None
            self.mod_ptr = mod_ptr
            # published last: a reader that finds the node list current
            # finds everything above current too
            self.mod_nodes = sorted(range(len(module_of)),
                                    key=module_of.__getitem__)

    def _synced(self) -> bool:
        return (len(self.mod_nodes) == len(self.time)
                and len(self.mod_ptr) == len(self.module_names) + 1)

    # Kept only for benchmarks/perf (not editable here), which calls it
    # on an OmniSim result: the engine already recorded the artifact.
    @staticmethod
    def from_result(result) -> "TraceArtifact":
        return result.trace

    # ------------------------------------------------------------------
    # cross-process shipping: the store's own (meta, columns) form, so
    # packed columns and built static columns travel WITH the artifact;
    # only the cheap derived iteration view is rebuilt per process.

    def __reduce__(self):
        return (TraceArtifact.from_serial,
                (self.meta_dict(), dict(self.columns())))

    # ------------------------------------------------------------------
    # basic shape

    @property
    def node_count(self) -> int:
        return len(self.time)

    def nbytes(self) -> int:
        """Packed size of the integer columns (bytes)."""
        return sum(len(col) * col.itemsize for _name, col in self.columns())

    # ------------------------------------------------------------------
    # static edge build: every depth-independent edge, once

    def ensure_static(self) -> None:
        """Build the depth-independent CSR columns once (idempotent;
        rebuilt when nodes were appended since)."""
        self._sync()
        if self.s_succ_ptr is None:
            with self._build_lock:
                if self.s_succ_ptr is None:
                    self._build_static_columns()

    def _build_static_columns(self) -> None:
        """One nominal-distance chain per module, RAW FIFO edges,
        port-serialization chains and all AXI edges, flattened to CSR;
        only the WAR edges are left to the per-call overlay in
        :meth:`retime`.

        A chain links consecutive events of a module whether or not a
        segment boundary lies between (the module docstring proves a
        per-segment "effective start" node would add nothing).
        ``s_base`` is ``nominal`` for a module's first event and 0
        elsewhere."""
        total = self.node_count
        edges: list[tuple[int, int, int]] = []
        add_edge = edges.append
        base_value: list[int] = [0] * total

        # --- structural edges per module -------------------------------
        nominal = self.nominal
        mod_ptr = self.mod_ptr
        mod_nodes = self.mod_nodes
        for mid in range(len(self.module_names)):
            chain = mod_nodes[mod_ptr[mid]:mod_ptr[mid + 1]]
            if chain:
                base_value[chain[0]] = nominal[chain[0]]
            for a, b in zip(chain, chain[1:]):
                add_edge((a, b, nominal[b] - nominal[a]))

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

        order = self._build_order_column(total, indegree, succ_ptr,
                                         succ_node)
        self.s_base = _qarray(base_value)
        self.s_indegree = _qarray(indegree)
        self.s_succ_node = _qarray(succ_node)
        self.s_succ_weight = _qarray(succ_weight)
        self.s_has_order = order is not None
        self.s_order = _qarray(order) if order is not None else _qarray()
        self._view = None
        # published last: "built" is ``s_succ_ptr is not None``
        self.s_succ_ptr = _qarray(succ_ptr)

    def _build_order_column(self, total: int, indegree: list,
                            succ_ptr: list, succ_node: list) -> list | None:
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
        indegree = indegree.copy()
        aug = self._depth1_war_pairs()
        for v in aug.values():
            indegree[v] += 1
        aug_get = aug.get
        # Kahn, with the order doubling as its own FIFO queue
        order = [v for v in range(total) if indegree[v] == 0]
        ready = order.append
        for u in order:
            for v in succ_node[succ_ptr[u]:succ_ptr[u + 1]]:
                indegree[v] -= 1
                if indegree[v] == 0:
                    ready(v)
            v = aug_get(u)
            if v is not None:
                indegree[v] -= 1
                if indegree[v] == 0:
                    ready(v)
        return order if len(order) == total else None

    def _depth1_war_pairs(self) -> dict[int, int]:
        """``read #r -> write #(r+1)`` per FIFO (a node is one access of
        one FIFO): the depth-1 WAR ordering pairs that make one order
        (:meth:`_build_order_column`) and one leveling (the batch plan)
        valid for every depth >= 1."""
        return {read: write for fc in self.fifos
                for read, write in zip(fc.read_nodes, fc.write_nodes[1:])}

    # ------------------------------------------------------------------
    # derived iteration view: the CSR columns are the persistent form;
    # the relaxation loop wants per-node adjacency tuples (PR 1's
    # iteration-friendly shape).  Rebuilt per process from the columns —
    # a zip + slicing pass, orders cheaper than the full edge build.

    def _iter_view(self):
        self.ensure_static()
        view = self._view
        if view is None:
            with self._build_lock:
                view = self._view or self._build_iter_view()
        return view

    def _build_iter_view(self):
        succ_ptr = self.s_succ_ptr
        # Box the columns into lists before zipping: the pair
        # tuples then hold compactly-allocated ints (boxing straight
        # out of array('q') measurably hurts sweep locality).
        pairs_flat = list(zip(list(self.s_succ_node),
                              list(self.s_succ_weight)))
        succ_pairs = [
            tuple(pairs_flat[succ_ptr[u]:succ_ptr[u + 1]])
            for u in range(self.node_count)
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
            (fc.name, list(fc.write_nodes), list(fc.read_nodes),
             self._min_replay_depth(fc))
            for fc in self.fifos
        ]
        view = self._view = (sweep, succ_pairs, base, indegree, kind_list,
                             fifo_views)
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

    def _min_replay_depth(self, fc: FifoColumns) -> int:
        """Smallest depth of ``fc`` the recording can be replayed at.
        Blocking write #w waits on read #(w - depth); when the run
        recorded fewer reads than that (it ended with values left in
        the FIFO), a shallower FIFO stalls that write forever."""
        kind = self.kind
        writes = fc.write_nodes
        for w in range(len(writes), 0, -1):
            if kind[writes[w - 1]] == K_WRITE:
                return max(1, w - len(fc.read_nodes))
        return 1

    def retime(self, depths: dict) -> list[int]:
        """Recompute all node times under new FIFO ``depths``.

        ``depths`` must be the fully resolved map (every FIFO with
        recorded accesses present, every depth >= 1 — anything else is
        a :class:`~repro.errors.SimulationError`).  Assumes the
        functional execution is unchanged; the caller re-validates the
        recorded query constraints.  Returns the new time list.
        """
        self._check_depths(depths)
        (sweep, succ_pairs, base, indegree_base, kind,
         fifo_views) = self._iter_view()
        total = self.node_count

        # --- per-depth WAR overlay: the only depth-dependent edges ------
        # A node-indexed list, not a dict: the sweep probes it once per
        # node, and a BINARY_SUBSCR beats a dict.get call on that path.
        # One target at most: a read frees the slot of exactly one write.
        overlay: list = [None] * total
        for name, writes, reads, min_depth in fifo_views:
            depth = depths[name]
            if depth < min_depth:
                raise SimulationError(
                    f"fifo {name}: at depth {depth} a blocking write waits "
                    "on a read the recorded run never performs (the "
                    "configuration deadlocks the recording); full "
                    "re-simulation required"
                )
            # write #w waits on read #(w - depth)
            for write_node, read_node in zip(writes[depth:], reads):
                if kind[write_node] == K_WRITE:
                    overlay[read_node] = write_node

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
                v = overlay[u]
                if v is not None and time_u >= new_time[v]:
                    new_time[v] = time_u + 1  # WAR edges have weight 1
            return new_time

        # --- Kahn longest-path fallback (order graph was cyclic) --------
        indegree = indegree_base[:]
        for v in overlay:
            if v is not None:
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
            v = overlay[u]
            if v is not None:
                if time_u >= new_time[v]:
                    new_time[v] = time_u + 1
                indegree[v] -= 1
                if indegree[v] == 0:
                    queue.append(v)
        if visited != total:
            raise SimulationError(
                "simulation graph became cyclic under the new FIFO depths "
                "(the configuration deadlocks); full re-simulation required"
            )
        return new_time

    # ------------------------------------------------------------------
    # incremental re-simulation

    def resimulate(self, new_depths: dict) -> IncrementalResult:
        """Re-derive the capture's cycle count under new FIFO depths
        (incremental re-simulation, paper section 7.2).

        The graph was built *dynamically*, driven by the run's depths,
        so it cannot be blindly reused the way LightningSim's can: every
        resolved timing query was recorded instead.  Re-simulation
        retimes the recorded graph under the new depths (:meth:`retime`)
        and re-evaluates every query with the Table 2 conditions at the
        new depth S' — microseconds to milliseconds, versus seconds for
        a full run (paper Table 6).

        Unmentioned FIFOs keep the capture depth; raises
        :class:`~repro.errors.ConstraintViolation` when a recorded query
        flips (control flow may diverge: a full run must decide),
        :class:`~repro.errors.SimulationError` on unknown names, depths
        < 1, or a configuration that deadlocks the recording.
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
    # interop with the result world

    def to_result(self) -> SimulationResult:
        """Reconstruct a baseline-equivalent
        :class:`~repro.sim.result.SimulationResult`: copies of the
        functional payload plus this artifact as the replay state
        (``fifo_channels``, the engine's R/W timing tables, are gone
        with the engine; the base depths are :attr:`depths`)."""
        return SimulationResult(
            design_name=self.design_name,
            simulator="omnisim",
            cycles=self.total_cycles(),
            scalars=dict(self.scalars),
            buffers={k: list(v) for k, v in self.buffers.items()},
            axi_memories={k: list(v) for k, v in self.axi_memories.items()},
            module_end_times=self.end_times(),
            fifo_leftovers=dict(self.fifo_leftovers),
            stats=dataclasses.replace(self.stats),
            warnings=list(self.warnings),
            trace=self,
        )

    # ------------------------------------------------------------------
    # serialization support (the store flattens these; see store.py)

    def meta_dict(self) -> dict:
        """JSON-serializable scalar/str metadata (no integer columns)."""
        self._sync()
        return {
            "design_name": self.design_name,
            "executor": self.executor,
            "module_names": list(self.module_names),
            "depths": dict(self.depths),
            "widths": dict(self.widths),
            "fifos": [fc.name for fc in self.fifos],
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
                "stats": dataclasses.asdict(self.stats),
            },
            "static": {
                "built": self.s_succ_ptr is not None,
                "has_order": self.s_has_order,
            },
        }

    _FIFO_COLUMNS = ("write_nodes", "read_nodes",
                     "write_port_nodes", "read_port_nodes")
    _AXI_COLUMNS = ("read_bursts", "resp_nodes", "read_beat_nodes",
                    "write_beat_nodes", "read_req_nodes", "write_req_nodes")
    _NODE_COLUMNS = ("module_of", "nominal", "time", "kind", "mod_ptr",
                     "mod_nodes", "end_mids", "end_node_ids")
    _CONSTRAINT_COLUMNS = ("c_kind", "c_fifo", "c_index",
                           "c_outcome", "c_node")
    _STATIC_COLUMNS = ("s_base", "s_indegree", "s_succ_ptr",
                       "s_succ_node", "s_succ_weight", "s_order")

    def columns(self):
        """Yield ``(name, array('q'))`` for every integer column, in
        schema order (the store serializes exactly this sequence)."""
        self._sync()
        for name in self._NODE_COLUMNS + self._CONSTRAINT_COLUMNS:
            yield name, _packed(getattr(self, name))
        for i, fc in enumerate(self.fifos):
            for col in self._FIFO_COLUMNS:
                yield f"fifo{i}.{col}", _packed(getattr(fc, col))
        for i, ax in enumerate(self.axis):
            for col in self._AXI_COLUMNS:
                yield f"axi{i}.{col}", _packed(getattr(ax, col))
        if self.s_succ_ptr is not None:
            for name in self._STATIC_COLUMNS:
                yield name, getattr(self, name)

    @classmethod
    def from_serial(cls, meta: dict, columns: dict) -> "TraceArtifact":
        """Inverse of ``meta_dict``/``columns`` (store load side)."""
        art = cls(meta["design_name"], meta["executor"])
        for name in meta["module_names"]:
            art.module_id(name)
        art.depths = {str(k): int(v) for k, v in meta["depths"].items()}
        art.widths = {str(k): int(v) for k, v in meta["widths"].items()}
        for name in cls._NODE_COLUMNS + cls._CONSTRAINT_COLUMNS:
            setattr(art, name, columns[name])
        for i, name in enumerate(meta["fifos"]):
            fc = art.fifo_table(str(name))
            for col in cls._FIFO_COLUMNS:
                setattr(fc, col, columns[f"fifo{i}.{col}"])
        for i, ad in enumerate(meta["axis"]):
            ax = art.axi_table(str(ad["name"]))
            ax.read_latency = int(ad["read_latency"])
            ax.write_latency = int(ad["write_latency"])
            for col in cls._AXI_COLUMNS:
                setattr(ax, col, columns[f"axi{i}.{col}"])
        fn = meta["functional"]
        art.scalars = dict(fn["scalars"])
        art.buffers = {k: list(v) for k, v in fn["buffers"].items()}
        art.axi_memories = {k: list(v)
                            for k, v in fn["axi_memories"].items()}
        art.fifo_leftovers = dict(fn["fifo_leftovers"])
        art.warnings = list(fn["warnings"])
        art.stats = SimulationStats(**fn["stats"])
        static = meta["static"]
        if static["built"]:
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


# Kept only for benchmarks/perf (not editable here): a result's replay
# handle is its ``trace`` field, ``None`` on engines that record none
# and on stripped batch results.
def replay_trace(result) -> TraceArtifact | None:
    return getattr(result, "trace", None)
