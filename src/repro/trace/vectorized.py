"""Vectorized batch retiming: whole depth-config batches as matrix sweeps.

The columnar :class:`~repro.trace.TraceArtifact` (PR 5) made the trace a
struct-of-arrays object, but ``retime``/``resimulate`` still interpret
it one configuration at a time in pure Python.  This module is the
LightningSimV2 move applied to that loop: *compile* the trace graph into
a level-synchronous batch plan once, then evaluate a whole
``(configs x fifos)`` depth matrix as NumPy array ops over a
``(nodes x configs)`` time matrix — one vectorized relaxation sweep per
topological level instead of N independent graph walks.

How the plan is laid out (DESIGN.md section 16):

* **Levels.**  Every node gets its longest-path level in the graph of
  static edges plus the depth-1 WAR edges (``reads[i] -> writes[i+1]``).
  Depth-1 WAR edges are the most constraining — the WAR edge for depth
  ``d`` (``reads[i] -> writes[i+d]``) is implied by the depth-1 edge and
  the write port chain — so one leveling is valid for *every* depth
  configuration >= 1, exactly like the artifact's all-depth topological
  order (whose existence the plan requires).
* **Renumbering.**  Nodes are permuted level-major, each level's
  WAR-eligible writes last, so a level's destinations are exactly rows
  ``[lo, hi)`` of the time matrix ``T`` (shape ``(total_nodes + 1,
  batch)``) and its WAR destinations a contiguous tail of them.  Every
  node past level 0 also gets a weight-0 self-loop row, and a level's
  predecessor rows are stored ``(rank, destination)``, padded with
  sentinel rows to its widest destination (fan-in <= 4).  The static
  relaxation of a level is then three calls: gather (``T.take``),
  ``+= weight``, and a dense ``maximum.reduce`` over the rank axis
  written straight into ``T[lo:hi]`` — no segmented
  ``reduceat`` (which pays per segment *and* config), no scatter.
* **WAR overlay.**  The depth-dependent edges target only FIFO write
  nodes and always have weight 1, but their *source* read varies per
  config (``reads[i - depth]``).  Once per batch the plan turns the
  depth matrix into one ``(war_rows x batch)`` matrix of flat indices
  into ``T`` — rows in plan order of their write, all FIFOs together,
  invalid positions (``i < d``) clamped onto a per-FIFO sentinel slot
  that reads ``-inf``.  A level with WAR rows then costs three more
  calls whatever the number of FIFOs: gather, ``+= 1``, ``maximum``
  into the level's tail.
* **Constraints.**  The recorded Table 2 queries re-validate as matrix
  ops per FIFO: write-side queries gather the per-config freeing read
  (index ``i - d`` again), read-side queries have a fixed target write.
  A flipped query marks *that config's row* only.

:func:`resimulate_batch` is the public kernel entry: it returns one
:class:`~repro.sim.incremental.IncrementalResult` per config row, or
``None`` for rows it cannot serve — a flipped constraint, an invalid
depth, an unknown FIFO name, or a whole-batch downgrade (NumPy missing,
no all-depth order).  Callers re-run ``None`` rows through the scalar
``TraceArtifact.resimulate`` path, which produces the *identical*
result or exception — the scalar path is also this kernel's
bit-for-bit differential oracle (``tests/test_vectorized.py``).

NumPy is optional: without it every batch degrades to the scalar path
(``numpy_available()`` reports which mode is active, and the
``REPRO_NO_NUMPY`` environment variable forces the fallback for
testing).
"""

from __future__ import annotations

import os as _os
import time as _time

from ..sim.incremental import IncrementalResult
from .columnar import K_WRITE, TraceArtifact

#: the numpy module once :func:`_numpy` has looked for it (None when it
#: is missing or disabled); importing it is ~1/3 of a ``repro run``'s
#: wall, so only the first batch-kernel use pays for it
_PENDING = object()
_np = _PENDING


def _numpy():
    global _np
    if _np is _PENDING:
        found = None
        if not _os.environ.get("REPRO_NO_NUMPY"):
            try:
                import numpy as found
            except ImportError:  # pragma: no cover - no-numpy CI job
                pass
        # published only once known: a thread arriving mid-import must
        # not read "missing" (the import lock serializes the imports)
        _np = found
    return _np

#: default rows per vectorized kernel call.  Large enough that per-level
#: NumPy call overhead amortizes across the batch (the sweep runs one
#: gather/add/reduce trio per topological level regardless of batch
#: width), small enough that the (nodes x batch) time matrix stays
#: cache-friendly.
DEFAULT_BATCH_SIZE = 256

#: rows of the WAR source-index matrix filled per step: bounds the
#: temporaries of :meth:`BatchPlan._war_sources` to ~2 MiB at the
#: default batch width
WAR_BLOCK_ROWS = 1024

#: "never": loses every ``max`` (the sentinel row's value in int64 plans)
_NEG_INF = -(1 << 62)


def numpy_available() -> bool:
    """True when the vectorized kernel can run (NumPy importable and
    not disabled via ``REPRO_NO_NUMPY``)."""
    return _numpy() is not None


class BatchPlan:
    """The compiled, level-synchronous form of one trace artifact.

    Built once per artifact (cached on the artifact, never pickled) and
    reused by every :func:`resimulate_batch` call.  ``supported`` is
    False when the artifact has no all-depth topological order — the
    order's existence is what lets the sweep skip per-config cycle
    checks, so such artifacts stay on the scalar path.
    """

    __slots__ = (
        "supported", "total", "perm", "dtype", "neg",
        "base", "levels", "fifo_names", "reads_cat", "reads_new",
        "reads_len", "war_fifo", "war_slot", "war_top", "min_safe_depth",
        "max_ke", "max_kw", "w_queries", "r_queries",
        "end_new", "end_names", "n_constraints",
    )

    def __init__(self, art: TraceArtifact):
        self.supported = False
        np = _numpy()
        if np is None:
            return
        art.ensure_static()
        if not art.s_has_order:
            return
        total = self.total = art.node_count

        # --- levels: longest path over static + depth-1 WAR edges ------
        level = [0] * total
        succ_ptr = art.s_succ_ptr
        succ_node = art.s_succ_node
        aug_get = art._depth1_war_pairs().get
        for u in art.s_order:
            nxt = level[u] + 1
            for k in range(succ_ptr[u], succ_ptr[u + 1]):
                v = succ_node[k]
                if level[v] < nxt:
                    level[v] = nxt
            v = aug_get(u)
            if v is not None and level[v] < nxt:
                level[v] = nxt

        # --- WAR rows: every blocking write a WAR edge can target -------
        # (write #1 never waits on a read, so positions start at 1 —
        # which also puts every row past level 0, behind its port chain)
        kind = art.kind
        self.fifo_names = [fc.name for fc in art.fifos]
        war_node, war_fifo, war_pos = np.asarray([
            (writes[pos], fi, pos)
            for fi, fc in enumerate(art.fifos)
            for writes in (fc.write_nodes,)
            for pos in range(1, len(writes)) if kind[writes[pos]] == K_WRITE
        ], dtype=np.int64).reshape(-1, 3).T
        # Shallower rows deadlock the recording (the scalar path raises):
        # they are screened out to it, so every source index is in range.
        self.min_safe_depth = np.asarray(
            [art._min_replay_depth(fc) for fc in art.fifos], dtype=np.int64)

        # --- level-major renumbering, WAR rows last in their level -------
        level_arr = np.asarray(level, dtype=np.int64)
        sort_key = 2 * level_arr
        sort_key[war_node] += 1
        order_new = np.argsort(sort_key, kind="stable")
        perm = np.empty(total, dtype=np.int64)
        perm[order_new] = np.arange(total, dtype=np.int64)
        self.perm = perm
        base_i64 = np.asarray(art.s_base, dtype=np.int64)[order_new]
        #: level l owns rows ``[row_lo[l], row_lo[l + 1])`` of ``T``;
        #: level 0 has no in-edges: its rows keep their base
        row_lo = np.concatenate(
            ([0], np.flatnonzero(np.diff(level_arr[order_new])) + 1, [total]))
        first = int(row_lo[1])

        # --- value dtype: int32 when the longest possible path fits ----
        # Candidate values are bounded by max |base| plus the sum
        # of positive edge weights (every WAR edge contributes 1).  The
        # int32 layout halves the sweep's memory traffic; 2x headroom
        # keeps sentinel-derived candidates strictly below any real one.
        edge_w64 = np.asarray(art.s_succ_weight, dtype=np.int64)
        bound = int(np.abs(base_i64).max(initial=0))
        bound += int(edge_w64[edge_w64 > 0].sum())
        bound += sum(len(fc.write_nodes) for fc in art.fifos)
        if bound < (1 << 29):
            self.dtype = np.int32
            self.neg = -(1 << 30)
        else:
            self.dtype = np.int64
            self.neg = _NEG_INF
        self.base = base_i64.astype(self.dtype)

        # --- predecessor rows: dense, rank-major per level ---------------
        # One weight-0 self-loop row per node past level 0, then each
        # level's rows laid out ``(rank, destination)`` and padded to
        # its widest destination with rows that gather the sentinel.
        loops = np.arange(first, total, dtype=np.int64)
        edge_src_old = np.repeat(
            np.arange(total, dtype=np.int64),
            np.diff(np.asarray(art.s_succ_ptr, dtype=np.int64)))
        edge_dst = np.concatenate(
            [perm[np.asarray(art.s_succ_node, dtype=np.int64)], loops])
        # new ids are level-major, so one stable sort groups the rows
        # level-by-level AND dst-by-dst
        e_order = np.argsort(edge_dst, kind="stable")
        edge_dst = edge_dst[e_order]
        width = np.diff(row_lo)[1:]  # destinations per level
        fan_in = np.asarray(art.s_indegree, dtype=np.int64) + 1
        rows_of = fan_in[order_new][first:]  # rows per destination
        ranks = (np.maximum.reduceat(rows_of, row_lo[1:-1] - first)
                 if len(width) else width)  # ranks per level
        pad_lo = np.concatenate(([0], np.cumsum(ranks * width)))
        edge_lo = np.concatenate(([0], np.cumsum(rows_of)))
        e_level = np.searchsorted(row_lo, edge_dst, side="right") - 2
        rank = np.arange(len(edge_dst)) - edge_lo[edge_dst - first]
        slot_of = (pad_lo[e_level] + rank * width[e_level]
                   + edge_dst - row_lo[e_level + 1])
        pad_src = np.full(int(pad_lo[-1]), total, dtype=np.int64)
        pad_src[slot_of] = np.concatenate(
            [perm[edge_src_old], loops])[e_order]
        pad_w = np.zeros((len(pad_src), 1), dtype=self.dtype)
        pad_w[slot_of, 0] = np.concatenate(
            [edge_w64, np.zeros(len(loops), dtype=np.int64)])[e_order]

        # --- WAR rows in plan order of their destination ----------------
        # ``reads_cat`` holds, per FIFO, one sentinel slot (row ``total``
        # of ``T``, pinned at ``neg``) in front of its reads: the write
        # at position ``pos`` under depth ``d`` waits on slot
        # ``max(pos + 1 - d, 0)`` of its FIFO's block, so an invalid
        # source (``pos < d``) always loses, with no mask/where pass.
        slot = np.cumsum([0] + [len(fc.read_nodes) + 1 for fc in art.fifos])
        self.reads_cat = np.full(int(slot[-1]), total, dtype=np.int64)
        self.reads_new = []
        self.reads_len = [len(fc.read_nodes) for fc in art.fifos]
        for fi, fc in enumerate(art.fifos):
            block = self.reads_cat[slot[fi] + 1:slot[fi + 1]]
            block[:] = perm[np.asarray(fc.read_nodes, dtype=np.int64)]
            self.reads_new.append(block)
        war_dst = perm[war_node]
        w_order = np.argsort(war_dst)
        self.war_fifo = war_fifo[w_order]
        self.war_slot = slot[self.war_fifo][:, None]
        self.war_top = self.war_slot + 1 + war_pos[w_order][:, None]
        war_lo = np.searchsorted(war_dst[w_order], row_lo)

        # --- per-level slices -------------------------------------------
        rows, wars, pads = row_lo.tolist(), war_lo.tolist(), pad_lo.tolist()
        self.levels = [
            (lo, hi, k, pad_src[p_lo:p_hi], pad_w[p_lo:p_hi],
             hi - (r_hi - r_lo), r_lo, r_hi)
            for lo, hi, k, p_lo, p_hi, r_lo, r_hi in zip(
                rows[1:], rows[2:], ranks.tolist(), pads, pads[1:],
                wars[1:], wars[2:])]
        self.max_ke = int((ranks * width).max(initial=0))
        self.max_kw = int(np.diff(war_lo).max(initial=0))

        # --- constraint groups (Table 2 re-validation) ------------------
        c_kind = np.asarray(art.c_kind, dtype=np.int64)
        c_fifo = np.asarray(art.c_fifo, dtype=np.int64)
        c_index = np.asarray(art.c_index, dtype=np.int64)
        c_outcome = np.asarray(art.c_outcome, dtype=bool)
        c_node = np.asarray(art.c_node, dtype=np.int64)
        self.n_constraints = len(c_node)
        is_write_q = c_kind <= 1  # see columnar._WRITE_QUERY_MAX_CODE
        self.w_queries = []
        for fi, fc in enumerate(art.fifos):
            mask = is_write_q & (c_fifo == fi)
            if not mask.any():
                continue
            self.w_queries.append((
                fi,
                c_index[mask],
                perm[c_node[mask]],
                c_outcome[mask],
            ))
        self.r_queries = []
        for fi, fc in enumerate(art.fifos):
            mask = (~is_write_q) & (c_fifo == fi)
            if not mask.any():
                continue
            idx = c_index[mask]
            n_writes = len(fc.write_nodes)
            has_write = idx <= n_writes
            writes = np.asarray(fc.write_nodes, dtype=np.int64)
            tgt = perm[writes[np.clip(idx - 1, 0, max(n_writes - 1, 0))]] \
                if n_writes else np.zeros(len(idx), dtype=np.int64)
            self.r_queries.append((
                tgt, has_write, perm[c_node[mask]], c_outcome[mask],
            ))

        # --- aggregates --------------------------------------------------
        self.end_new = perm[np.asarray(art.end_node_ids, dtype=np.int64)] \
            if len(art.end_node_ids) else np.empty(0, dtype=np.int64)
        self.end_names = [art.module_names[mid] for mid in art.end_mids]
        self.supported = True

    # ------------------------------------------------------------------

    def depth_matrix(self, depth_maps):
        """``(configs x fifos)`` int64 matrix of fully-resolved depth
        maps, columns in :attr:`fifo_names` order."""
        names = self.fifo_names
        return _np.asarray(
            [[depths[name] for name in names] for depths in depth_maps],
            dtype=_np.int64).reshape(len(depth_maps), len(names))

    def _war_sources(self, D):
        """Flat index into the time matrix of every WAR row's freeing
        read, per config: a ``(war_rows x batch)`` matrix in plan order
        of the destination write, so a level's rows are one slice.
        Filled in bounded row blocks — the per-row depth gather is the
        only temporary, and it never exceeds one block."""
        np = _np
        batch = D.shape[0]
        n_rows = len(self.war_fifo)
        lin = np.empty((n_rows, batch), dtype=np.int64)
        reads_lin = self.reads_cat * batch
        cols = np.arange(batch, dtype=np.int64)
        depth_of = D.T
        for lo in range(0, n_rows, WAR_BLOCK_ROWS):
            hi = lo + WAR_BLOCK_ROWS
            idx = lin[lo:hi]
            np.subtract(self.war_top[lo:hi], depth_of[self.war_fifo[lo:hi]],
                        out=idx)
            np.maximum(idx, self.war_slot[lo:hi], out=idx)
            # in range: callers screen ``min_safe_depth``
            np.take(reads_lin, idx, mode="clip", out=idx)
            idx += cols
        return lin

    def retime_matrix(self, depth_matrix):
        """Longest-path times for a ``(batch x n_fifos)`` depth matrix.

        ``depth_matrix`` columns follow :attr:`fifo_names` order; every
        depth must satisfy :attr:`min_safe_depth` (the caller screens
        rows).  Returns the ``(total_nodes + 1 x batch)`` time matrix in
        *plan* (level-major) numbering — index it through :attr:`perm`;
        the extra last row is the ``neg`` sentinel.

        The sweep is call-bound on deep graphs (one short level per
        chained FIFO access), so a level costs three NumPy calls —
        gather the predecessor rows, add weights, one dense
        ``maximum.reduce`` over the rank axis straight into the level's
        row range (the self-loop row carries each node's base) — plus
        three when it has WAR rows, all FIFOs at once: gather the
        freeing reads through the precomputed flat index, add 1,
        ``maximum`` into the level's tail.
        """
        np = _np
        D = np.asarray(depth_matrix, dtype=np.int64)
        batch = D.shape[0]
        T = np.empty((self.total + 1, batch), dtype=self.dtype)
        T[:self.total] = self.base[:, None]
        T[self.total] = self.neg
        T_flat = T.reshape(-1)
        lin = self._war_sources(D)
        cand_buf = np.empty((self.max_ke, batch), dtype=self.dtype)
        war_buf = np.empty((self.max_kw, batch), dtype=self.dtype)
        add, maximum, reduce = np.add, np.maximum, np.maximum.reduce
        # (bound methods: np.take's Python wrapper costs as much as the
        # gather itself; "clip" skips take's bounds-check copy of
        # ``out`` — every index is in range by construction)
        take, take_flat = T.take, T_flat.take
        for lo, hi, ranks, src, w, w_lo, r_lo, r_hi in self.levels:
            cand = cand_buf[:len(src)]
            take(src, 0, cand, "clip")
            add(cand, w, out=cand)
            reduce(cand.reshape(ranks, hi - lo, batch), 0, None, T[lo:hi])
            if r_hi > r_lo:
                freed = war_buf[:r_hi - r_lo]
                take_flat(lin[r_lo:r_hi], None, freed, "clip")
                add(freed, 1, out=freed)
                writes = T[w_lo:hi]
                maximum(writes, freed, out=writes)
        return T

    def flipped_rows(self, T, depth_matrix):
        """Boolean ``(batch,)`` mask of configs where any recorded
        query would resolve differently (columnar Table 2 conditions,
        vectorized)."""
        np = _np
        D = np.asarray(depth_matrix, dtype=np.int64)
        batch = D.shape[0]
        flip = np.zeros(batch, dtype=bool)
        cols = np.arange(batch, dtype=np.int64)
        for fi, idx, src_new, recorded in self.w_queries:
            d = D[:, fi]
            source = T[src_new]                        # (k, batch)
            sat = idx[:, None] <= d[None, :]
            target = idx[:, None] - d[None, :]
            n_reads = self.reads_len[fi]
            inrange = (target >= 1) & (target <= n_reads)
            if n_reads:
                reads = self.reads_new[fi]
                gathered = T[reads[np.clip(target - 1, 0, n_reads - 1)],
                             cols[None, :]]
                outcome = sat | (inrange & (source > gathered))
            else:
                outcome = sat
            flip |= (outcome != recorded[:, None]).any(axis=0)
        for tgt, has_write, src_new, recorded in self.r_queries:
            outcome = has_write[:, None] & (T[src_new] > T[tgt])
            flip |= (outcome != recorded[:, None]).any(axis=0)
        return flip

    def cycles(self, T):
        """Per-config total cycles: ``(batch,)`` int64."""
        np = _np
        if len(self.end_new):
            return T[self.end_new].max(axis=0)
        if self.total:
            # mirror total_cycles(): max over every node, not the sentinel
            return T[:self.total].max(axis=0)
        return np.zeros(T.shape[1], dtype=np.int64)


def _plan_for(art: TraceArtifact) -> BatchPlan:
    """The artifact's cached batch plan (built on first use; the cache
    rides on the artifact object and is dropped by pickling, like the
    scalar iteration view)."""
    plan = art._vplan
    if plan is None:
        with art._build_lock:  # single-flight, like ensure_static
            plan = art._vplan
            if plan is None:
                plan = art._vplan = BatchPlan(art)
    return plan


def batch_supported(art: TraceArtifact) -> bool:
    """True when ``art`` can be served by the vectorized kernel."""
    return _numpy() is not None and _plan_for(art).supported


def resimulate_batch(art: TraceArtifact, configs,
                     ) -> list[IncrementalResult | None]:
    """Batched :meth:`TraceArtifact.resimulate` over many depth configs.

    ``configs`` is a sequence of depth-override dicts (unmentioned FIFOs
    keep the capture depth, exactly like the scalar path).  Returns one
    entry per config:

    * an :class:`~repro.sim.incremental.IncrementalResult` — bit-for-bit
      what ``art.resimulate(config)`` would return — when the row's
      recorded queries all re-validate;
    * ``None`` when the row must take the scalar path: a recorded query
      flipped (``ConstraintViolation``), the depths are invalid
      (unknown name / depth < 1 -> ``SimulationError``), or the whole
      batch is unservable (NumPy unavailable, no all-depth order).
      Re-running the row through ``art.resimulate`` reproduces the
      identical result or exception.

    ``seconds`` on returned results is the batch wall-clock amortized
    over its rows (the scalar path times each row individually).
    """
    configs = list(configs)
    if not configs:
        return []
    np = _numpy()
    if np is None:
        return [None] * len(configs)
    plan = _plan_for(art)
    if not plan.supported:
        return [None] * len(configs)
    start = _time.perf_counter()

    known = set(art.depths)
    full_depths: list[dict | None] = []
    for config in configs:
        if set(config) - known:
            full_depths.append(None)  # unknown FIFO name -> scalar error
            continue
        depths = dict(art.depths)
        depths.update(config)
        if any(d < 1 for d in depths.values()):
            full_depths.append(None)  # bad depth -> scalar error
            continue
        full_depths.append(depths)

    rows = [i for i, d in enumerate(full_depths) if d is not None]
    results: list[IncrementalResult | None] = [None] * len(configs)
    if not rows:
        return results

    D = plan.depth_matrix([full_depths[i] for i in rows])

    safe = (D >= plan.min_safe_depth[None, :]).all(axis=1)
    if not safe.all():
        rows = [i for r, i in enumerate(rows) if safe[r]]
        if not rows:
            return results
        D = D[safe]

    T = plan.retime_matrix(D)
    flip = plan.flipped_rows(T, D)
    cycles = plan.cycles(T)
    end_rows = T[plan.end_new]  # (n_modules, batch)

    seconds = (_time.perf_counter() - start) / len(rows)
    for r, i in enumerate(rows):
        if flip[r]:
            continue  # ConstraintViolation row: scalar path re-raises
        depths = full_depths[i]
        end_times = {name: int(end_rows[m, r])
                     for m, name in enumerate(plan.end_names)}
        results[i] = IncrementalResult(
            cycles=int(cycles[r]),
            seconds=seconds,
            depths=depths,
            constraints_checked=plan.n_constraints,
            module_end_times=end_times,
            buffer_bits=art.buffer_bits(depths),
        )
    return results


def retime_batch(art: TraceArtifact, depth_maps) -> list[list[int]]:
    """Batched :meth:`TraceArtifact.retime`: per-config node time lists
    (artifact numbering) for fully-resolved depth maps.

    Exposed for differential tests and benchmarks; sweeps should prefer
    :func:`resimulate_batch`.  Raises :class:`ValueError` when the
    kernel cannot serve the artifact (use :func:`batch_supported`).
    """
    depth_maps = list(depth_maps)
    np = _numpy()
    if np is None:
        raise ValueError("NumPy unavailable: vectorized retime disabled")
    plan = _plan_for(art)
    if not plan.supported:
        raise ValueError(
            "artifact has no all-depth topological order; "
            "use the scalar TraceArtifact.retime path"
        )
    if not depth_maps:
        return []
    D = plan.depth_matrix(depth_maps)
    if not (D >= plan.min_safe_depth[None, :]).all():
        raise ValueError(
            "depth map indexes past the recorded read list; "
            "use the scalar TraceArtifact.retime path"
        )
    T = plan.retime_matrix(D)
    back = T[plan.perm]  # artifact numbering
    return [back[:, r].tolist() for r in range(len(depth_maps))]
