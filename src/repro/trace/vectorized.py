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
* **Renumbering.**  Nodes are permuted level-major so each level's
  destinations are contiguous rows of the time matrix ``T`` (shape
  ``(total_nodes, batch)``): the static relaxation for one level is a
  gather (``T[pred_src] + weight``), a segmented
  ``np.maximum.reduceat`` per destination, and one scatter-max.
* **WAR overlay.**  The depth-dependent edges target only FIFO write
  nodes and always have weight 1, but their *source* read varies per
  config (``reads[i - depth]``).  Per level and FIFO the plan stores the
  write positions; the sweep computes the per-config source index
  matrix, gathers ``T[reads[i - d], config]`` element-wise, and
  scatter-maxes the candidates into the write rows — invalid positions
  (``i < d``) contribute ``-inf``.
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
from .columnar import _NEG_INF, K_WRITE, TraceArtifact

#: the numpy module once :func:`_numpy` has looked for it (None when it
#: is missing or disabled); importing it is ~1/3 of a ``repro run``'s
#: wall, so only the first batch-kernel use pays for it
_PENDING = object()
_np = _PENDING


def _numpy():
    global _np
    if _np is _PENDING:
        _np = None
        if not _os.environ.get("REPRO_NO_NUMPY"):
            try:
                import numpy as _np
            except ImportError:  # pragma: no cover - no-numpy CI job
                pass
    return _np

#: default rows per vectorized kernel call.  Large enough that per-level
#: NumPy call overhead amortizes across the batch (the sweep runs one
#: gather/reduceat/scatter trio per topological level regardless of
#: batch width), small enough that the (nodes x batch) int64 time
#: matrix stays cache-friendly.
DEFAULT_BATCH_SIZE = 256


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
        "supported", "total", "node_count", "perm", "dtype", "neg",
        "base", "levels", "war_levels", "fifo_names", "fifo_index",
        "reads_new", "reads_ext", "writes_len", "reads_len",
        "min_safe_depth", "max_ke", "max_kd", "max_kw", "real_new",
        "w_queries", "r_queries", "end_new", "end_names", "n_constraints",
    )

    def __init__(self, art: TraceArtifact):
        self.supported = False
        np = _numpy()
        if np is None:
            return
        art.ensure_static()
        if not art.s_has_order:
            return
        total = art.s_total
        self.total = total
        self.node_count = art.node_count

        # --- levels: longest path over static + depth-1 WAR edges ------
        level = [0] * total
        aug: dict[int, list[int]] = {}
        for fc in art.fifos:
            writes = fc.write_nodes
            for r, read_node in enumerate(fc.read_nodes, start=1):
                if r < len(writes):
                    aug.setdefault(read_node, []).append(writes[r])
        succ_ptr = art.s_succ_ptr
        succ_node = art.s_succ_node
        aug_get = aug.get
        for u in art.s_order:
            nxt = level[u] + 1
            for k in range(succ_ptr[u], succ_ptr[u + 1]):
                v = succ_node[k]
                if level[v] < nxt:
                    level[v] = nxt
            extra = aug_get(u)
            if extra is not None:
                for v in extra:
                    if level[v] < nxt:
                        level[v] = nxt

        # --- level-major renumbering ------------------------------------
        level_arr = np.asarray(level, dtype=np.int64)
        order_new = np.argsort(level_arr, kind="stable")
        perm = np.empty(total, dtype=np.int64)
        perm[order_new] = np.arange(total, dtype=np.int64)
        self.perm = perm
        base_i64 = np.asarray(art.s_base, dtype=np.int64)[order_new]
        self.real_new = perm[:self.node_count] if self.node_count \
            else np.empty(0, dtype=np.int64)

        # --- value dtype: int32 when the longest possible path fits ----
        # Candidate values are bounded by max finite |base| plus the sum
        # of positive edge weights (every WAR edge contributes 1).  The
        # int32 layout halves the sweep's memory traffic; 2x headroom
        # keeps sentinel-derived candidates strictly below any real one
        # (mirroring how ``_NEG_INF`` chains always lose in the scalar
        # sweep).
        edge_w64 = np.asarray(art.s_succ_weight, dtype=np.int64)
        finite = base_i64 > _NEG_INF // 2
        bound = int(np.abs(base_i64[finite]).max(initial=0))
        bound += int(edge_w64[edge_w64 > 0].sum())
        bound += sum(len(fc.write_nodes) for fc in art.fifos)
        if bound < (1 << 29):
            self.dtype = np.int32
            self.neg = -(1 << 30)
        else:
            self.dtype = np.int64
            self.neg = _NEG_INF
        self.base = np.where(finite, base_i64, self.neg).astype(self.dtype)

        # --- per-level static predecessor groups (new numbering) --------
        # One self-loop of weight 0 per destination folds the node's
        # base value into its segmented reduction, so the sweep's scatter
        # can overwrite instead of read-max-write.
        src = np.asarray(art.s_succ_node, dtype=np.int64)  # edge dsts
        n_edges = len(src)
        edge_src_old = np.empty(n_edges, dtype=np.int64)
        ptr = list(art.s_succ_ptr)
        for u in range(total):
            edge_src_old[ptr[u]:ptr[u + 1]] = u
        dst_all = np.unique(perm[src])
        edge_dst_new = np.concatenate([perm[src], dst_all])
        edge_src_new = np.concatenate([perm[edge_src_old], dst_all])
        edge_w = np.concatenate(
            [edge_w64, np.zeros(len(dst_all), dtype=np.int64)]
        ).astype(self.dtype)
        n_edges += len(dst_all)
        # sort edges by destination (new ids are level-major, so one
        # stable sort groups them level-by-level AND dst-by-dst)
        e_order = np.argsort(edge_dst_new, kind="stable")
        edge_dst_new = edge_dst_new[e_order]
        edge_src_new = edge_src_new[e_order]
        edge_w = edge_w[e_order][:, None]  # broadcast-ready column
        dst_unique, seg_starts = np.unique(edge_dst_new,
                                           return_index=True)
        dst_level = level_arr[order_new][dst_unique]
        n_levels = int(level_arr.max()) + 1 if total else 1
        # slice the grouped-destination arrays by level
        lvl_bounds = np.searchsorted(dst_level,
                                     np.arange(1, n_levels + 1))
        self.levels = []
        self.max_ke = self.max_kd = 0
        prev_d = int(np.searchsorted(dst_level, 1))
        prev_e = int(seg_starts[prev_d]) if prev_d < len(dst_unique) else n_edges
        for L in range(1, n_levels):
            d_hi = int(lvl_bounds[L])
            e_hi = (int(seg_starts[d_hi]) if d_hi < len(dst_unique)
                    else n_edges)
            if d_hi > prev_d:
                self.levels.append((
                    dst_unique[prev_d:d_hi],
                    seg_starts[prev_d:d_hi] - prev_e,
                    edge_src_new[prev_e:e_hi],
                    edge_w[prev_e:e_hi],
                ))
                self.max_ke = max(self.max_ke, e_hi - prev_e)
                self.max_kd = max(self.max_kd, d_hi - prev_d)
            else:
                self.levels.append(None)
            prev_d, prev_e = d_hi, e_hi

        # --- per-level WAR write groups ---------------------------------
        kind = art.kind
        self.fifo_names = [fc.name for fc in art.fifos]
        self.fifo_index = {name: i for i, name in
                           enumerate(self.fifo_names)}
        self.reads_new = [perm[np.asarray(fc.read_nodes, dtype=np.int64)]
                          if len(fc.read_nodes) else
                          np.empty(0, dtype=np.int64)
                          for fc in art.fifos]
        # sentinel-padded variant: index -1 wraps to row ``total`` of the
        # time matrix, which the sweep pins at ``neg`` — an invalid WAR
        # source (``pos < depth``) then contributes a candidate that
        # always loses, with no mask/where pass.
        self.reads_ext = [
            np.concatenate([r, np.asarray([total], dtype=np.int64)])
            for r in self.reads_new
        ]
        self.writes_len = [len(fc.write_nodes) for fc in art.fifos]
        self.reads_len = [len(fc.read_nodes) for fc in art.fifos]
        war_levels: dict[int, list] = {}
        # Minimum depth per FIFO at which every WAR source index
        # (``pos - depth``) stays inside the recorded read list — the
        # scalar overlay indexes ``reads[w - depth - 1]`` unguarded, so
        # rows below this are screened out to the scalar path rather
        # than replicated here.
        self.min_safe_depth = np.ones(len(art.fifos), dtype=np.int64)
        for fi, fc in enumerate(art.fifos):
            pos_ok = [i for i, w in enumerate(fc.write_nodes)
                      if kind[w] == K_WRITE]
            if not pos_ok:
                continue
            self.min_safe_depth[fi] = max(
                1, max(pos_ok) - len(fc.read_nodes) + 1
            )
            by_level: dict[int, list[int]] = {}
            for i in pos_ok:
                by_level.setdefault(level[fc.write_nodes[i]], []).append(i)
            for L, positions in by_level.items():
                pos_col = np.asarray(positions, dtype=np.int64)[:, None]
                dst = perm[np.asarray(
                    [fc.write_nodes[i] for i in positions],
                    dtype=np.int64)]
                war_levels.setdefault(L, []).append((fi, pos_col, dst))
        self.war_levels = war_levels
        self.max_kw = max(
            (grp[1].shape[0] for groups in war_levels.values()
             for grp in groups), default=0,
        )

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

    def retime_matrix(self, depth_matrix):
        """Longest-path times for a ``(batch x n_fifos)`` depth matrix.

        ``depth_matrix`` columns follow :attr:`fifo_names` order; every
        depth must satisfy :attr:`min_safe_depth` (the caller screens
        rows).  Returns the ``(total_nodes + 1 x batch)`` time matrix in
        *plan* (level-major) numbering — index it through :attr:`perm`;
        the extra last row is the ``neg`` sentinel.

        The sweep is overhead-bound on deep graphs (one short level per
        chained FIFO access), so every per-level step writes into
        preallocated scratch via ``out=``: gather static predecessors,
        add weights, one segmented ``maximum.reduceat`` per destination
        (the self-loop row carries the node's base), scatter; then for
        WAR groups a flat-index gather through the sentinel-padded read
        list and a scatter-max into the write rows.
        """
        np = _np
        D = np.asarray(depth_matrix, dtype=np.int64)
        batch = D.shape[0]
        T = np.empty((self.total + 1, batch), dtype=self.dtype)
        T[:self.total] = self.base[:, None]
        T[self.total] = self.neg
        T_flat = T.reshape(-1)
        cols = np.arange(batch, dtype=np.int64)
        reads_lin = [r * batch for r in self.reads_ext]
        cand_buf = np.empty((self.max_ke, batch), dtype=self.dtype)
        red_buf = np.empty((self.max_kd, batch), dtype=self.dtype)
        idx_buf = np.empty((self.max_kw, batch), dtype=np.int64)
        war_buf = np.empty((self.max_kw, batch), dtype=self.dtype)
        old_buf = np.empty((self.max_kw, batch), dtype=self.dtype)
        war_levels = self.war_levels
        for L, static in enumerate(self.levels, start=1):
            if static is not None:
                dst, seg, src, w = static
                cand = cand_buf[:len(src)]
                np.take(T, src, axis=0, out=cand)
                cand += w
                red = red_buf[:len(dst)]
                np.maximum.reduceat(cand, seg, axis=0, out=red)
                T[dst] = red
            war = war_levels.get(L)
            if war is not None:
                for fi, pos_col, dst in war:
                    k = pos_col.shape[0]
                    idx = idx_buf[:k]
                    np.subtract(pos_col, D[:, fi], out=idx)
                    np.maximum(idx, -1, out=idx)  # -1 wraps to sentinel
                    np.take(reads_lin[fi], idx, mode="wrap", out=idx)
                    idx += cols
                    gathered = war_buf[:k]
                    np.take(T_flat, idx, out=gathered)
                    gathered += 1
                    old = old_buf[:k]
                    np.take(T, dst, axis=0, out=old)
                    np.maximum(old, gathered, out=old)
                    T[dst] = old
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
        if self.node_count:
            # mirror total_cycles(): max over *real* nodes only
            return T[self.real_new].max(axis=0)
        return np.zeros(T.shape[1], dtype=np.int64)


def _plan_for(art: TraceArtifact) -> BatchPlan:
    """The artifact's cached batch plan (built on first use; the cache
    rides on the artifact object and is dropped by pickling, like the
    scalar iteration view)."""
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

    D = np.empty((len(rows), len(plan.fifo_names)), dtype=np.int64)
    for r, i in enumerate(rows):
        depths = full_depths[i]
        for c, name in enumerate(plan.fifo_names):
            D[r, c] = depths[name]

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
    (real nodes, artifact numbering) for fully-resolved depth maps.

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
    D = np.empty((len(depth_maps), len(plan.fifo_names)), dtype=np.int64)
    for r, depths in enumerate(depth_maps):
        for c, name in enumerate(plan.fifo_names):
            D[r, c] = depths[name]
    if not (D >= plan.min_safe_depth[None, :]).all():
        raise ValueError(
            "depth map indexes past the recorded read list; "
            "use the scalar TraceArtifact.retime path"
        )
    T = plan.retime_matrix(D)
    back = T[plan.perm[:plan.node_count]]  # artifact numbering
    return [back[:, r].tolist() for r in range(len(depth_maps))]
