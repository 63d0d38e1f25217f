"""Seeded procedural design generator across the paper's taxonomy.

``generate(design_type, modules, seed)`` emits a validated
:class:`DslSpec` whose taxonomy class matches the request:

* **Type A** — blocking-only acyclic pipelines: a buffer-fed producer, a
  chain of affine workers, optionally a splitter/combiner diamond, and a
  count-terminated sink.  Functionality is timing-independent; every
  engine (including LightningSim) must agree bit for bit.
* **Type B** — timing-dependent *control* but timing-independent
  *values*.  Two sub-shapes, chosen by the seed: a non-blocking
  retry producer polling a ``done`` FIFO (the paper's Fig. 4 Ex. 2), or
  a cyclic blocking controller/processor ring (Ex. 3).  Extra modules
  extend the worker chain.
* **Type C** — timing-dependent values: a dropping non-blocking producer
  (with an optional drop counter) feeding a sentinel-terminated chain
  (Ex. 4a/4b), or a free-running producer with a fixed-budget polling
  collector (Ex. 4*_d).  Only cycle-accurate engines agree with RTL.
* **Type D** — the "huge" scale-out family: a deep fan-out/fan-in
  backbone (splitter/combiner stages over parallel worker lanes) plus
  seed-chosen satellite clusters — blocking feedback rings (multi-stage
  loops), non-blocking drop lanes, and independent AXI masters (each
  owning its own memory region; port contention is not modelled, so
  masters never share one).  The module budget is honoured exactly, so
  ``--modules 500`` really emits 500 modules.  Designs are cyclic
  exactly when a ring cluster was drawn, which some seeds skip — both
  acyclic (vectorized-retimable) and cyclic (whole-batch-decline)
  corpora exist under every configuration.

Determinism contract: the emitted spec — and therefore its YAML
rendering — is a pure function of ``(design_type, modules, seed,
count)``.  The generator never consults global RNG state, so corpora
regenerate identically across sessions and platforms (the property
``tests/test_dsl_generator.py`` locks in).

Seeded randomness varies: FIFO depths and element widths, worker ops
and IIs, diamond topology, producer/sink rate mismatches (the source of
Type C backpressure), and payload data patterns.
"""

from __future__ import annotations

import random

from ...errors import SpecError
from .schema import (
    AxiSpec,
    BufferSpec,
    DslSpec,
    FifoSpec,
    ModuleSpec,
    ScalarSpec,
    validate_spec,
)

#: element types the generator draws FIFO payloads from (sentinel
#: protocols need signed types wide enough for the data range)
_PAYLOAD_TYPES = ("i16", "i32", "i32", "i48", "i64")

MIN_MODULES = 2


def generate(design_type: str, modules: int = 4, seed: int = 0,
             count: int = 64) -> DslSpec:
    """Generate a valid spec of the requested taxonomy class.

    Args:
        design_type: ``"A"``, ``"B"``, ``"C"`` (paper section 4) or
            ``"D"`` (the huge scale-out family).
        modules: total module count (>= 2; clamped up for shapes that
            need a minimum, e.g. the Type-A diamond needs 4).
        seed: RNG seed; equal seeds yield equal specs.
        count: elements pushed through the pipeline (loop trip count).

    Returns:
        A validated :class:`DslSpec` (never writes files; render it with
        :func:`repro.designs.dsl.spec_to_yaml`).

    Raises:
        SpecError: for an unknown ``design_type`` or ``modules < 2``.
    """
    design_type = str(design_type).upper()
    if design_type not in ("A", "B", "C", "D"):
        raise SpecError(
            f"generator: unknown design type {design_type!r} "
            "(A, B, C or D)"
        )
    if modules < MIN_MODULES:
        raise SpecError(
            f"generator: need at least {MIN_MODULES} modules, got {modules}"
        )
    rng = random.Random((design_type, modules, seed, count).__repr__())
    name = f"gen_{design_type.lower()}_m{modules}_s{seed}"
    spec = DslSpec(
        name=name,
        description=(f"generated Type {design_type} design "
                     f"(modules={modules}, seed={seed})"),
        design_type=design_type,
        constants={"n": count},
        origin=f"<generator:{name}>",
    )
    builder = {"A": _gen_type_a, "B": _gen_type_b, "C": _gen_type_c,
               "D": _gen_type_d}
    builder[design_type](spec, modules, rng)
    return validate_spec(spec)


# ---------------------------------------------------------------------------
# shared pieces


def _depth(rng) -> int:
    return rng.choice((1, 2, 2, 4, 8, 16))


def _payload(rng) -> str:
    return rng.choice(_PAYLOAD_TYPES)


def _op(rng, sentinel_safe: bool = False) -> dict:
    """A random affine worker op.  Sentinel-mode chains reserve negative
    values for the end-of-stream marker, so their ops must map
    non-negative inputs to non-negative outputs (mul >= 1, add >= 0) —
    a negative coefficient once let a data value alias the sentinel and
    deadlock the drained chain."""
    return {"kind": "affine", "mul": rng.choice((1, 2, 3, 5)),
            "add": rng.randint(0, 7) if sentinel_safe
            else rng.randint(-4, 7)}


def _data_buffer(spec, rng, size: int) -> str:
    spec.buffers.append(BufferSpec(
        name="data", type="i32", size=size,
        init={"pattern": "range", "mul": rng.choice((1, 1, 2, 3)),
              "add": rng.randint(0, 5)},
    ))
    return "data"


def _worker_chain(spec, rng, first_fifo: str, ty: str, n_workers: int,
                  mode: str = "count") -> str:
    """Append ``n_workers`` workers after ``first_fifo``; returns the
    fifo the last worker writes."""
    upstream = first_fifo
    for w in range(n_workers):
        out = f"f{len(spec.fifos)}"
        spec.fifos.append(FifoSpec(name=out, type=ty, depth=_depth(rng)))
        params = {"in": upstream, "out": out,
                  "op": _op(rng, sentinel_safe=mode == "sentinel"),
                  "ii": rng.choice((1, 1, 2))}
        if mode == "count":
            params["count"] = "n"
        else:
            params["mode"] = "sentinel"
        spec.modules.append(ModuleSpec(
            name=f"w{w}", role="worker", params=params,
        ))
        upstream = out
    return upstream


# ---------------------------------------------------------------------------
# Type A: blocking acyclic pipeline, optionally a splitter/combiner diamond


def _gen_type_a(spec, modules, rng) -> None:
    count = spec.constants["n"]
    ty = _payload(rng)
    diamond = modules >= 5 and rng.random() < 0.5
    # producer + sink always exist; a diamond consumes 2 extra modules
    chain_workers = modules - 2 - (2 if diamond else 0)

    spec.fifos.append(FifoSpec(name="f0", type=ty, depth=_depth(rng)))
    data = _data_buffer(spec, rng, count)
    spec.modules.append(ModuleSpec(
        name="src", role="producer",
        params={"data": data, "out": "f0", "count": "n",
                "ii": rng.choice((1, 1, 2)), "write": "blocking"},
    ))
    upstream = _worker_chain(spec, rng, "f0", ty, max(0, chain_workers))

    if diamond:
        left = f"f{len(spec.fifos)}"
        right = f"f{len(spec.fifos) + 1}"
        spec.fifos.append(FifoSpec(name=left, type=ty, depth=_depth(rng)))
        spec.fifos.append(FifoSpec(name=right, type=ty, depth=_depth(rng)))
        spec.modules.append(ModuleSpec(
            name="split", role="splitter",
            params={"in": upstream, "out": [left, right], "count": "n"},
        ))
        joined = f"f{len(spec.fifos)}"
        spec.fifos.append(FifoSpec(name=joined, type=ty, depth=_depth(rng)))
        spec.modules.append(ModuleSpec(
            name="join", role="combiner",
            params={"in": [left, right], "out": joined, "count": "n",
                    "ii": rng.choice((1, 2))},
        ))
        upstream = joined

    spec.scalars.append(ScalarSpec(name="total", type="i64"))
    spec.modules.append(ModuleSpec(
        name="sink", role="sink",
        params={"in": upstream, "count": "n", "total": "total",
                "ii": rng.choice((1, 1, 2))},
    ))


# ---------------------------------------------------------------------------
# Type B: NB-retry producer with done signal, or cyclic blocking ring


def _gen_type_b(spec, modules, rng) -> None:
    count = spec.constants["n"]
    ty = _payload(rng)
    if rng.random() < 0.5:
        # Ex. 2 shape: nb_retry producer + counting sink that signals done.
        # The value stream is invariant (retry never skips), so outputs are
        # timing-independent; the NB control loop makes it Type B.
        spec.fifos.append(FifoSpec(name="f0", type=ty, depth=_depth(rng)))
        spec.fifos.append(FifoSpec(name="done", type="u1", depth=2))
        data = _data_buffer(spec, rng, count)
        spec.modules.append(ModuleSpec(
            name="src", role="producer",
            params={"data": data, "out": "f0", "write": "nb_retry",
                    "done": "done"},
        ))
        last = _worker_chain(spec, rng, "f0", ty, max(0, modules - 2))
        spec.scalars.append(ScalarSpec(name="total", type="i64"))
        spec.modules.append(ModuleSpec(
            name="sink", role="sink",
            params={"in": last, "count": "n", "total": "total",
                    "done": "done", "ii": rng.choice((1, 1, 2))},
        ))
    else:
        # Ex. 3 shape: controller -> worker ring over blocking FIFOs.
        # Module budget: ctl + ring_close + chain workers == modules.
        spec.fifos.append(FifoSpec(name="f0", type=ty, depth=_depth(rng)))
        data = _data_buffer(spec, rng, count)
        ring_workers = max(0, modules - 2)
        last = _worker_chain(spec, rng, "f0", ty, ring_workers)
        back = f"f{len(spec.fifos)}"
        spec.fifos.append(FifoSpec(name=back, type=ty, depth=_depth(rng)))
        # rewire: the last chain fifo feeds a final worker that closes the
        # ring back to the controller
        spec.modules.append(ModuleSpec(
            name="ring_close", role="worker",
            params={"in": last, "out": back, "count": "n",
                    "op": _op(rng)},
        ))
        spec.scalars.append(ScalarSpec(name="total", type="i64"))
        spec.modules.append(ModuleSpec(
            name="ctl", role="controller",
            params={"out": "f0", "in": back, "data": data, "count": "n",
                    "total": "total"},
        ))


# ---------------------------------------------------------------------------
# Type C: dropped values (sentinel chain) or fixed-budget polling collector


def _gen_type_c(spec, modules, rng) -> None:
    count = spec.constants["n"]
    ty = "i32"  # sentinel protocols want headroom for the -1 marker
    if rng.random() < 0.5:
        # Ex. 4a/4b shape: nb_drop producer, slow sentinel sink — values
        # genuinely lost to backpressure, counted when modules allow.
        spec.fifos.append(FifoSpec(name="f0", type=ty,
                                   depth=rng.choice((1, 2, 2, 4))))
        data = _data_buffer(spec, rng, count)
        spec.scalars.append(ScalarSpec(name="dropped", type="i32"))
        spec.modules.append(ModuleSpec(
            name="src", role="producer",
            params={"data": data, "out": "f0", "count": "n",
                    "write": "nb_drop", "dropped": "dropped",
                    "ii": rng.choice((1, 2))},
        ))
        last = _worker_chain(spec, rng, "f0", ty, max(0, modules - 2),
                             mode="sentinel")
        spec.scalars.append(ScalarSpec(name="total", type="i64"))
        spec.modules.append(ModuleSpec(
            name="sink", role="sink",
            params={"in": last, "mode": "sentinel", "total": "total",
                    # sink slower than the producer: drops must occur
                    "ii": rng.choice((5, 7, 9))},
        ))
    else:
        # Ex. 4*_d shape: free-running nb_drop producer polled down by a
        # fixed-budget collector that then raises done.
        spec.fifos.append(FifoSpec(name="f0", type=ty,
                                   depth=rng.choice((2, 4, 8))))
        spec.fifos.append(FifoSpec(name="done", type="u1", depth=2))
        data = _data_buffer(spec, rng, count)
        spec.scalars.append(ScalarSpec(name="dropped", type="i32"))
        spec.modules.append(ModuleSpec(
            name="src", role="producer",
            params={"data": data, "out": "f0", "write": "nb_drop",
                    "done": "done", "dropped": "dropped"},
        ))
        # poll-mode chain workers still use count mode upstream of the
        # collector: they forward at line rate and park on the last read
        # once the collector stops draining — acceptable for generated
        # corpora only when the chain is empty, so keep it flat.
        spec.scalars.append(ScalarSpec(name="total", type="i64"))
        spec.modules.append(ModuleSpec(
            name="collect", role="sink",
            params={"in": "f0", "mode": "poll", "polls": "n",
                    "total": "total", "done": "done",
                    "ii": rng.choice((4, 8, 12))},
        ))
        # burn remaining module budget as an independent Type-A side
        # channel so --modules is honoured without perturbing the NB core
        _side_channel(spec, rng, max(0, modules - 2))


def _side_channel(spec, rng, n_modules: int) -> None:
    """An independent blocking producer->workers->sink lane (used to honour
    a module budget the NB core shape cannot absorb)."""
    if n_modules < 2:
        return
    ty = _payload(rng)
    first = f"f{len(spec.fifos)}"
    spec.fifos.append(FifoSpec(name=first, type=ty, depth=_depth(rng)))
    spec.modules.append(ModuleSpec(
        name="side_src", role="producer",
        params={"out": first, "count": "n", "write": "blocking",
                "ii": rng.choice((1, 2))},
    ))
    last = _worker_chain_named(spec, rng, first, ty, n_modules - 2, "sw")
    spec.scalars.append(ScalarSpec(name="side_total", type="i64"))
    spec.modules.append(ModuleSpec(
        name="side_sink", role="sink",
        params={"in": last, "count": "n", "total": "side_total"},
    ))


def _worker_chain_named(spec, rng, first_fifo: str, ty: str,
                        n_workers: int, prefix: str) -> str:
    upstream = first_fifo
    for w in range(n_workers):
        out = f"f{len(spec.fifos)}"
        spec.fifos.append(FifoSpec(name=out, type=ty, depth=_depth(rng)))
        spec.modules.append(ModuleSpec(
            name=f"{prefix}{w}", role="worker",
            params={"in": upstream, "out": out, "op": _op(rng),
                    "count": "n", "ii": rng.choice((1, 2))},
        ))
        upstream = out
    return upstream


# ---------------------------------------------------------------------------
# Type D: huge scale-out — deep fan-out/fan-in backbone + satellite
# clusters (feedback rings, NB drop lanes, independent AXI masters)


#: source template for a Type-D AXI master; every master binds its own
#: region (``AxiPort`` shares per-port beat counters, so masters never
#: share one — DESIGN.md "port contention is not modelled")
_AXI_MASTER_SOURCE = """\
def {name}_kernel(mem: hls.AxiMaster(hls.i32), n: hls.Const(),
                  total: hls.ScalarOut(hls.i64)):
    acc = hls.cast(hls.i64, 0)
    mem.read_req(0, n)
    for i in range(n):
        hls.pipeline(ii=1)
        acc += mem.read()
    mem.write_req(0, n)
    for i in range(n):
        hls.pipeline(ii={ii})
        mem.write(acc + i)
    mem.write_resp()
    total.set(acc)
"""


def _gen_type_d(spec, modules, rng) -> None:
    """The huge family.  Budget allocation is decided up front (all rng
    draws happen in one fixed order, so the spec stays a pure function
    of the generate() arguments), then spent exactly:

    * backbone: producer -> [fan stages | chain workers]* -> sink;
      a fan stage is splitter -> L parallel worker lanes -> combiner
      (cost ``2 + L*W``), the deep fan-out/fan-in the family exists for;
    * ring cluster (seed-dependent): a blocking controller/worker
      feedback loop — the multi-stage cyclic shape that makes the
      retiming graph cyclic (the vectorized kernel must decline it);
    * NB drop lane (seed-dependent): nb_drop producer -> sentinel chain
      -> slow sink, the timing-dependent-values stressor;
    * AXI masters (seed-dependent): independent source-form modules,
      one private memory region each;
    * reorder pair (seed-dependent): two FIFOs written A-then-B but
      read B-then-A — the depth-1-augmented recorded graph is cyclic,
      so trace artifacts carry no all-depth topological order and the
      vectorized retiming kernel must decline the whole batch (the
      retiming-cyclic stressor the huge sweep exists to exercise).
    """
    budget = modules - 2  # backbone producer + sink always exist
    ring_w = nb_w = axi_k = -1
    reorder = False
    if budget >= 8 and rng.random() < 0.5:
        ring_w = rng.randint(1, 3)
        budget -= 2 + ring_w
    if budget >= 8 and rng.random() < 0.6:
        nb_w = rng.randint(0, 2)
        budget -= 2 + nb_w
    if budget >= 6 and rng.random() < 0.7:
        axi_k = rng.randint(1, 3)
        budget -= axi_k
    if budget >= 4 and rng.random() < 0.4:
        reorder = True
        budget -= 2

    # -- backbone -------------------------------------------------------
    ty = _payload(rng)
    spec.fifos.append(FifoSpec(name="f0", type=ty, depth=_depth(rng)))
    data = _data_buffer(spec, rng, min(spec.constants["n"], 256))
    spec.modules.append(ModuleSpec(
        name="src", role="producer",
        params={"data": data, "out": "f0", "count": "n",
                "ii": rng.choice((1, 1, 2)), "write": "blocking"},
    ))
    upstream = "f0"
    stage = 0
    while budget >= 4:
        if rng.random() < 0.12:
            break  # leave the rest to plain chain workers
        lanes = rng.choice((2, 2, 3, 4))
        lane_w = rng.choice((1, 1, 2))
        while 2 + lanes * lane_w > budget:
            if lane_w > 1:
                lane_w = 1
            else:
                lanes -= 1
        upstream = _fan_stage(spec, rng, upstream, ty, stage,
                              lanes, lane_w)
        budget -= 2 + lanes * lane_w
        stage += 1
    upstream = _worker_chain_named(spec, rng, upstream, ty, budget, "bw")
    spec.scalars.append(ScalarSpec(name="total", type="i64"))
    spec.modules.append(ModuleSpec(
        name="sink", role="sink",
        params={"in": upstream, "count": "n", "total": "total",
                "ii": rng.choice((1, 1, 2))},
    ))

    # -- satellite clusters ---------------------------------------------
    if ring_w >= 0:
        _ring_cluster(spec, rng, ring_w)
    if nb_w >= 0:
        _nb_drop_lane(spec, rng, nb_w)
    for k in range(max(0, axi_k)):
        _axi_master(spec, rng, k)
    if reorder:
        _reorder_pair(spec, rng)


def _fan_stage(spec, rng, upstream: str, ty: str, stage: int,
               lanes: int, lane_w: int) -> str:
    """splitter -> ``lanes`` parallel chains of ``lane_w`` workers ->
    combiner; returns the combiner's output fifo."""
    outs = []
    for lane in range(lanes):
        f = f"f{len(spec.fifos)}"
        spec.fifos.append(FifoSpec(name=f, type=ty, depth=_depth(rng)))
        outs.append(f)
    spec.modules.append(ModuleSpec(
        name=f"split{stage}", role="splitter",
        params={"in": upstream, "out": outs, "count": "n",
                "ii": rng.choice((1, 1, 2))},
    ))
    tails = []
    for lane, f in enumerate(outs):
        tails.append(_worker_chain_named(
            spec, rng, f, ty, lane_w, f"s{stage}l{lane}w"))
    joined = f"f{len(spec.fifos)}"
    spec.fifos.append(FifoSpec(name=joined, type=ty, depth=_depth(rng)))
    spec.modules.append(ModuleSpec(
        name=f"join{stage}", role="combiner",
        params={"in": tails, "out": joined, "count": "n",
                "ii": rng.choice((1, 2))},
    ))
    return joined


def _ring_cluster(spec, rng, ring_w: int) -> None:
    """A blocking controller/worker feedback ring (the Type-B Ex. 3
    shape under distinct names) — the loop that makes the design's
    retiming graph cyclic."""
    ty = _payload(rng)
    first = f"f{len(spec.fifos)}"
    spec.fifos.append(FifoSpec(name=first, type=ty, depth=_depth(rng)))
    spec.buffers.append(BufferSpec(
        name="ring_data", type="i32", size=min(spec.constants["n"], 256),
        init={"pattern": "range", "mul": 1, "add": rng.randint(0, 5)},
    ))
    last = _worker_chain_named(spec, rng, first, ty, ring_w, "rw")
    back = f"f{len(spec.fifos)}"
    spec.fifos.append(FifoSpec(name=back, type=ty, depth=_depth(rng)))
    spec.modules.append(ModuleSpec(
        name="ring_close", role="worker",
        params={"in": last, "out": back, "count": "n", "op": _op(rng)},
    ))
    spec.scalars.append(ScalarSpec(name="ring_total", type="i64"))
    spec.modules.append(ModuleSpec(
        name="ring_ctl", role="controller",
        params={"out": first, "in": back, "data": "ring_data",
                "count": "n", "total": "ring_total"},
    ))


def _nb_drop_lane(spec, rng, nb_w: int) -> None:
    """An independent nb_drop producer -> sentinel chain -> slow sink
    lane (Type-C Ex. 4a/4b shape under distinct names)."""
    first = f"f{len(spec.fifos)}"
    spec.fifos.append(FifoSpec(name=first, type="i32",
                               depth=rng.choice((1, 2, 2, 4))))
    spec.scalars.append(ScalarSpec(name="nb_dropped", type="i32"))
    spec.modules.append(ModuleSpec(
        name="nb_src", role="producer",
        params={"out": first, "count": "n", "write": "nb_drop",
                "dropped": "nb_dropped", "ii": rng.choice((1, 2))},
    ))
    upstream = first
    for w in range(nb_w):
        out = f"f{len(spec.fifos)}"
        spec.fifos.append(FifoSpec(name=out, type="i32",
                                   depth=_depth(rng)))
        spec.modules.append(ModuleSpec(
            name=f"nbw{w}", role="worker",
            params={"in": upstream, "out": out,
                    "op": _op(rng, sentinel_safe=True),
                    "mode": "sentinel", "ii": rng.choice((1, 1, 2))},
        ))
        upstream = out
    spec.scalars.append(ScalarSpec(name="nb_total", type="i64"))
    spec.modules.append(ModuleSpec(
        name="nb_sink", role="sink",
        params={"in": upstream, "mode": "sentinel", "total": "nb_total",
                "ii": rng.choice((5, 7, 9))},
    ))


def _axi_master(spec, rng, k: int) -> None:
    """One source-form AXI master over a private memory region."""
    region = f"axi_mem{k}"
    burst = rng.choice((8, 16, 32))
    spec.axi.append(AxiSpec(
        name=region, type="i32", size=max(64, burst),
        init={"pattern": "range", "mul": rng.choice((1, 2, 3)),
              "add": rng.randint(0, 7)},
        read_latency=rng.choice((8, 12, 20)),
        write_latency=rng.choice((4, 6, 10)),
    ))
    spec.scalars.append(ScalarSpec(name=f"axi_total{k}", type="i64"))
    name = f"axi_m{k}"
    spec.modules.append(ModuleSpec(
        name=name,
        source=_AXI_MASTER_SOURCE.format(name=name,
                                         ii=rng.choice((1, 1, 2))),
        binds={"mem": region, "n": burst, "total": f"axi_total{k}"},
    ))


#: reorder pair: the fork drains stream A completely before touching B,
#: the join drains B completely before A.  At depth 1 the augmented WAR
#: edges close a cycle (A.write(2) needs A.read(1), which waits behind
#: all of B, whose writes wait behind all of A) — the canonical
#: no-all-depth-order shape, scaled into the huge family.
_REORDER_FORK_SOURCE = """\
def {name}_kernel(oa: hls.StreamOut(hls.i32), ob: hls.StreamOut(hls.i32),
                  n: hls.Const()):
    for i in range(n):
        hls.pipeline(ii={ii})
        oa.write(i * {mul})
    for i in range(n):
        hls.pipeline(ii=1)
        ob.write(i + {add})
"""

_REORDER_JOIN_SOURCE = """\
def {name}_kernel(ia: hls.StreamIn(hls.i32), ib: hls.StreamIn(hls.i32),
                  n: hls.Const(), total: hls.ScalarOut(hls.i64)):
    acc = hls.cast(hls.i64, 0)
    for i in range(n):
        hls.pipeline(ii=1)
        acc += ib.read()
    for i in range(n):
        hls.pipeline(ii=1)
        acc += ia.read()
    total.set(acc)
"""


def _reorder_pair(spec, rng) -> None:
    """Two source-form modules over a private FIFO pair, written in one
    order and read in the other (see the module comment above).  Stream
    A's capture depth equals the burst so the capture run completes;
    any retiming below it deadlocks, which the scalar path reports and
    the batched path must refuse to guess at."""
    burst = rng.choice((8, 16, 32))
    fa = f"f{len(spec.fifos)}"
    spec.fifos.append(FifoSpec(name=fa, type="i32", depth=burst))
    fb = f"f{len(spec.fifos)}"
    spec.fifos.append(FifoSpec(name=fb, type="i32",
                               depth=rng.choice((2, 4))))
    spec.scalars.append(ScalarSpec(name="reorder_total", type="i64"))
    fork, join = "reorder_fork", "reorder_join"
    spec.modules.append(ModuleSpec(
        name=fork,
        source=_REORDER_FORK_SOURCE.format(
            name=fork, ii=rng.choice((1, 1, 2)),
            mul=rng.choice((1, 2, 3)), add=rng.randint(0, 7)),
        binds={"oa": fa, "ob": fb, "n": burst},
    ))
    spec.modules.append(ModuleSpec(
        name=join,
        source=_REORDER_JOIN_SOURCE.format(name=join),
        binds={"ia": fa, "ib": fb, "n": burst,
               "total": "reorder_total"},
    ))
