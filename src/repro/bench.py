"""Performance benchmark harness: the ``repro bench`` subcommand.

Runs the design registry under both Func Sim executors and sweeps FIFO
depths through the retiming path, then writes ``BENCH_perf.json`` — the
repository's performance trajectory file.  Three headline metrics:

* **events/sec** — Perf Sim request throughput of a full OmniSim run
  (the paper's Fig. 8(b) axis), for the interpreter and the
  generated executor;
* **cycles simulated/sec** — simulated hardware cycles per wall-clock
  second;
* **retime sweeps/sec** — incremental re-simulations per second across a
  FIFO depth sweep (paper Table 6);
* **DSE configs/sec** — end-to-end depth-space exploration throughput
  through ``repro.dse.explore`` (incremental-first with fallback),
  including the incremental-vs-full split, Pareto frontier size, and
  the vectorized-vs-scalar sweep rate (``vectorize_speedup``);
* **batch retime configs/sec** — the ``repro.trace.vectorized`` kernel
  against the scalar ``TraceArtifact.resimulate`` oracle on the same
  captured artifact, per batch size (the "batch_retime" section);
* **batched runs/sec** — ``Session.run_many`` throughput, sequential vs
  sharded over a process pool (the compiled artifact ships to each
  worker once; the "api" section records the jobs>1 speedup);
* **trace artifact** — cold (compile + capture + serialize) vs warm
  (content-addressed load) baseline acquisition through the
  ``repro.trace`` cache, plus the artifact's retime throughput (the
  "trace" section; warm must be >= 5x cold);
* **service latency** — a live ``repro serve`` instance hit over real
  HTTP from persistent-connection clients: cold (compile + capture)
  request latency vs warm (pooled in-memory baseline) p50/p99 at
  concurrency 1/8/32, plus requests/sec per level (the "service"
  section; warm p50 must be >= 10x faster than the cold request).

``--smoke`` runs a single small design of each kind so CI can guard
against perf-path regressions without paying the full suite.
"""

from __future__ import annotations

import json
import os
import platform
import time
from datetime import datetime, timezone

from .api import Session
from .errors import ConstraintViolation
from .sim import resimulate

#: registry designs benchmarked per group (group -> [(name, params)])
BENCH_GROUPS = {
    "typea_large": [
        ("vector_add_stream", {}),
        ("flowgnn_gin", {}),
        ("flowgnn_gcn", {}),
        ("flowgnn_gat", {}),
        ("flowgnn_pna", {}),
        ("flowgnn_dgn", {}),
        ("inr_arch", {}),
        ("skynet", {}),
    ],
    "typebc": [
        ("fig4_ex5", {"n": 800}),
        ("fig2_timer", {"n": 800}),
        ("branch", {"n": 800}),
        ("multicore", {"n": 250}),
    ],
}

SMOKE_GROUPS = {
    "smoke": [
        ("vector_add_stream", {"n": 256}),
        ("fig4_ex5", {"n": 100}),
    ],
}

#: (design, params, swept fifo, depth range) for the retime sweep; the
#: swept FIFO must stay uncongested so recorded constraints remain valid
#: (Table 6's incremental row).
RETIME_SWEEPS = [
    ("fig4_ex5", {"n": 800}, "fifo2", range(3, 35)),
]

SMOKE_RETIME_SWEEPS = [
    ("fig4_ex5", {"n": 100}, "fifo2", range(3, 9)),
]

#: (label, design, params, depth-space specs) for the DSE throughput
#: benchmark: one all-incremental Type A sweep, one Type C sweep whose
#: hot FIFO forces the fallback path to run, and one wide Table 6-style
#: sweep sized so the vectorized batch-retiming kernel dominates.
DSE_SWEEPS = [
    ("vector_add_stream", "vector_add_stream", {}, ["sc=1:32"]),
    ("fig4_ex5", "fig4_ex5", {"n": 400}, ["fifo1=1:8", "fifo2=2,8"]),
    ("fig4_ex5_batch", "fig4_ex5", {"n": 400}, ["fifo2=2:257"]),
]

SMOKE_DSE_SWEEPS = [
    ("vector_add_stream", "vector_add_stream", {"n": 256}, ["sc=1:8"]),
]

#: (label, design, params, depth-space specs) for the adaptive-search
#: benchmark: spaces small enough to enumerate for ground truth, large
#: enough that refinement's pruning matters.  Each entry is checked
#: against the Table 6 acceptance bar — >= 10x fewer evaluations than
#: exhaustive at >= 0.95 of its hypervolume.  fig4_ex5 at n=400 is the
#: deliberately hostile case: its retiming curve is non-monotone (a
#: deeper fifo1 can cost a handful of cycles), so it exercises the
#: frontier polish, not just the pruning rule.
SEARCH_BENCHES = [
    ("fig4_ex5", "fig4_ex5", {"n": 400}, ["fifo1=1:32", "fifo2=1:32"]),
    ("vector_add_stream", "vector_add_stream", {},
     ["sa=1:32", "sb=1:32"]),
]

SMOKE_SEARCH_BENCHES = [
    ("fig4_ex5", "fig4_ex5", {"n": 100}, ["fifo1=1:16", "fifo2=1:16"]),
]

#: (design, params, specs, max_evals) for the million-config demo: a
#: space past the enumeration guard, searched to convergence under a
#: fixed budget without ever materializing the product.
SEARCH_MILLION = ("fig4_ex5", {"n": 400},
                  ["fifo1=1:1024", "fifo2=1:1024"], 512)

SMOKE_SEARCH_MILLION = ("fig4_ex5", {"n": 100},
                        ["fifo1=1:1024", "fifo2=1:1024"], 128)

#: (label, design, params, swept fifo, config count, batch sizes) for
#: the batch-retiming kernel benchmark: scalar resimulate vs
#: ``resimulate_batch`` on the same captured artifact.
BATCH_RETIME_BENCHES = [
    ("fig4_ex5", "fig4_ex5", {"n": 400}, "fifo2", 1024, (32, 256, 1024)),
    ("vector_add_stream", "vector_add_stream", {}, "sc", 1024,
     (32, 256, 1024)),
]

SMOKE_BATCH_RETIME_BENCHES = [
    ("fig4_ex5", "fig4_ex5", {"n": 100}, "fifo2", 128, (32, 128)),
]

#: (design, params, batch size, pool jobs) for the batched-run benchmark
#: — the Session.run_many scale story (1 process vs a sharded pool).
API_BATCHES = [
    ("typea_large", {}, 16, 2),
]

SMOKE_API_BATCHES = [
    ("vector_add_stream", {"n": 256}, 6, 2),
]

#: (design, params, swept fifo, depth range) for the trace-artifact
#: benchmark: cold vs warm baseline acquisition and retime throughput.
TRACE_BENCHES = [
    ("fig4_ex5", {"n": 800}, "fifo2", range(3, 35)),
]

SMOKE_TRACE_BENCHES = [
    ("fig4_ex5", {"n": 100}, "fifo2", range(3, 9)),
]

#: (design, params, concurrency levels, warm requests per level) for the
#: service benchmark: a live ``repro serve`` instance queried over real
#: HTTP keep-alive connections (the "service" section).
SERVICE_BENCHES = [
    ("fig4_ex5", {"n": 800}, (1, 8, 32), 192),
]

SMOKE_SERVICE_BENCHES = [
    ("fig4_ex5", {"n": 100}, (1, 8), 48),
]

#: (modules, seed, count, retime configs) for the "huge" Type D family:
#: generated designs with hundreds of modules (fan stages, feedback
#: rings, NB lanes, AXI masters) — the scale story the paper's Fig. 8
#: makes for event throughput, extended to the retiming path.
# (modules, seed, count, n_configs) — seeds chosen so the captured
# artifact keeps an all-depth order (no reorder pair): the rows then
# measure the vectorized batch path, not just the scalar fallback
HUGE_BENCHES = [
    (100, 1, 16, 64),
    (300, 0, 16, 64),
    (1000, 4, 16, 32),
]

SMOKE_HUGE_BENCHES = [
    (60, 0, 16, 16),
]


def _timed_run(session: Session, executor: str, repeats: int) -> dict:
    """Best-of-``repeats`` timing (one-shot numbers are jittery)."""
    seconds = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = session.run(executor=executor)
        seconds = min(seconds, time.perf_counter() - start)
    return {
        "seconds": round(seconds, 6),
        "events": result.stats.events,
        "cycles": result.cycles,
        "events_per_sec": round(result.stats.events / seconds, 1),
        "cycles_per_sec": round(result.cycles / seconds, 1),
    }


def bench_design(name: str, params: dict, repeats: int = 3) -> dict:
    """Events/sec and cycles/sec of one design under both executors."""
    # trace_cache=False everywhere in the bench harness: the numbers
    # must measure real captures regardless of REPRO_TRACE_CACHE in the
    # caller's environment (bench_trace manages its own temp store).
    session = Session.open(name, trace_cache=False, **params)
    # Warm both paths: the first compiled run pays the code generation.
    session.run(executor="interp")
    session.run(executor="compiled")
    interp = _timed_run(session, "interp", repeats)
    compiled_run = _timed_run(session, "compiled", repeats)
    return {
        "params": params,
        "events": compiled_run["events"],
        "cycles": compiled_run["cycles"],
        "interp": interp,
        "compiled": compiled_run,
        "speedup_events_per_sec": round(
            compiled_run["events_per_sec"] / interp["events_per_sec"], 2
        ),
    }


def bench_retime(name: str, params: dict, fifo: str, depth_range) -> dict:
    """Per-configuration incremental re-simulation cost (retime +
    constraint revalidation) across a depth sweep, static edges built
    once outside the timed loop.  The bare retime kernel is timed by
    :func:`bench_trace`."""
    result = Session.open(name, trace_cache=False,
                          **params).baseline(executor="compiled")
    configs = [{fifo: d} for d in depth_range]

    result.trace.retime(result.trace.depths)  # static edges + view, once
    violations = 0
    start = time.perf_counter()
    for config in configs:
        try:
            resimulate(result, config)
        except ConstraintViolation:
            violations += 1
    resim = (time.perf_counter() - start) / len(configs)

    return {
        "params": params,
        "fifo": fifo,
        "configs": len(configs),
        "constraint_violations": violations,
        "resimulate_sec_per_config": round(resim, 6),
        #: single-configuration incremental re-simulations per second
        "resimulations_per_sec": round(1.0 / resim, 1),
        #: full depth sweeps (all configs) per second
        "sweeps_per_sec": round(1.0 / (resim * len(configs)), 2),
    }


def bench_dse(name: str, params: dict, specs: list) -> dict:
    """End-to-end sweep throughput of the DSE engine (single process, so
    BENCH numbers stay core-count independent).

    Runs the sweep twice — vectorized (default) and ``vectorize=False``
    — checks the points are value-identical, and records both rates so
    the batching speedup is pinned alongside the absolute number."""
    from .dse import explore

    sweep = explore(name, specs, params=params, jobs=1,
                    trace_cache=False)
    scalar = explore(name, specs, params=params, jobs=1,
                     trace_cache=False, vectorize=False)
    key = lambda p: (sorted(p.depths.items()), p.cycles, p.buffer_bits)
    if [key(p) for p in sweep.points] != [key(p) for p in scalar.points]:
        raise RuntimeError(
            f"dse bench: vectorized and scalar sweeps of {name} diverge")

    return {
        "params": params,
        "space": specs,
        "configs": sweep.evaluated,
        "incremental": sweep.incremental_count,
        "full": sweep.full_count,
        "deadlocked": sweep.deadlock_count,
        "incremental_fraction": round(sweep.incremental_fraction, 4),
        "pareto_size": len(sweep.pareto()),
        "capture_seconds": round(sweep.capture_seconds, 6),
        "sweep_seconds": round(sweep.seconds, 6),
        "configs_per_sec": round(sweep.configs_per_sec, 1),
        "modes": sweep.mode_counts,
        "scalar_configs_per_sec": round(scalar.configs_per_sec, 1),
        "vectorize_speedup": round(
            sweep.configs_per_sec / max(scalar.configs_per_sec, 1e-9), 2),
    }


def bench_search(name: str, params: dict, specs: list) -> dict:
    """Adaptive search quality against exhaustive ground truth.

    Sweeps the space three ways — exhaustive (the oracle), refine, and
    random under the same eval budget refine used — and scores the
    adaptive frontiers by hypervolume ratio against the oracle's.  The
    Table 6 acceptance bar is enforced here, not just reported: refine
    must spend >= 10x fewer evaluations than exhaustive while keeping
    >= 0.95 of its hypervolume, or the benchmark raises."""
    from .dse import explore, frontier_distance, hypervolume, pareto_vectors

    def check(ok: bool, detail: str) -> None:
        # Explicit raise, not assert: the bar must hold under python -O.
        if not ok:
            raise RuntimeError(f"search bench {name}: {detail}")

    exhaustive = explore(name, specs, params=params, jobs=1,
                         trace_cache=False)
    truth = pareto_vectors(exhaustive.points)
    check(bool(truth), "exhaustive sweep produced an empty frontier")
    ref = (max(c for c, _ in truth) * 1.1 + 1,
           max(b for _, b in truth) * 1.1 + 1)
    truth_hv = hypervolume(truth, ref)
    check(truth_hv > 0, "exhaustive frontier has zero hypervolume")

    def score(sweep) -> dict:
        vectors = pareto_vectors(sweep.points)
        spent = sweep.search["evals"]["spent"]
        hv_ratio = hypervolume(vectors, ref) / truth_hv
        distance = frontier_distance(vectors, truth)
        return {
            "evals": spent,
            "eval_ratio": round(exhaustive.evaluated / max(spent, 1), 2),
            "hv_ratio": round(hv_ratio, 4),
            "frontier_size": len(vectors),
            "frontier_identical": sorted(vectors) == sorted(truth),
            "frontier_distance": (None if distance == float("inf")
                                  else round(distance, 4)),
            "rounds": len(sweep.search["rounds"]),
            "seconds": round(sweep.seconds, 6),
            "search": sweep.search,
        }

    refine = explore(name, specs, params=params, jobs=1,
                     trace_cache=False, strategy="refine")
    refined = score(refine)
    rand = explore(name, specs, params=params, jobs=1, trace_cache=False,
                   strategy="random", max_evals=refined["evals"])
    check(refined["eval_ratio"] >= 10.0,
          f"refine spent {refined['evals']} evals vs"
          f" {exhaustive.evaluated} exhaustive"
          f" ({refined['eval_ratio']:.1f}x < 10x)")
    check(refined["hv_ratio"] >= 0.95,
          f"refine hypervolume ratio {refined['hv_ratio']:.4f} < 0.95")
    return {
        "params": params,
        "space": specs,
        "space_size": exhaustive.evaluated,
        "exhaustive_evals": exhaustive.evaluated,
        "exhaustive_seconds": round(exhaustive.seconds, 6),
        "frontier_size": len(truth),
        "refine": refined,
        "random": score(rand),
    }


def bench_search_million(name: str, params: dict, specs: list,
                         max_evals: int) -> dict:
    """The headline demo: a depth space past the enumeration guard,
    searched to convergence under a fixed budget.  Exhausting it is not
    an option — the space is never materialized (``DepthSpace`` stays
    lazy) and the eval count must respect ``max_evals``."""
    from .dse import DepthSpace, explore, parse_axis, pareto_vectors

    def check(ok: bool, detail: str) -> None:
        if not ok:
            raise RuntimeError(f"search million bench {name}: {detail}")

    space = DepthSpace([parse_axis(spec) for spec in specs])
    check(space.size >= 1_000_000,
          f"space holds only {space.size} configurations")
    sweep = explore(name, specs, params=params, jobs=1, trace_cache=False,
                    strategy="refine", max_evals=max_evals)
    check(sweep.evaluated <= max_evals,
          f"evaluated {sweep.evaluated} > budget {max_evals}")
    search = sweep.search
    skipped = (search.get("pruned_configs", 0)
               + search.get("deadlock_pruned_configs", 0))
    return {
        "params": params,
        "space": specs,
        "space_size": space.size,
        "max_evals": max_evals,
        "evals": search["evals"]["spent"],
        "converged": search["converged"],
        "stopped": search["stopped"],
        "rounds": len(search["rounds"]),
        "pruned_configs": skipped,
        "frontier_size": len(pareto_vectors(sweep.points)),
        "seconds": round(sweep.seconds, 6),
        "configs_per_sec": round(sweep.configs_per_sec, 1),
        "search": search,
    }


def bench_batch_retime(name: str, params: dict, fifo: str,
                       n_configs: int, batch_sizes) -> dict:
    """Scalar vs vectorized retiming throughput on one captured
    artifact: ``TraceArtifact.resimulate`` one config at a time against
    ``repro.trace.vectorized.resimulate_batch`` over the same configs,
    per batch size.  The batched rows are differentially checked
    against the scalar oracle on a sample before any rate is
    reported."""
    import random as _random

    from .errors import SimulationError
    from .trace.vectorized import (
        batch_supported,
        numpy_available,
        resimulate_batch,
    )

    # Explicit raises, not asserts: checks must survive `python -O`.
    def check(ok: bool, what: str) -> None:
        if not ok:
            raise RuntimeError(f"batch_retime invariant failed: {what}")

    session = Session.open(name, trace_cache=False, **params)
    trace = session.trace
    base = trace.depths[fifo]
    rng = _random.Random(0xB47C)
    configs = [{fifo: rng.randint(1, max(64, 4 * base))}
               for _ in range(n_configs)]

    sample = configs[:min(64, n_configs)]
    scalar_rows = []
    start = time.perf_counter()
    for config in sample:
        try:
            scalar_rows.append(trace.resimulate(config))
        except (ConstraintViolation, SimulationError):
            scalar_rows.append(None)
    scalar_sec = (time.perf_counter() - start) / len(sample)

    entry = {
        "params": params,
        "design": name,
        "fifo": fifo,
        "configs": n_configs,
        "supported": bool(numpy_available() and batch_supported(trace)),
        "scalar_sec_per_config": round(scalar_sec, 6),
        "scalar_configs_per_sec": round(1.0 / scalar_sec, 1),
        "batch": {},
    }
    if not entry["supported"]:
        return entry
    resimulate_batch(trace, configs[:2])  # warm the cached plan
    for size in batch_sizes:
        start = time.perf_counter()
        rows = []
        for lo in range(0, n_configs, size):
            rows.extend(resimulate_batch(trace, configs[lo:lo + size]))
        seconds = time.perf_counter() - start
        for config, row, ref in zip(sample, rows, scalar_rows):
            check((row is None) == (ref is None),
                  f"served-set mismatch at {config}")
            if row is not None:
                check(row.cycles == ref.cycles
                      and row.module_end_times == ref.module_end_times
                      and row.buffer_bits == ref.buffer_bits,
                      f"batched row diverges at {config}")
        entry["batch"][str(size)] = {
            "seconds": round(seconds, 6),
            "configs_per_sec": round(n_configs / seconds, 1),
            "served": sum(1 for r in rows if r is not None),
            "speedup_vs_scalar": round(scalar_sec * n_configs / seconds,
                                       2),
        }
    return entry


def bench_api(name: str, params: dict, runs: int, jobs: int,
              fifo: str = "sc") -> dict:
    """Batched multi-run throughput: ``Session.run_many`` vs the
    pre-redesign pattern of calling ``.run()`` in a loop.

    The batch sweeps one FIFO's depth across ``runs`` configurations — a
    realistic what-if batch.  The ``.run()`` loop pays a full Func+Perf
    simulation per configuration; ``run_many`` serves depth variations
    by constraint-checked incremental replay of the captured baseline
    (full-run fallback) and, with ``jobs > 1``, shards the batch over a
    process pool that receives the compiled artifact once.  Both must
    agree on every cycle count — that differential is asserted here and
    tested in ``tests/test_run_many.py``.
    """
    session = Session.open(name, trace_cache=False, **params)
    base_depth = session.compiled.stream_depths()[fifo]
    configs = [{"depths": {fifo: base_depth + i}} for i in range(runs)]
    session.baseline()  # warm: compile + capture paid before any timing

    start = time.perf_counter()
    looped = [session.run(depths=config["depths"]) for config in configs]
    loop_seconds = time.perf_counter() - start

    start = time.perf_counter()
    sequential = session.run_many(configs, jobs=1)
    seq_seconds = time.perf_counter() - start

    start = time.perf_counter()
    batched = session.run_many(configs, jobs=jobs)
    par_seconds = time.perf_counter() - start

    cycles = [r.cycles for r in looped]
    assert cycles == [r.cycles for r in sequential]
    assert cycles == [r.cycles for r in batched]
    incremental = sum(
        1 for r in batched
        if r.phase_seconds.get("serving") == "incremental"
    )
    return {
        "params": params,
        "design": session.name,
        "fifo": fifo,
        "runs": runs,
        "jobs": jobs,
        "incremental": incremental,
        "run_loop": {
            "seconds": round(loop_seconds, 6),
            "runs_per_sec": round(runs / loop_seconds, 2),
        },
        "run_many_jobs1": {
            "seconds": round(seq_seconds, 6),
            "runs_per_sec": round(runs / seq_seconds, 2),
        },
        "run_many_sharded": {
            "seconds": round(par_seconds, 6),
            "runs_per_sec": round(runs / par_seconds, 2),
        },
        "speedup_vs_run_loop": round(loop_seconds / par_seconds, 2),
    }


def bench_trace(name: str, params: dict, fifo: str, depth_range,
                repeats: int = 3) -> dict:
    """Trace-artifact layer throughput (the ``repro.trace`` story).

    **Cold vs warm capture** — a cold ``Session.baseline()`` pays
    compile + capture + serialize-to-cache; a warm one in a fresh
    session loads the columnar artifact by content digest (no compile,
    no capture, no static-edge build).  The acceptance bar is warm >=
    5x cold.  Also records ``TraceArtifact.retime`` throughput over a
    depth sweep of the captured artifact (:func:`bench_retime` times
    ``resimulate``).
    """
    import tempfile

    # Explicit raises, not asserts: these acceptance checks must also
    # fire under `python -O` (the repo runs a stripped-assert CI tier).
    def check(ok: bool, what: str) -> None:
        if not ok:
            raise RuntimeError(f"trace bench invariant failed: {what}")

    with tempfile.TemporaryDirectory() as tmp:
        start = time.perf_counter()
        cold_session = Session.open(name, trace_cache=tmp, **params)
        base = cold_session.baseline()
        cold_seconds = time.perf_counter() - start
        check(base.phase_seconds.get("capture") == "cold",
              "first capture was not cold")

        warm_seconds = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            warm_session = Session.open(name, trace_cache=tmp, **params)
            warm_base = warm_session.baseline()
            warm_seconds = min(warm_seconds,
                               time.perf_counter() - start)
            check(warm_base.phase_seconds.get("capture") == "warm",
                  "repeat capture missed the cache")
        check(warm_base.cycles == base.cycles,
              "warm baseline cycles diverged from cold")
        artifact_bytes = os.path.getsize(
            cold_session.trace_store.path(cold_session.trace_digest())
        )

    trace = base.trace
    configs = [dict(trace.depths, **{fifo: d}) for d in depth_range]
    trace.retime(configs[0])    # warm the iteration view
    flat_sec = float("inf")
    for _ in range(max(repeats, 7)):
        start = time.perf_counter()
        for depths in configs:
            trace.retime(depths)
        flat_sec = min(flat_sec,
                       (time.perf_counter() - start) / len(configs))

    return {
        "params": params,
        "fifo": fifo,
        "configs": len(configs),
        "capture_cold_seconds": round(cold_seconds, 6),
        "capture_warm_seconds": round(warm_seconds, 6),
        "warm_speedup": round(cold_seconds / warm_seconds, 2),
        #: of this bench's cache lookups (1 cold miss, `repeats` warm
        #: hits) — the trajectory's cache effectiveness number
        "cache_hits": repeats,
        "cache_misses": 1,
        "hit_rate": round(repeats / (repeats + 1), 4),
        "artifact_bytes": artifact_bytes,
        "retime_sec_per_config_flat": round(flat_sec, 6),
    }


def _aggregate(entries: list[dict]) -> dict:
    """Group throughput: total events / total wall-clock per executor."""
    out = {}
    for executor in ("interp", "compiled"):
        events = sum(e[executor]["events"] for e in entries)
        cycles = sum(e[executor]["cycles"] for e in entries)
        seconds = sum(e[executor]["seconds"] for e in entries)
        out[executor] = {
            "events_per_sec": round(events / seconds, 1),
            "cycles_per_sec": round(cycles / seconds, 1),
            "seconds": round(seconds, 6),
        }
    out["speedup_events_per_sec"] = round(
        out["compiled"]["events_per_sec"] / out["interp"]["events_per_sec"],
        2,
    )
    return out


def bench_huge(modules: int, seed: int, count: int, n_configs: int,
               repeats: int = 1) -> dict:
    """Events/sec and retiming configs/sec on one generated Type D
    design — the module-count scaling record (100..1000 modules)."""
    from .designs import dsl
    from .trace.vectorized import batch_supported

    build_start = time.perf_counter()
    spec = dsl.generate("D", modules=modules, seed=seed, count=count)
    session = Session.open(dsl.build_design(spec), trace_cache=False)
    session.run(executor="compiled")  # warm: compile + code generation
    build_seconds = time.perf_counter() - build_start

    timed = _timed_run(session, "compiled", repeats)

    baseline = session.baseline(executor="compiled")
    fifos = sorted(baseline.trace.depths)
    configs = [{fifos[i % len(fifos)]: 1 + (i % 7)}
               for i in range(n_configs)]
    start = time.perf_counter()
    rows = session.resimulate_many(configs)
    retime_seconds = time.perf_counter() - start
    declined = sum(1 for r in rows if r is None)

    return {
        "modules": modules,
        "seed": seed,
        "count": count,
        "fifos": len(fifos),
        "build_seconds": round(build_seconds, 4),
        "cycles": timed["cycles"],
        "events": timed["events"],
        "events_per_sec": timed["events_per_sec"],
        "cycles_per_sec": timed["cycles_per_sec"],
        "retime_configs": n_configs,
        "retime_declined": declined,
        "batch_supported": batch_supported(baseline.trace),
        "configs_per_sec": round(n_configs / retime_seconds, 1),
    }


def _percentile(ordered: list, q: float) -> float:
    """Nearest-rank percentile over an already-sorted sample list."""
    idx = max(0, min(len(ordered) - 1,
                     int(round(q * (len(ordered) - 1)))))
    return ordered[idx]


def bench_service(name: str, params: dict, levels, requests: int) -> dict:
    """Service-layer latency and throughput (the ``repro serve`` story).

    Starts a real server (``serve_in_thread``) and measures over real
    HTTP with persistent connections:

    * **cold vs warm** — the first request pays compile + capture
      (``capture: "cold"``); repeats are answered from the pooled
      session's in-memory baseline (``"hot"``).  The acceptance bar is
      warm p50 >= 10x faster than the cold request.
    * **p50/p99 per concurrency level** — each level runs its own set
      of keep-alive client threads against the same server, released
      together through a barrier; requests/sec is measured over the
      whole level's wall clock.
    """
    import http.client
    import threading

    from .service import serve_in_thread

    # Explicit raises, not asserts: these acceptance checks must also
    # fire under `python -O` (the repo runs a stripped-assert CI tier).
    def check(ok: bool, what: str) -> None:
        if not ok:
            raise RuntimeError(f"service bench invariant failed: {what}")

    body = json.dumps({"design": name, "params": params})
    handle = serve_in_thread(workers=4, trace_cache=False)
    try:
        conn = http.client.HTTPConnection("127.0.0.1", handle.port,
                                          timeout=600)
        start = time.perf_counter()
        conn.request("POST", "/v1/run", body)
        resp = conn.getresponse()
        doc = json.loads(resp.read())
        cold_seconds = time.perf_counter() - start
        conn.close()
        check(resp.status == 200, f"cold run failed: {doc}")
        check(doc.get("capture") == "cold", "first request was not cold")
        cycles = doc["cycles"]

        warm = {}
        for level in levels:
            per_thread = max(1, requests // level)
            latencies = [[] for _ in range(level)]
            failures = []
            barrier = threading.Barrier(level + 1)

            def worker(slot, barrier=barrier, latencies=latencies,
                       failures=failures, per_thread=per_thread):
                client = http.client.HTTPConnection(
                    "127.0.0.1", handle.port, timeout=600)
                try:
                    # Throwaway request: opens the keep-alive
                    # connection so the timed loop measures only the
                    # serving path, not TCP setup.
                    client.request("POST", "/v1/run", body)
                    json.loads(client.getresponse().read())
                    barrier.wait()
                    for _ in range(per_thread):
                        t0 = time.perf_counter()
                        client.request("POST", "/v1/run", body)
                        r = client.getresponse()
                        d = json.loads(r.read())
                        latencies[slot].append(time.perf_counter() - t0)
                        if r.status != 200 or d.get("cycles") != cycles:
                            failures.append(d)
                finally:
                    client.close()

            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(level)]
            for t in threads:
                t.start()
            barrier.wait()
            wall_start = time.perf_counter()
            for t in threads:
                t.join()
            wall = time.perf_counter() - wall_start
            check(not failures,
                  f"warm request failed or diverged at concurrency"
                  f" {level}")
            flat = sorted(x for lane in latencies for x in lane)
            warm[str(level)] = {
                "requests": len(flat),
                "rps": round(len(flat) / wall, 1),
                "p50_ms": round(_percentile(flat, 0.50) * 1000, 3),
                "p99_ms": round(_percentile(flat, 0.99) * 1000, 3),
            }
    finally:
        handle.stop()

    warm_p50 = warm[str(levels[0])]["p50_ms"] / 1000.0
    speedup = cold_seconds / warm_p50 if warm_p50 > 0 else float("inf")
    check(speedup >= 10,
          f"warm p50 ({warm_p50 * 1000:.2f} ms) is not >=10x faster"
          f" than the cold request ({cold_seconds * 1000:.0f} ms)")
    return {
        "design": name,
        "params": params,
        "workers": 4,
        "cycles": cycles,
        "cold_seconds": round(cold_seconds, 4),
        "cold_rps": round(1.0 / cold_seconds, 2),
        "warm": warm,
        "warm_p50_speedup_vs_cold": round(speedup, 1),
    }


def run_bench(smoke: bool = False, echo=print) -> dict:
    """Run the full benchmark matrix; returns the report dict."""
    groups = SMOKE_GROUPS if smoke else BENCH_GROUPS
    sweeps = SMOKE_RETIME_SWEEPS if smoke else RETIME_SWEEPS
    dse_sweeps = SMOKE_DSE_SWEEPS if smoke else DSE_SWEEPS
    search_benches = SMOKE_SEARCH_BENCHES if smoke else SEARCH_BENCHES
    search_million = SMOKE_SEARCH_MILLION if smoke else SEARCH_MILLION
    api_batches = SMOKE_API_BATCHES if smoke else API_BATCHES
    trace_benches = SMOKE_TRACE_BENCHES if smoke else TRACE_BENCHES
    batch_retime = (SMOKE_BATCH_RETIME_BENCHES if smoke
                    else BATCH_RETIME_BENCHES)
    huge_benches = SMOKE_HUGE_BENCHES if smoke else HUGE_BENCHES
    service_benches = (SMOKE_SERVICE_BENCHES if smoke
                       else SERVICE_BENCHES)
    report = {
        "generated_at": datetime.now(timezone.utc).isoformat(
            timespec="seconds"
        ),
        "python": platform.python_version(),
        "smoke": smoke,
        "omnisim": {},
        "groups": {},
        "retime": {},
        "dse": {},
        "search": {},
        "batch_retime": {},
        "api": {},
        "trace": {},
        "huge": {},
        "service": {},
    }
    repeats = 1 if smoke else 3
    for group, entries in groups.items():
        results = []
        for name, params in entries:
            echo(f"bench {name} ...")
            entry = bench_design(name, params, repeats=repeats)
            report["omnisim"][name] = entry
            results.append(entry)
            echo(
                f"  interp {entry['interp']['events_per_sec']:>12,.0f}"
                f" ev/s   compiled"
                f" {entry['compiled']['events_per_sec']:>12,.0f} ev/s"
                f"   ({entry['speedup_events_per_sec']:.2f}x)"
            )
        report["groups"][group] = _aggregate(results)
        agg = report["groups"][group]
        echo(
            f"group {group}: {agg['speedup_events_per_sec']:.2f}x"
            f" events/sec (compiled vs interp)"
        )
    for name, params, fifo, depth_range in sweeps:
        echo(f"retime sweep {name} ({fifo}) ...")
        entry = bench_retime(name, params, fifo, depth_range)
        report["retime"][name] = entry
        echo(
            f"  {entry['resimulations_per_sec']:,.0f} re-simulations/s"
            f" ({entry['sweeps_per_sec']:,.1f} full sweeps/s)"
        )
    for label, name, params, specs in dse_sweeps:
        echo(f"dse sweep {label} ({', '.join(specs)}) ...")
        entry = bench_dse(name, params, specs)
        report["dse"][label] = entry
        echo(
            f"  {entry['configs_per_sec']:,.1f} configs/s over"
            f" {entry['configs']} configurations"
            f" ({100 * entry['incremental_fraction']:.0f}% incremental,"
            f" pareto size {entry['pareto_size']},"
            f" {entry['vectorize_speedup']:.2f}x vs scalar)"
        )
    for label, name, params, specs in search_benches:
        echo(f"adaptive search {label} ({', '.join(specs)}) ...")
        entry = bench_search(name, params, specs)
        report["search"][label] = entry
        refined = entry["refine"]
        echo(
            f"  refine {refined['evals']} evals vs"
            f" {entry['exhaustive_evals']} exhaustive"
            f" ({refined['eval_ratio']:.1f}x fewer),"
            f" hv ratio {refined['hv_ratio']:.4f},"
            f" frontier {'identical' if refined['frontier_identical'] else 'approximate'}"
            f" (random baseline hv {entry['random']['hv_ratio']:.4f})"
        )
    m_name, m_params, m_specs, m_budget = search_million
    echo(f"adaptive search million-config ({', '.join(m_specs)},"
         f" budget {m_budget}) ...")
    entry = bench_search_million(m_name, m_params, m_specs, m_budget)
    report["search"]["million_config"] = entry
    echo(
        f"  {entry['space_size']:,} configs searched with"
        f" {entry['evals']} evals"
        f" ({entry['pruned_configs']:,} pruned),"
        f" {'converged' if entry['converged'] else entry['stopped']}"
        f" in {entry['seconds']:.2f}s"
    )
    for label, name, params, fifo, n_configs, sizes in batch_retime:
        echo(f"batch retime {label} ({fifo}, {n_configs} configs) ...")
        entry = bench_batch_retime(name, params, fifo, n_configs, sizes)
        report["batch_retime"][label] = entry
        if entry["supported"]:
            best = max(entry["batch"].values(),
                       key=lambda b: b["configs_per_sec"])
            echo(
                f"  scalar {entry['scalar_configs_per_sec']:,.1f}"
                f" configs/s vs vectorized"
                f" {best['configs_per_sec']:,.1f} configs/s"
                f" ({best['speedup_vs_scalar']:.1f}x)"
            )
        else:
            echo("  vectorized kernel unavailable (scalar only)")
    for name, params, runs, jobs in api_batches:
        echo(f"api batch {name} ({runs} runs, jobs={jobs}) ...")
        entry = bench_api(name, params, runs, jobs)
        report["api"][name] = entry
        echo(
            f"  run() loop {entry['run_loop']['runs_per_sec']:,.1f} runs/s"
            f" vs run_many {entry['run_many_sharded']['runs_per_sec']:,.1f}"
            f" runs/s with {jobs} jobs"
            f" ({entry['speedup_vs_run_loop']:.2f}x,"
            f" {entry['incremental']}/{runs} incremental)"
        )
    for modules, seed, count, n_configs in huge_benches:
        echo(f"huge family d{modules} (seed {seed}) ...")
        entry = bench_huge(modules, seed, count, n_configs,
                           repeats=repeats)
        report["huge"][f"d{modules}"] = entry
        echo(
            f"  {entry['events_per_sec']:>12,.0f} ev/s"
            f" ({entry['cycles_per_sec']:,.0f} cycles/s),"
            f" retime {entry['configs_per_sec']:,.1f} configs/s over"
            f" {entry['fifos']} fifos"
            f" (batch={'yes' if entry['batch_supported'] else 'no'},"
            f" {entry['retime_declined']} declined)"
        )
    for name, params, fifo, depth_range in trace_benches:
        echo(f"trace artifact {name} ({fifo}) ...")
        entry = bench_trace(name, params, fifo, depth_range)
        report["trace"][name] = entry
        echo(
            f"  warm capture {entry['warm_speedup']:.1f}x faster than"
            f" cold ({entry['capture_warm_seconds'] * 1000:.1f} ms vs"
            f" {entry['capture_cold_seconds'] * 1000:.1f} ms,"
            f" {entry['artifact_bytes'] / 1024:.0f} KiB on disk),"
            f" retime"
            f" {entry['retime_sec_per_config_flat'] * 1e6:,.0f} us/config"
        )
    for name, params, levels, n_requests in service_benches:
        echo(f"service {name} (concurrency {'/'.join(map(str, levels))})"
             " ...")
        entry = bench_service(name, params, levels, n_requests)
        report["service"][name] = entry
        top = entry["warm"][str(max(levels))]
        echo(
            f"  cold {entry['cold_seconds'] * 1000:.0f} ms, warm p50"
            f" {entry['warm'][str(levels[0])]['p50_ms']:.2f} ms"
            f" ({entry['warm_p50_speedup_vs_cold']:.0f}x faster),"
            f" {top['rps']:,.0f} req/s at concurrency {max(levels)}"
        )
    return report


def write_report(report: dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def main(smoke: bool = False, out: str = "BENCH_perf.json",
         echo=print) -> int:
    report = run_bench(smoke=smoke, echo=echo)
    write_report(report, out)
    echo(f"wrote {out}")
    return 0
