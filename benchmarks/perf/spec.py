"""What the benchmark measures: workloads, metrics, bounds.

The single source for ``BENCHMARK.json`` (``run.py --write-manifest``
regenerates it from here; ``test_harness.py`` fails when they drift)
and for the shape of the result line every run prints.
"""

from __future__ import annotations

COMMAND = ["python3", "benchmarks/perf/run.py"]
PATHS = ["benchmarks/perf"]
RUN_SECONDS = 12

#: name -> why it exists (one line each; README.md has the long form)
WORKLOADS = {
    "run_cold": (
        "12 registry designs each run once per fresh interpreter, plus "
        "`python -m repro run` subprocesses: capture (interp + sim) "
        "dominates, retiming does nothing"),
    "capture_scale": (
        "generated Type D designs at 100/300/1000 modules taken to "
        "sweep-ready: shifts work to design build, frontend, scheduling "
        "and the static trace build; shows super-linear growth"),
    "sweep_vectorized": (
        "hot Session.sweep / resimulate_many calls served entirely by "
        "the NumPy batch kernel, plus cold->warm trace-store cycles: "
        "trace.vectorized and trace.store dominate"),
    "sweep_fallback": (
        "the same dse layers where constraint flips make the batch "
        "decline: scalar resimulate, validation, full re-simulation "
        "and refine-search bookkeeping dominate"),
    "serve_sweep": (
        "`python -m repro serve --workers 2` under a closed loop of a "
        "seeded /v1/sweep + /v1/run mix on 1 then 2 keep-alive "
        "connections: wire, pool, single-flight, thread hand-off dominate"),
}

#: (name, unit, better, bound) — every workload reports every one with
#: tracing off; values are medians, so none is ever zero.  Bounds are at
#: least three times the run-to-run spread measured on the reference
#: box (README.md, "Noise") for the steadier workloads, and always
#: about twice the widest spread seen on any workload.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.15),
    ("work_per_s", "1/s", "higher", 0.25),
    ("call_p50_ms", "ms", "lower", 0.20),
    ("cold_call_ms", "ms", "lower", 0.25),
]

_EXACT = "count"

#: (name, unit, better) — reported by the traced pass; a workload that
#: does not exercise a layer reports 0 for it (README.md: which
#: workload exercises which).  Metrics whose unit is ``count`` are
#: deterministic and must repeat bit-for-bit across passes.
PER_LAYER = [
    ("designs.build_s", "s", "lower"),
    ("designs.modules", _EXACT, "lower"),
    ("designs.fifos", _EXACT, "lower"),
    ("frontend.compile_s", "s", "lower"),
    ("frontend.ir_instrs", _EXACT, "lower"),
    ("synthesis.schedule_s", "s", "lower"),
    ("synthesis.fsm_states", _EXACT, "lower"),
    ("interp.executor_build_s", "s", "lower"),
    ("interp.executor_rebuild_s", "s", "lower"),
    ("interp.funcsim_s", "s", "lower"),
    ("interp.instrs_per_s", "1/s", "higher"),
    ("interp.compiled_vs_interp", "ratio", "higher"),
    ("sim.capture_s", "s", "lower"),
    ("sim.capture_events_per_s", "1/s", "higher"),
    ("sim.cycles_per_s", "1/s", "higher"),
    ("sim.events", _EXACT, "lower"),
    ("sim.cycles", _EXACT, "lower"),
    ("sim.queries", _EXACT, "lower"),
    ("sim.perfsim_ratio", "ratio", "lower"),
    ("sim.cosim_s", "s", "lower"),
    ("sim.speedup_vs_cosim", "ratio", "higher"),
    ("sim.scale_events_ratio", "ratio", "higher"),
    ("sim.graph.retime_s", "s", "lower"),
    ("trace.columnar.build_s", "s", "lower"),
    ("trace.columnar.static_build_s", "s", "lower"),
    ("trace.columnar.nodes", _EXACT, "lower"),
    ("trace.columnar.nbytes", _EXACT, "lower"),
    ("trace.columnar.retime_ns_per_node", "ns", "lower"),
    ("trace.columnar.resimulate_s", "s", "lower"),
    ("trace.columnar.validate_share", "ratio", "lower"),
    ("trace.columnar.flat_vs_object", "ratio", "lower"),
    ("trace.vectorized.plan_build_s", "s", "lower"),
    ("trace.vectorized.batch_configs_per_s", "1/s", "higher"),
    ("trace.vectorized.batch64_configs_per_s", "1/s", "higher"),
    ("trace.vectorized.declined_share", "ratio", "lower"),
    ("trace.vectorized.speedup_vs_scalar", "ratio", "higher"),
    ("trace.store.dumps_s", "s", "lower"),
    ("trace.store.loads_s", "s", "lower"),
    ("trace.store.put_s", "s", "lower"),
    ("trace.store.get_s", "s", "lower"),
    ("trace.store.artifact_bytes", _EXACT, "lower"),
    ("trace.store.hit_share", "ratio", "higher"),
    ("dse.explore_s", "s", "lower"),
    ("dse.evaluated", _EXACT, "lower"),
    ("dse.mode_vectorized", _EXACT, "higher"),
    ("dse.mode_scalar_fallback", _EXACT, "lower"),
    ("dse.mode_full", _EXACT, "lower"),
    ("dse.driver_share", "ratio", "lower"),
    ("dse.pareto_s", "s", "lower"),
    ("dse.pareto_size", _EXACT, "higher"),
    ("dse.refine_evals", _EXACT, "lower"),
    ("dse.refine_evals_saved", "ratio", "higher"),
    ("dse.refine_hv_ratio", "ratio", "higher"),
    ("exec.jobs2_speedup", "ratio", "higher"),
    ("exec.journal_overhead_pct", "%", "lower"),
    ("exec.retries", _EXACT, "lower"),
    ("exec.quarantined", _EXACT, "lower"),
    ("api.session_open_s", "s", "lower"),
    ("api.baseline_cold_s", "s", "lower"),
    ("api.baseline_warm_s", "s", "lower"),
    ("api.warm_open_ms", "ms", "lower"),
    ("api.run_many_runs_per_s", "1/s", "higher"),
    ("service.wire.parse_us", "us", "lower"),
    ("service.wire.dumps_us", "us", "lower"),
    ("service.response_bytes", _EXACT, "lower"),
    ("service.solo_p50_ms", "ms", "lower"),
    ("service.solo_rps", "1/s", "higher"),
    ("service.duo_p50_ms", "ms", "lower"),
    ("service.duo_p95_ms", "ms", "lower"),
    ("service.duo_rps", "1/s", "higher"),
    ("service.concurrency_scaling", "ratio", "higher"),
    ("service.server_share", "ratio", "higher"),
    ("service.hot_run_p50_ms", "ms", "lower"),
    ("service.cold_req_ms", "ms", "lower"),
    ("service.path_hot", _EXACT, "higher"),
    ("service.path_cold", _EXACT, "lower"),
    ("service.path_coalesced", _EXACT, "lower"),
    ("service.http_errors", _EXACT, "lower"),
    ("cli.cold_s", "s", "lower"),
    ("cli.interpreter_s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.import_share", "ratio", "lower"),
    ("trace_overhead_pct", "%", "lower"),
    ("attribution_gap_pct", "%", "lower"),
]

END_TO_END_UNITS = {name: unit for name, unit, _b, _bound in END_TO_END}
PER_LAYER_UNITS = {name: unit for name, unit, _b in PER_LAYER}


def manifest() -> dict:
    """The ``BENCHMARK.json`` document (exactly the contract's keys)."""
    return {
        "command": list(COMMAND),
        "paths": list(PATHS),
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why}
                      for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in PER_LAYER],
    }


def result_problems(doc, trace: bool) -> list:
    """Why ``doc`` is not a valid result line (empty list when it is):
    exact key set, integer op counts, and one numeric value with the
    declared unit for every metric of the mode that produced it."""
    problems = []
    if not isinstance(doc, dict) or set(doc) != {
            "correct", "attempted", "failed", "metrics"}:
        return ["result must have exactly the keys correct, attempted, "
                "failed, metrics"]
    if not isinstance(doc["correct"], bool):
        problems.append("correct must be a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(doc[key], int) or isinstance(doc[key], bool):
            problems.append(f"{key} must be a whole number")
    if isinstance(doc["attempted"], int) and doc["attempted"] < 1:
        problems.append("attempted must be at least 1")
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    metrics = doc["metrics"]
    if not isinstance(metrics, dict) or set(metrics) != set(units):
        missing = sorted(set(units) - set(metrics or ()))
        extra = sorted(set(metrics or ()) - set(units))
        problems.append(f"metrics mismatch: missing {missing}, "
                        f"unexpected {extra}")
        return problems
    for name, entry in metrics.items():
        value = entry.get("value") if isinstance(entry, dict) else None
        if (not isinstance(value, (int, float)) or isinstance(value, bool)
                or value != value or value in (float("inf"),
                                               float("-inf"))):
            problems.append(f"{name}: value must be a finite number")
        elif entry.get("unit") != units[name]:
            problems.append(f"{name}: unit must be {units[name]!r}")
        elif not trace and value == 0:
            problems.append(f"{name}: end-to-end metrics are never 0")
    return problems
