"""The user calls of the benchmark, unrolled into explicit chains of
public layer calls with one span per layer boundary.

The traced pass runs these in place of ``Session.open(...).run()`` /
``baseline()`` / ``sweep()`` so that host time can be attributed to the
layer (module) that spent it without touching ``src/``.  Span names are
``<layer>.<call>``; :data:`CAPTURE_OP_SPANS` lists the ones that make
up the untraced op (the rest are extra probes).  Callers open a
``tr.bracket()`` around each chain, so every second read back from the
spans is speed-normalised.
"""

from __future__ import annotations

import gc
import statistics
import time

from tracer import seconds_by_name

from repro import CompiledDesign, CompiledModule
from repro.dse import (
    DepthSpace,
    MODE_FULL,
    MODE_SCALAR_FALLBACK,
    MODE_VECTORIZED,
    SOURCE_DEADLOCK,
    SOURCE_FULL,
    SOURCE_INCREMENTAL,
    SweepPoint,
    pareto_front,
)
from repro.errors import ConstraintViolation, DeadlockError, SimulationError
from repro.sim import create_engine, run_engine
from repro.sim.context import build_runtime_state, make_executor
from repro.synthesis import (
    DEFAULT_CONFIG,
    estimate_function_latency,
    schedule_function,
)
from repro.trace import (
    DEFAULT_BATCH_SIZE,
    TraceArtifact,
    batch_supported,
    replay_trace,
    resimulate_batch,
)

#: spans whose self times add up to one untraced run()/baseline() op;
#: the artifact spans join them when the op ends sweep-ready
CAPTURE_OP_SPANS = ("designs.build", "frontend.compile",
                    "synthesis.schedule", "interp.executor_build",
                    "sim.capture")
ARTIFACT_SPANS = ("trace.columnar.build", "trace.columnar.static_build")
CHAIN_SPAN = "capture.chain"


def _build_executors(compiled) -> None:
    state = build_runtime_state(compiled)
    for module in compiled.modules:
        make_executor(module, state.bindings[module.name])


def capture_chain(tr, make_design) -> dict:
    """``Session.open(design).baseline()`` + ``.trace`` +
    ``ensure_static()`` as explicit layer calls, all under one
    ``capture.chain`` span whose self time is the glue between them.

    ``interp.executor_build`` is the first (program-compiling) executor
    construction; ``interp.executor_rebuild`` repeats it with the
    programs cached, which is also what the engine does inside
    ``sim.capture`` — so the rebuild span is a probe, not part of the
    op."""
    with tr.span(CHAIN_SPAN):
        with tr.span("designs.build"):
            design = make_design()
            design.validate()
        with tr.span("frontend.compile"):
            functions = [inst.kernel.compile(inst.const_bindings)
                         for inst in design.instances]
        with tr.span("synthesis.schedule"):
            schedules = [schedule_function(fn, DEFAULT_CONFIG)
                         for fn in functions]
            latencies = [estimate_function_latency(s) for s in schedules]
        compiled = CompiledDesign(design, config=DEFAULT_CONFIG, modules=[
            CompiledModule(instance=inst, function=fn, schedule=sched,
                           static_latency=lat)
            for inst, fn, sched, lat in zip(design.instances, functions,
                                            schedules, latencies)])
        with tr.span("interp.executor_build"):
            _build_executors(compiled)
        with tr.span("interp.executor_rebuild"):
            _build_executors(compiled)
        with tr.span("sim.capture"):
            result = create_engine("omnisim", compiled).run()
        with tr.span("trace.columnar.build"):
            artifact = TraceArtifact.from_result(result)
        with tr.span("trace.columnar.static_build"):
            artifact.ensure_static()
    counts = {
        "designs.modules": len(design.instances),
        "designs.fifos": len(design.streams),
        "frontend.ir_instrs": sum(
            sum(1 for _ in fn.iter_instructions()) for fn in functions),
        "synthesis.fsm_states": sum(
            s.total_static_states for s in schedules),
        "sim.events": result.stats.events,
        "sim.cycles": result.cycles,
        "sim.queries": result.stats.queries,
        "trace.columnar.nodes": artifact.node_count,
        "trace.columnar.nbytes": artifact.nbytes(),
    }
    for name, value in counts.items():
        tr.count(name, value)
    return {"compiled": compiled, "result": result,
            "artifact": artifact, "counts": counts}


def direct_sweep(tr, reference, compiled, base_depths: dict, configs,
                 batch_size: int = DEFAULT_BATCH_SIZE) -> list:
    """Push ``configs`` straight through the retiming layers the way
    ``Session.sweep`` evaluates them — batch kernel first, scalar
    replay for declined rows, a full re-capturing run when a recorded
    constraint flips — without the dse driver around it.  Returns the
    :class:`~repro.dse.SweepPoint` list in config order; the wall of
    this call against ``explore`` is the driver's share."""
    points = []
    for lo in range(0, len(configs), batch_size):
        chunk = [dict(base_depths, **c) for c in configs[lo:lo + batch_size]]
        art = replay_trace(reference)
        with tr.span("trace.vectorized.resimulate_batch"):
            rows = (resimulate_batch(art, chunk)
                    if len(chunk) > 1 and batch_supported(art)
                    else [None] * len(chunk))
        for depths, row in zip(chunk, rows):
            start = time.perf_counter()
            if row is not None:
                points.append(SweepPoint(
                    row.depths, row.cycles, row.buffer_bits,
                    SOURCE_INCREMENTAL, row.seconds, mode=MODE_VECTORIZED))
                continue
            try:
                with tr.span("trace.columnar.resimulate"):
                    inc = replay_trace(reference).resimulate(depths)
            except (ConstraintViolation, SimulationError):
                pass
            else:
                points.append(SweepPoint(
                    depths, inc.cycles, inc.buffer_bits,
                    SOURCE_INCREMENTAL, time.perf_counter() - start,
                    mode=MODE_SCALAR_FALLBACK))
                continue
            bits = replay_trace(reference).buffer_bits(depths)
            try:
                with tr.span("sim.full_run"):
                    fresh = run_engine("omnisim", compiled, depths=depths)
            except DeadlockError:
                points.append(SweepPoint(
                    depths, None, bits, SOURCE_DEADLOCK,
                    time.perf_counter() - start, mode=MODE_FULL))
                continue
            reference = fresh
            points.append(SweepPoint(
                depths, fresh.cycles, bits, SOURCE_FULL,
                time.perf_counter() - start, mode=MODE_FULL))
    with tr.span("dse.pareto"):
        pareto_front(points)
    return points


class SweepStats:
    """``Session.sweep`` against :func:`direct_sweep` on the same
    configs, over several traced iterations: the ``dse`` layer's
    metrics, the driver's share, and how much of the call the spans
    account for."""

    WALLS = ("explore_s", "direct_s", "attributed_s", "pareto_s")

    def __init__(self):
        #: one dict of summed walls per iteration
        self.iterations: list = []
        #: the sweeps of the latest iteration
        self.sweeps: list = []

    def begin(self) -> None:
        self.iterations.append(dict.fromkeys(self.WALLS, 0.0))
        self.sweeps = []

    def compare(self, tr, check, kind: str, session, specs) -> None:
        walls = self.iterations[-1]
        gc.collect()
        with tr.bracket(), tr.span("untraced.sweep") as whole:
            sweep = session.sweep(specs)
        walls["explore_s"] += tr.seconds(whole)
        configs = list(DepthSpace.parse(specs).configurations())
        gc.collect()
        first = len(tr.spans)
        with tr.op(kind), tr.bracket(), tr.span("direct.sweep") as whole:
            points = direct_sweep(tr, session.baseline(), session.compiled,
                                  session.compiled.stream_depths(), configs)
        walls["direct_s"] += tr.seconds(whole)
        # the layer spans inside the direct push; its own self time is
        # the glue no layer accounts for
        walls["attributed_s"] += sum(
            sum(v) for name, v in seconds_by_name(tr.spans[first:]).items()
            if name != "direct.sweep")
        with tr.bracket(), tr.span("dse.pareto") as whole:
            pareto_front(sweep.points)
        walls["pareto_s"] += tr.seconds(whole)
        check.ok(f"{kind} direct push equals sweep",
                 [(p.depths, p.cycles, p.mode) for p in points]
                 == [(p.depths, p.cycles, p.mode) for p in sweep.points])
        self.sweeps.append(sweep)

    def values(self) -> dict:
        wall = {name: statistics.median(it[name] for it in self.iterations)
                for name in self.WALLS}
        modes: dict = {}
        for sweep in self.sweeps:
            for mode, count in sweep.mode_counts.items():
                modes[mode] = modes.get(mode, 0) + count
        explore = wall["explore_s"]
        return {
            "dse.explore_s": explore,
            "dse.evaluated": sum(s.evaluated for s in self.sweeps),
            "dse.mode_vectorized": modes.get(MODE_VECTORIZED, 0),
            "dse.mode_scalar_fallback": modes.get(MODE_SCALAR_FALLBACK, 0),
            "dse.mode_full": modes.get(MODE_FULL, 0),
            "dse.driver_share": (explore - wall["direct_s"]) / explore,
            "dse.pareto_s": wall["pareto_s"],
            "dse.pareto_size": sum(len(s.pareto()) for s in self.sweeps),
            "trace_overhead_pct":
                100.0 * (wall["direct_s"] / explore - 1.0),
            "attribution_gap_pct":
                100.0 * (1.0 - wall["attributed_s"] / explore),
        }


class ChainStats:
    """Capture-chain spans of several traced passes, reduced to one
    number per layer: the per-design median, summed over designs."""

    def __init__(self, op_spans):
        #: span names whose self times make up the untraced op
        self.op_spans = tuple(op_spans)
        self.by_span: dict = {}
        self.counts: dict = {}

    def add(self, design: str, spans, counts: dict) -> bool:
        """Record one traced op (its bracket must have closed); False
        when its exact counts differ from the first pass's."""
        for name, values in seconds_by_name(spans).items():
            self.by_span.setdefault(name, {}).setdefault(
                design, []).append(sum(values))
        return self.counts.setdefault(design, counts) == counts

    def layer_s(self, span: str) -> float:
        return sum(statistics.median(v)
                   for v in self.by_span.get(span, {}).values())

    def attributed_s(self) -> float:
        return sum(self.layer_s(name) for name in self.op_spans)

    def total_counts(self) -> dict:
        keys = next(iter(self.counts.values()))
        return {key: sum(c[key] for c in self.counts.values())
                for key in keys}

    def layer_values(self, untraced_op_s: float) -> dict:
        """The per-layer metrics every capture workload reports;
        ``untraced_op_s`` is the speed-normalised wall of the user
        calls the chain replaces."""
        capture_s = self.layer_s("sim.capture")
        total = self.total_counts()
        traced_op_s = self.attributed_s() + self.layer_s(CHAIN_SPAN)
        values = {
            "designs.build_s": self.layer_s("designs.build"),
            "frontend.compile_s": self.layer_s("frontend.compile"),
            "synthesis.schedule_s": self.layer_s("synthesis.schedule"),
            "interp.executor_build_s":
                self.layer_s("interp.executor_build"),
            "interp.executor_rebuild_s":
                self.layer_s("interp.executor_rebuild"),
            "sim.capture_s": capture_s,
            "sim.capture_events_per_s": total["sim.events"] / capture_s,
            "sim.cycles_per_s": total["sim.cycles"] / capture_s,
            "trace.columnar.build_s": self.layer_s(ARTIFACT_SPANS[0]),
            "trace.columnar.static_build_s":
                self.layer_s(ARTIFACT_SPANS[1]),
            "trace_overhead_pct":
                100.0 * (traced_op_s / untraced_op_s - 1.0),
            "attribution_gap_pct":
                100.0 * (1.0 - self.attributed_s() / untraced_op_s),
        }
        values.update(total)
        return values
