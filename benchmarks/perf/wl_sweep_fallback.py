"""``sweep_fallback``: the dse and retiming layers used the other way.

``fig4_ex5 n=400`` swept over ``fifo1 x fifo2``: constraint flips make
the batch kernel decline almost every row, so scalar
``trace.columnar.resimulate``, constraint validation, full
re-simulation and search bookkeeping dominate.  Per pass: the
exhaustive 32x32 sweep (1024 evals), the same space with
``strategy="refine"``, the 1024x1024 space with ``refine`` under
``max_evals=512``, and one from-nothing refine sweep on a fresh
``Session`` (capture included — what ``repro dse --strategy refine``
costs cold).  A vectorized gain bought by slowing the decline path, or
a search change that costs evals, shows here and nowhere else.

``--seed`` picks the configs re-checked against full runs.
"""

from __future__ import annotations

import random
import statistics
import tempfile
import time

import harness
from harness import Checker, Recorder
from layers import SweepStats
from tracer import seconds_by_name
from wl_sweep_vectorized import check_points

from repro.api import Session
from repro.dse import hypervolume, pareto_vectors

DESIGN, PARAMS = "fig4_ex5", {"n": 400}
SPACE = ["fifo1=1:32", "fifo2=1:32"]
HUGE_SPACE = ["fifo1=1:1024", "fifo2=1:1024"]
SMOKE_PARAMS = {"n": 100}
SMOKE_SPACE = ["fifo1=1:8", "fifo2=1:8"]
EXHAUSTIVE = "sweep:exhaustive"
REFINE = "sweep:refine"
REFINE_HUGE = "sweep:refine_huge"
#: single-FIFO depths the retime-kernel probes replay (uncongested axis)
RETIME_DEPTHS = range(3, 35)


class SweepFallback:
    name = "sweep_fallback"
    setup_repeats = 3
    cold_kind = "cold_refine"
    throughput_kinds = [EXHAUSTIVE, REFINE, REFINE_HUGE]
    primary_kinds = throughput_kinds

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        self.params = SMOKE_PARAMS if smoke else PARAMS
        space = SMOKE_SPACE if smoke else SPACE
        self.calls = [
            (EXHAUSTIVE, space, {}),
            (REFINE, space, {"strategy": "refine"}),
            (REFINE_HUGE, HUGE_SPACE, {"strategy": "refine",
                                       "max_evals": 512}),
        ]
        self.session = None
        self.last: dict = {}

    def setup(self) -> None:
        self.session = Session.open(DESIGN, trace_cache=False, **self.params)
        self.session.baseline()
        self.run_pass(Recorder(Checker()))  # untimed warm-up

    def teardown(self) -> None:
        self.session = None

    def verify(self, check) -> None:
        rng = random.Random(self.seed + 1)
        for kind, _space, _kwargs in self.calls:
            check_points(check, kind, self.session.compiled,
                         self.last[kind].points, rng)
        check.ok("refine frontier equals exhaustive frontier",
                 sorted(pareto_vectors(self.last[REFINE].points))
                 == sorted(pareto_vectors(self.last[EXHAUSTIVE].points)))

    def run_pass(self, rec) -> None:
        for kind, space, kwargs in self.calls:
            with rec.op(kind) as info:
                sweep = self.last[kind] = self.session.sweep(space, **kwargs)
                info["work"] = sweep.evaluated
            rec.expect_same(kind, (
                sweep.evaluated, sorted(sweep.mode_counts.items()),
                sorted(pareto_vectors(sweep.points))))
        _kind, space, kwargs = self.calls[1]
        with rec.op("cold_refine") as info:
            cold = Session.open(DESIGN, trace_cache=False,
                                **self.params).sweep(space, **kwargs)
            info["work"] = cold.evaluated
        rec.check.ok("cold refine equals hot refine",
                     pareto_vectors(cold.points)
                     == pareto_vectors(self.last[REFINE].points))

    # -- traced pass ----------------------------------------------------

    def traced(self, tr, check, seconds: float) -> dict:
        _kind, space, _kwargs = self.calls[0]
        deadline = time.perf_counter() + seconds / 2
        stats = SweepStats()
        while not stats.iterations or time.perf_counter() < deadline:
            stats.begin()
            stats.compare(tr, check, EXHAUSTIVE, self.session, space)
            with tr.bracket(), tr.span("dse.refine"):
                refine = self.session.sweep(space, strategy="refine")
        values = stats.values()
        sweep = stats.sweeps[0]
        truth = pareto_vectors(sweep.points)
        ref = (max(c for c, _ in truth) * 1.1 + 1,
               max(b for _, b in truth) * 1.1 + 1)
        values.update({
            "dse.refine_evals": refine.evaluated,
            "dse.refine_evals_saved": sweep.evaluated / refine.evaluated,
            "dse.refine_hv_ratio":
                hypervolume(pareto_vectors(refine.points), ref)
                / hypervolume(truth, ref),
        })
        values.update(self._retime_probes(tr, check))
        values.update(self._exec_probes(tr, check, space,
                                        values["dse.explore_s"]))
        return values

    def _retime_probes(self, tr, check) -> dict:
        """The three scalar retiming kernels on one uncongested axis:
        object graph, columnar retime, columnar resimulate (= retime +
        constraint validation)."""
        base = self.session.baseline()
        graph, art = base.graph, self.session.trace
        depths = self.session.compiled.stream_depths()
        configs = [dict(depths, fifo2=d) for d in RETIME_DEPTHS]
        check.ok("flat and object retime agree",
                 graph.retime(configs[-1]) == art.retime(configs[-1]))
        kernels = {"sim.graph.retime": graph.retime,
                   "trace.columnar.retime": art.retime,
                   "trace.columnar.resimulate": art.resimulate}
        first = len(tr.spans)
        for _ in range(5):
            for name, fn in kernels.items():
                with tr.bracket(), tr.span(name):
                    for config in configs:
                        fn(config)
        per_config = {
            name: statistics.median(v) / len(configs) for name, v in
            seconds_by_name(tr.spans[first:]).items()}
        flat_s = per_config["trace.columnar.retime"]
        resim_s = per_config["trace.columnar.resimulate"]
        return {
            "sim.graph.retime_s": per_config["sim.graph.retime"],
            "trace.columnar.retime_ns_per_node":
                1e9 * flat_s / art.node_count,
            "trace.columnar.resimulate_s": resim_s,
            "trace.columnar.validate_share": (resim_s - flat_s) / resim_s,
            "trace.columnar.flat_vs_object":
                flat_s / per_config["sim.graph.retime"],
            "trace.columnar.nodes": art.node_count,
            "trace.columnar.nbytes": art.nbytes(),
        }

    def _exec_probes(self, tr, check, space, jobs1_s: float) -> dict:
        """The supervised pool (2 workers: the box has 2 cores) and the
        checkpoint journal, on the exhaustive sweep."""
        session = self.session
        with tr.bracket(), tr.span("exec.jobs2") as jobs2:
            pooled = session.sweep(space, jobs=2)
        with tempfile.TemporaryDirectory(dir=harness.TMP) as tmp, \
                tr.bracket(), tr.span("exec.journal") as journal:
            journaled = session.sweep(space,
                                      checkpoint=f"{tmp}/sweep.jsonl")
        reference = [p.cycles for p in self.last[EXHAUSTIVE].points]
        check.ok("jobs=2 sweep equals jobs=1",
                 [p.cycles for p in pooled.points] == reference)
        check.ok("journaled sweep equals plain",
                 [p.cycles for p in journaled.points] == reference)
        supervision = pooled.supervision or {}
        return {
            "exec.jobs2_speedup": jobs1_s / tr.seconds(jobs2),
            "exec.journal_overhead_pct":
                100.0 * (tr.seconds(journal) / jobs1_s - 1.0),
            "exec.retries": supervision.get("retries", 0),
            "exec.quarantined": len(supervision.get("quarantined", ())),
        }
