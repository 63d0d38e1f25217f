"""``sweep_vectorized``: sizing FIFOs when the batch kernel serves every
row.

Three hot calls per pass — ``Session.sweep`` over
``vector_add_stream`` ``sa x sb`` (1024 configs) and ``fig4_ex5 n=400``
``fifo2=2:257`` (256), and ``resimulate_many`` of 64 single-FIFO
configs on the 300-module generated design — plus one cold->warm
trace-store cycle (fresh cache directory: store-miss ``baseline()`` +
first sweep, then a *new* ``Session`` that hits the store).
``trace.vectorized`` and ``trace.store`` do most of the work; capture
happens in set-up.

``--seed`` picks the 64 D300 configs and the configs re-checked
against full runs.
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

from repro.api import Session
from repro.designs import dsl
from repro.dse import DepthSpace
from repro.sim import run_engine
from repro.trace import (
    dumps_artifact,
    loads_artifact,
    resimulate_batch,
)
from repro.trace.vectorized import BatchPlan

#: (kind, design, params, axis specs)
SWEEPS = [
    ("sweep:vas_1024", "vector_add_stream", {}, ["sa=1:32", "sb=1:32"]),
    ("sweep:f4_256", "fig4_ex5", {"n": 400}, ["fifo2=2:257"]),
]
SMOKE_SWEEPS = [
    ("sweep:vas_64", "vector_add_stream", {"n": 256}, ["sa=1:8", "sb=1:8"]),
    ("sweep:f4_32", "fig4_ex5", {"n": 100}, ["fifo2=2:33"]),
]
STORE = ("fig4_ex5", {"n": 400}, ["fifo2=2:257"])
SMOKE_STORE = ("fig4_ex5", {"n": 100}, ["fifo2=2:33"])
RESIM_KIND = "resim:d300_64"
#: configs per sweep re-checked against a full omnisim run
CHECKED = 16


def check_points(check, label: str, compiled, points, rng) -> None:
    """A seeded sample of retimed configs against full runs at those
    depths (``points``: objects with ``depths`` and ``cycles``)."""
    sample = rng.sample(points, min(CHECKED, len(points)))
    for point in sample:
        full = run_engine("omnisim", compiled, depths=point.depths)
        check.cycles(f"{label} {point.depths} vs full run",
                     point.cycles, full.cycles)


class SweepVectorized:
    name = "sweep_vectorized"
    setup_repeats = 3
    cold_kind = "store_cold"

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        self.sweeps = SMOKE_SWEEPS if smoke else SWEEPS
        self.store = SMOKE_STORE if smoke else STORE
        self.huge = (60, 0) if smoke else (300, 0)
        self.throughput_kinds = [k for k, *_ in self.sweeps] + [RESIM_KIND]
        self.primary_kinds = self.throughput_kinds
        self.sessions: dict = {}
        self.last: dict = {}

    def setup(self) -> None:
        self.sessions = {
            kind: Session.open(design, trace_cache=False, **params)
            for kind, design, params, _specs in self.sweeps}
        modules, gen_seed = self.huge
        self.sessions[RESIM_KIND] = Session.open(
            dsl.build_design(dsl.generate("D", modules=modules,
                                          seed=gen_seed, count=16)),
            trace_cache=False)
        for session in self.sessions.values():
            session.baseline()
        fifos = sorted(self.sessions[RESIM_KIND].compiled.stream_depths())
        rng = random.Random(self.seed)
        self.resim_configs = [{rng.choice(fifos): rng.randint(1, 7)}
                              for _ in range(64)]
        self.run_pass(Recorder(Checker()))  # untimed warm-up

    def teardown(self) -> None:
        self.sessions = {}

    def verify(self, check) -> None:
        rng = random.Random(self.seed + 1)
        for kind, _design, _params, _specs in self.sweeps:
            check_points(check, kind, self.sessions[kind].compiled,
                         self.last[kind].points, rng)
        served = [row for row in self.last[RESIM_KIND] if row is not None]
        check.ok("d300 rows served", bool(served))
        check_points(check, RESIM_KIND,
                     self.sessions[RESIM_KIND].compiled, served, rng)

    # -- timed pass -----------------------------------------------------

    def _store_cycle(self, rec) -> None:
        design, params, specs = self.store
        with tempfile.TemporaryDirectory(dir=harness.TMP) as tmp:
            with rec.op("store_cold") as info:
                cold = Session.open(design, trace_cache=tmp, **params)
                base = cold.baseline()
                sweep = cold.sweep(specs)
                info["work"] = sweep.evaluated
            with rec.op("store_warm") as info:
                warm = Session.open(design, trace_cache=tmp, **params)
                warm_base = warm.baseline()
                warm_sweep = warm.sweep(specs)
                info["work"] = warm_sweep.evaluated
        rec.check.ok("store miss then hit",
                     base.phase_seconds.get("capture") == "cold"
                     and warm_base.phase_seconds.get("capture") == "warm")
        rec.check.cycles("warm baseline vs cold", warm_base.cycles,
                         base.cycles)
        rec.check.ok("warm sweep equals cold sweep",
                     [p.cycles for p in warm_sweep.points]
                     == [p.cycles for p in sweep.points])

    def run_pass(self, rec) -> None:
        for kind, _design, _params, specs in self.sweeps:
            with rec.op(kind) as info:
                sweep = self.last[kind] = self.sessions[kind].sweep(specs)
                info["work"] = sweep.evaluated
            modes = sweep.mode_counts
            rec.expect_same(kind, (
                sweep.evaluated, sorted(modes.items()), len(sweep.pareto()),
                sum(p.cycles or 0 for p in sweep.points)))
            rec.check.ok(f"{kind} all rows vectorized",
                         modes == {"vectorized": sweep.evaluated})
        with rec.op(RESIM_KIND) as info:
            rows = self.last[RESIM_KIND] = self.sessions[
                RESIM_KIND].resimulate_many(self.resim_configs)
            info["work"] = len(rows)
        rec.expect_same(RESIM_KIND,
                        [None if r is None else r.cycles for r in rows])
        self._store_cycle(rec)

    # -- traced pass ----------------------------------------------------

    def traced(self, tr, check, seconds: float) -> dict:
        deadline = time.perf_counter() + seconds / 2
        stats = SweepStats()
        while not stats.iterations or time.perf_counter() < deadline:
            stats.begin()
            for kind, _design, _params, specs in self.sweeps:
                stats.compare(tr, check, kind, self.sessions[kind], specs)
        values = stats.values()
        values.update(self._kernel_probes(tr))
        values.update(self._store_probes(tr, check))
        return values

    def _kernel_probes(self, tr) -> dict:
        """``trace.vectorized`` against the scalar kernel on the widest
        sweep's artifact (1024 full-depth rows)."""
        kind, _design, _params, specs = self.sweeps[0]
        session = self.sessions[kind]
        art = session.trace
        base = session.compiled.stream_depths()
        configs = [dict(base, **c)
                   for c in DepthSpace.parse(specs).configurations()]
        sample = configs[::max(1, len(configs) // 32)]
        probes = {
            "trace.vectorized.plan_build": lambda: BatchPlan(art),
            "trace.vectorized.resimulate_batch":
                lambda: resimulate_batch(art, configs),
            "trace.vectorized.resimulate_batch64":
                lambda: [resimulate_batch(art, configs[lo:lo + 64])
                         for lo in range(0, len(configs), 64)],
            "trace.columnar.resimulate":
                lambda: [art.resimulate(c) for c in sample],
        }
        first = len(tr.spans)
        for name, fn in probes.items():
            # back to back, so the median is a warm-cache run: that is
            # how a sweep meets the kernel
            for _ in range(3):
                with tr.bracket(), tr.span(name):
                    fn()
        wall = {name: statistics.median(v) for name, v in
                seconds_by_name(tr.spans[first:]).items()}
        rows = resimulate_batch(art, configs)
        per_config = wall["trace.vectorized.resimulate_batch"] / len(configs)
        return {
            "trace.vectorized.plan_build_s":
                wall["trace.vectorized.plan_build"],
            "trace.vectorized.batch_configs_per_s": 1.0 / per_config,
            "trace.vectorized.batch64_configs_per_s":
                len(configs) / wall["trace.vectorized.resimulate_batch64"],
            "trace.vectorized.declined_share":
                sum(1 for r in rows if r is None) / len(rows),
            "trace.vectorized.speedup_vs_scalar":
                wall["trace.columnar.resimulate"] / len(sample) / per_config,
        }

    def _store_probes(self, tr, check) -> dict:
        """``trace.store`` and the ``api`` calls around it: five
        cold->warm cycles, each in a fresh cache directory."""
        design, params, specs = self.store
        first = len(tr.spans)
        hits = lookups = 0
        for _ in range(5):
            with tempfile.TemporaryDirectory(dir=harness.TMP) as tmp, \
                    tr.bracket():
                with tr.span("api.session_open"):
                    cold = Session.open(design, trace_cache=tmp, **params)
                with tr.span("api.baseline_cold"):
                    base = cold.baseline()
                with tr.span("api.warm_open"):
                    warm = Session.open(design, trace_cache=tmp, **params)
                    with tr.span("api.baseline_warm"):
                        warm_base = warm.baseline()
                    warm.sweep(specs)
                lookups += 2
                hits += warm_base.phase_seconds.get("capture") == "warm"
                store, digest = cold.trace_store, cold.trace_digest()
                art = cold.trace
                with tr.span("trace.store.dumps"):
                    blob = dumps_artifact(art)
                with tr.span("trace.store.loads"):
                    loaded = loads_artifact(blob)
                with tr.span("trace.store.put"):
                    store.put(digest, art)
                with tr.span("trace.store.get"):
                    got = store.get(digest)
            check.cycles("store round trip", got.total_cycles(), base.cycles)
            check.cycles("loads round trip", loaded.total_cycles(),
                         base.cycles)
        session = self.sessions[self.sweeps[0][0]]
        depth = session.compiled.stream_depths()["sc"]
        batch = [{"depths": {"sc": depth + i}} for i in range(16)]
        with tr.bracket(), tr.span("api.run_many"):
            runs = session.run_many(batch, jobs=1)
        check.ok("run_many all ok", all(r.failure is None for r in runs))
        wall = {name: statistics.median(v) for name, v in seconds_by_name(
            tr.spans[first:], self_only=False).items()}
        return {
            "trace.store.dumps_s": wall["trace.store.dumps"],
            "trace.store.loads_s": wall["trace.store.loads"],
            "trace.store.put_s": wall["trace.store.put"],
            "trace.store.get_s": wall["trace.store.get"],
            "trace.store.artifact_bytes": len(blob),
            "trace.store.hit_share": hits / lookups,
            "api.session_open_s": wall["api.session_open"],
            "api.baseline_cold_s": wall["api.baseline_cold"],
            "api.baseline_warm_s": wall["api.baseline_warm"],
            "api.warm_open_ms": 1e3 * wall["api.warm_open"],
            "api.run_many_runs_per_s": len(batch) / wall["api.run_many"],
        }
