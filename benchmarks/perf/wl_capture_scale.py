"""``capture_scale``: does throughput hold with design size?

Generated Type D designs at 100 / 300 / 1000 modules, each op taking
one from a spec to sweep-ready: ``dsl.build_design`` ->
``Session.open(design).baseline()`` -> ``.trace`` -> ``ensure_static()``.
``build_design`` makes new kernels every time, so every op is cold
in-process.  Against ``run_cold`` this shifts the work from ``sim`` to
design build, frontend, scheduling, executor build and the static
trace build, and exposes super-linear growth small designs hide.

The generator seeds are the ones ``repro bench`` uses (they keep the
all-depth replay order) and are fixed: offsetting them with ``--seed``
changes events/s by 10-20 %, more than the metric's bound.
"""

from __future__ import annotations

import gc
import statistics
import time

from calibrate import Timed
from layers import ARTIFACT_SPANS, CAPTURE_OP_SPANS, ChainStats, capture_chain

from repro.api import Session
from repro.designs import dsl
from repro.sim import run_engine

#: (modules, generator seed) — ``count=16`` tokens per module
SIZES = [(100, 1), (300, 0), (1000, 4)]
SMOKE_SIZES = [(60, 0), (100, 1)]
COUNT = 16


def sweep_ready(spec):
    """The timed op: spec -> captured baseline with static edges."""
    session = Session.open(dsl.build_design(spec), trace_cache=False)
    baseline = session.baseline()
    session.trace.ensure_static()
    return session, baseline


class CaptureScale:
    name = "capture_scale"
    setup_repeats = 3

    def __init__(self, seed: int, smoke: bool = False):
        self.sizes = SMOKE_SIZES if smoke else SIZES
        self.kinds = {m: f"ready:d{m}" for m, _s in self.sizes}
        self.throughput_kinds = list(self.kinds.values())
        self.primary_kinds = self.throughput_kinds
        #: the largest design: where super-linear growth shows first
        self.cold_kind = self.kinds[self.sizes[-1][0]]
        self.specs: dict = {}
        self.sessions: dict = {}
        self.refs: dict = {}
        #: speed-normalised wall of the oracle over all sizes
        self.cosim_s = 0.0

    def setup(self) -> None:
        """Corpus generation plus one untimed warm-up pass."""
        self.specs = {m: dsl.generate("D", modules=m, seed=s, count=COUNT)
                      for m, s in self.sizes}
        self.sessions = {m: sweep_ready(spec)[0]
                         for m, spec in self.specs.items()}

    def teardown(self) -> None:
        self.sessions = {}

    def verify(self, check) -> None:
        for modules, session in self.sessions.items():
            with Timed() as timed:
                oracle = run_engine("cosim", session.compiled)
            self.cosim_s += timed.seconds
            self.refs[modules] = (oracle.cycles, oracle.scalars)
        self.sessions = {}  # the timed passes should not carry them

    def _check(self, check, modules: int, result) -> None:
        cycles, scalars = self.refs[modules]
        check.cycles(f"d{modules} vs cosim", result.cycles, cycles)
        check.ok(f"d{modules} scalars vs cosim", result.scalars == scalars)

    def run_pass(self, rec) -> None:
        for modules, spec in self.specs.items():
            with rec.op(self.kinds[modules]) as info:
                _session, base = sweep_ready(spec)
                info["work"] = base.stats.events
            rec.expect_same(self.kinds[modules], (
                base.stats.events, base.cycles, base.stats.queries))
            self._check(rec.check, modules, base)

    def traced(self, tr, check, seconds: float) -> dict:
        untraced: dict = {}
        chain = ChainStats(CAPTURE_OP_SPANS + ARTIFACT_SPANS)
        start = time.perf_counter()
        passes = 0
        while passes < 1 or time.perf_counter() - start < seconds / 2:
            passes += 1
            for modules, spec in self.specs.items():
                gc.collect()
                with tr.bracket(), tr.span("untraced.sweep_ready") as whole:
                    sweep_ready(spec)
                untraced.setdefault(modules, []).append(tr.seconds(whole))
                gc.collect()
                first = len(tr.spans)
                with tr.op(f"{passes}:d{modules}"), tr.bracket():
                    out = capture_chain(tr, lambda: dsl.build_design(spec))
                self._check(check, modules, out["result"])
                check.ok(f"d{modules} exact counts repeat", chain.add(
                    f"d{modules}", tr.spans[first:], out["counts"]))
        values = chain.layer_values(
            sum(statistics.median(v) for v in untraced.values()))

        def events_per_s(modules: int) -> float:
            return (chain.counts[f"d{modules}"]["sim.events"]
                    / statistics.median(untraced[modules]))

        values["sim.scale_events_ratio"] = (
            events_per_s(self.sizes[-1][0]) / events_per_s(self.sizes[0][0]))
        values["sim.cosim_s"] = self.cosim_s
        values["sim.speedup_vs_cosim"] = (
            self.cosim_s / values["sim.capture_s"])
        return values
