"""Integration tests: the four engines on the shared test designs."""

import pytest

from repro import compile_design, hls
from repro.errors import DeadlockError, UnsupportedDesignError
from repro.sim import create_engine, get_engine
from tests.conftest import (
    N_SMALL,
    make_nb_design,
    make_pipeline_design,
    make_poll_design,
)

CoSimulator = get_engine("cosim").cls
CSimulator = get_engine("csim").cls
LightningSimulator = get_engine("lightningsim").cls
OmniSimulator = get_engine("omnisim").cls

FULL_SUM = sum(range(1, N_SMALL + 1))


class TestTypeAPipeline:
    def test_all_engines_agree(self, pipeline_compiled):
        results = {}
        for sim_class in (OmniSimulator, CoSimulator, LightningSimulator):
            results[sim_class.name] = sim_class(pipeline_compiled).run()
        cycles = {r.cycles for r in results.values()}
        assert len(cycles) == 1
        for result in results.values():
            assert result.scalars["total"] == FULL_SUM * 3

    def test_csim_functional_only(self, pipeline_compiled):
        result = CSimulator(pipeline_compiled).run()
        assert result.scalars["total"] == FULL_SUM * 3
        assert result.cycles == 0
        assert result.failure is None

    def test_deeper_fifo_not_slower(self):
        shallow = OmniSimulator(
            compile_design(make_pipeline_design(depth=1))
        ).run()
        deep = OmniSimulator(
            compile_design(make_pipeline_design(depth=16))
        ).run()
        assert deep.cycles <= shallow.cycles

    def test_slow_consumer_dominates(self):
        fast = OmniSimulator(
            compile_design(make_pipeline_design())
        ).run()
        slow = OmniSimulator(
            compile_design(make_pipeline_design(slow=True))
        ).run()
        assert slow.cycles > fast.cycles
        # Consumer at II=8 bounds throughput: ~8 cycles per element.
        assert slow.cycles >= 8 * N_SMALL

    def test_module_end_times_reported(self, pipeline_compiled):
        result = OmniSimulator(pipeline_compiled).run()
        assert set(result.module_end_times) == {
            "producer_k", "scale_k", "consumer_k"
        }
        assert result.cycles == max(result.module_end_times.values())


class TestTypeCNonBlocking:
    def test_omnisim_matches_cosim(self, nb_compiled):
        omni = OmniSimulator(nb_compiled).run()
        cosim = CoSimulator(nb_compiled).run()
        assert omni.cycles == cosim.cycles
        assert omni.scalars == cosim.scalars

    def test_drops_happen_in_hardware(self, nb_compiled):
        omni = OmniSimulator(nb_compiled).run()
        assert omni.scalars["dropped"] > 0
        accepted = N_SMALL - omni.scalars["dropped"]
        assert accepted > 0
        # What survived sums to less than the full input.
        assert 0 < omni.scalars["total"] < FULL_SUM

    def test_csim_sees_no_drops(self, nb_compiled):
        csim = CSimulator(nb_compiled).run()
        assert csim.scalars["dropped"] == 0
        assert csim.scalars["total"] == FULL_SUM

    def test_lightningsim_rejects(self, nb_compiled):
        with pytest.raises(UnsupportedDesignError):
            LightningSimulator(nb_compiled).run()

    def test_deep_fifo_eliminates_drops(self):
        compiled = compile_design(make_nb_design(depth=2 * N_SMALL))
        omni = OmniSimulator(compiled).run()
        assert omni.scalars["dropped"] == 0
        assert omni.scalars["total"] == FULL_SUM


class TestPolling:
    def test_poll_counter_measures_cycles(self, poll_compiled):
        omni = OmniSimulator(poll_compiled).run()
        cosim = CoSimulator(poll_compiled).run()
        assert omni.cycles == cosim.cycles
        assert omni.scalars == cosim.scalars
        # The counter polls at II=1 until the consumer finishes: it must
        # be close to the total latency.
        assert omni.scalars["count"] == pytest.approx(omni.cycles, abs=20)

    def test_no_forced_resolution_needed_when_acyclic(self, poll_compiled):
        # In an acyclic design the done-signal write commits before the
        # poll queries are examined, so every query resolves against the
        # FIFO tables directly; the earliest-false rule stays idle.
        omni = OmniSimulator(poll_compiled).run()
        assert omni.stats.queries > 0
        assert omni.stats.queries_resolved_false_by_rule == 0

    def test_forced_resolution_used_when_cyclic(self):
        # fig4_ex2's producer polls a done signal that its *own* output
        # (via the consumer) eventually produces: queries must be resolved
        # by the earliest-query-false rule (paper 7.1).
        from repro.designs import get

        compiled = compile_design(get("fig4_ex2").make(n=60))
        omni = OmniSimulator(compiled).run()
        assert omni.stats.queries_resolved_false_by_rule > 0


class TestDeadlockDetection:
    def test_both_engines_detect(self):
        from repro.designs import get

        compiled = compile_design(get("deadlock").make(n=8))
        with pytest.raises(DeadlockError) as omni_exc:
            OmniSimulator(compiled).run()
        with pytest.raises(DeadlockError) as cosim_exc:
            CoSimulator(compiled).run()
        assert omni_exc.value.cycle == cosim_exc.value.cycle
        assert set(omni_exc.value.blocked) == {"dl_task_a", "dl_task_b"}

    def test_deadlock_reports_blocking_reason(self):
        from repro.designs import get

        compiled = compile_design(get("deadlock").make(n=8))
        with pytest.raises(DeadlockError) as exc:
            OmniSimulator(compiled).run()
        assert "blocking read on empty FIFO" in str(exc.value)

    def test_undersized_fifo_deadlock(self):
        # A cyclic credit loop that needs depth >= 2 deadlocks at depth 1
        # but completes at depth 4.
        from repro.designs.fig4 import build_ex3

        ok = compile_design(build_ex3(n=8, depth=2))
        OmniSimulator(ok).run()  # no deadlock


@hls.kernel
def ring_stage_k(inp: hls.StreamIn(hls.i32), out: hls.StreamOut(hls.i32)):
    out.write(inp.read() + 1)


@hls.kernel
def ring_head_k(back: hls.StreamIn(hls.i32), out: hls.StreamOut(hls.i32),
                early: hls.ScalarOut(hls.i32),
                hops: hls.ScalarOut(hls.i32)):
    ok, value = back.read_nb()  # nothing has entered the ring yet
    early.set(ok)
    out.write(0)
    while True:
        ok, value = back.read_nb()
        if ok:
            break
    hops.set(value)


class TestDeepWaitForChain:
    """The earliest-query-false guard walks the modules' wait-for
    chain; a long one must not recurse once per link."""

    STAGES = 1200  # past the default recursion limit

    def build_ring(self):
        """head -> f0 -> s0 -> f1 -> ... -> s1199 -> f1200 -> head,
        instantiated sink first so the walk starts at the far end of
        the chain.  The head's first poll happens while every stage
        waits on its predecessor, all the way back to the head."""
        d = hls.Design("ring")
        fifos = [d.stream(f"f{i}", hls.i32, depth=2)
                 for i in range(self.STAGES + 1)]
        for i in reversed(range(self.STAGES)):
            d.add(ring_stage_k, f"s{i}", inp=fifos[i], out=fifos[i + 1])
        d.add(ring_head_k, back=fifos[-1], out=fifos[0],
              early=d.scalar("early", hls.i32),
              hops=d.scalar("hops", hls.i32))
        return d

    def test_long_ring_runs_on_every_timing_engine(self):
        compiled = compile_design(self.build_ring())
        results = [create_engine(engine, compiled).run()
                   for engine in ("omnisim", "omnisim-threads", "cosim")]
        for result in results:
            assert result.scalars == {"early": 0, "hops": self.STAGES}
            assert result.cycles == results[0].cycles
        assert results[0].stats.queries_resolved_false_by_rule == 1


class TestStatsAndTimings:
    def test_event_accounting(self, pipeline_compiled):
        result = OmniSimulator(pipeline_compiled).run()
        # start + end per module, plus one event per FIFO access.
        minimum = 3 * 2 + 4 * N_SMALL
        assert result.stats.events >= minimum
        assert result.stats.instructions > 0

    def test_timing_fields(self, pipeline_compiled):
        result = OmniSimulator(pipeline_compiled).run()
        assert result.execute_seconds > 0
        assert result.frontend_seconds > 0
        assert result.total_seconds == pytest.approx(
            result.execute_seconds + result.frontend_seconds
        )

    def test_lightningsim_phase_breakdown(self, pipeline_compiled):
        result = LightningSimulator(pipeline_compiled).run()
        assert set(result.phase_seconds) == {"trace", "analysis"}

    def test_output_lookup_helper(self, pipeline_compiled):
        result = OmniSimulator(pipeline_compiled).run()
        assert result.output("total") == FULL_SUM * 3
        with pytest.raises(KeyError):
            result.output("nope")
