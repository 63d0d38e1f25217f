"""Incremental re-simulation tests (paper section 7.2 / Table 6)."""

import pytest

from repro import compile_design, designs, hls
from repro.api import Session
from repro.errors import ConstraintViolation, DeadlockError, SimulationError
from repro.sim import get_engine, resimulate
from repro.trace.vectorized import numpy_available, resimulate_batch
from tests.conftest import (
    N_SMALL,
    consumer_k,
    make_nb_design,
    make_pipeline_design,
    producer_k,
)

LightningSimulator = get_engine("lightningsim").cls
OmniSimulator = get_engine("omnisim").cls


class TestOmniSimIncremental:
    def test_same_depths_same_cycles(self, nb_compiled):
        result = OmniSimulator(nb_compiled).run()
        incremental = resimulate(result, {})
        assert incremental.cycles == result.cycles

    def test_growing_depth_matches_fresh_run(self, pipeline_compiled):
        result = OmniSimulator(pipeline_compiled).run()
        incremental = resimulate(result, {"s1": 32, "s2": 32})
        fresh = OmniSimulator(pipeline_compiled,
                              depths={"s1": 32, "s2": 32}).run()
        assert incremental.cycles == fresh.cycles

    def test_shrinking_depth_matches_when_valid(self, pipeline_compiled):
        # Type A designs have no queries, so any depth change is valid.
        result = OmniSimulator(pipeline_compiled,
                               depths={"s1": 16, "s2": 16}).run()
        incremental = resimulate(result, {"s1": 1, "s2": 1})
        fresh = OmniSimulator(pipeline_compiled,
                              depths={"s1": 1, "s2": 1}).run()
        assert incremental.cycles == fresh.cycles

    def test_behavior_change_raises_violation(self):
        # Deepening the FIFO of the dropping producer changes which NB
        # writes succeed: the recorded execution becomes invalid.
        compiled = compile_design(make_nb_design(depth=2))
        result = OmniSimulator(compiled).run()
        assert result.scalars["dropped"] > 0
        with pytest.raises(ConstraintViolation):
            resimulate(result, {"s1": 64})

    def test_violation_names_the_query(self):
        compiled = compile_design(make_nb_design(depth=2))
        result = OmniSimulator(compiled).run()
        with pytest.raises(ConstraintViolation) as exc:
            resimulate(result, {"s1": 64})
        assert exc.value.query is not None
        assert exc.value.query.fifo == "s1"

    def test_unknown_fifo_rejected(self, pipeline_compiled):
        result = OmniSimulator(pipeline_compiled).run()
        with pytest.raises(SimulationError):
            resimulate(result, {"nope": 4})

    def test_invalid_depth_rejected(self, pipeline_compiled):
        result = OmniSimulator(pipeline_compiled).run()
        with pytest.raises(SimulationError):
            resimulate(result, {"s1": 0})

    def test_requires_omnisim_result(self, pipeline_compiled):
        result = get_engine("csim").cls(pipeline_compiled).run()
        with pytest.raises(SimulationError):
            resimulate(result, {"s1": 4})

    def test_much_faster_than_full_run(self):
        # The paper reports four orders of magnitude; we only assert the
        # direction, on a capture long enough (~2k events, ~10x the
        # retime) that neither executor construction nor a noisy CI
        # machine decides it.  The first resimulate also pays the
        # one-time static build, so the second one is the comparison.
        compiled = compile_design(designs.get("fig4_ex5").make(n=1000))
        result = OmniSimulator(compiled).run()
        resimulate(result, {"fifo2": 8})
        incremental = resimulate(result, {"fifo2": 16})
        assert incremental.seconds < result.execute_seconds

    def test_deadlocking_config_detected(self):
        # fig4_ex3's credit loop deadlocks at depth 1... it does not (the
        # elastic pipeline drains); instead check the graph reports a
        # cycle for a configuration that reorders RAW/WAR inconsistently.
        compiled = compile_design(designs.get("fig4_ex3").make(n=50))
        result = OmniSimulator(compiled).run()
        incremental = resimulate(result, {"fifo1": 1, "fifo2": 1})
        fresh = OmniSimulator(compiled, depths={"fifo1": 1,
                                                "fifo2": 1}).run()
        assert incremental.cycles == fresh.cycles


class TestLeftoverValuesDeadlock:
    """A run that ends with values left in a FIFO: 10 blocking writes,
    2 reads, depth 16.  Below depth 8, write #10 waits on a read the
    recording never performs — the scalar WAR overlay used to index
    past the read list (a bare ``IndexError``); it is the same typed
    "deadlocks the recording" error the cyclic case raises, so every
    entry point falls through to the full run's diagnosis."""

    @pytest.fixture(scope="class")
    def session(self):
        d = hls.Design("leftover_values")
        s1 = d.stream("s1", hls.i32, depth=16)
        data = d.buffer("data", hls.i32, N_SMALL,
                        init=list(range(N_SMALL)))
        total = d.scalar("total", hls.i32)
        d.add(producer_k, data=data, n=10, out=s1)
        d.add(consumer_k, inp=s1, n=2, sum_out=total)
        session = Session.open(d, trace_cache=False)
        assert session.baseline().fifo_leftovers == {"s1": 8}
        return session

    def test_artifact_resimulate_raises_typed(self, session):
        with pytest.raises(SimulationError,
                           match="deadlocks the recording"):
            session.trace.resimulate({"s1": 4})
        assert session.trace.resimulate({"s1": 8}).cycles \
            == session.baseline().cycles

    def test_session_resimulate_raises_typed(self, session):
        with pytest.raises(SimulationError,
                           match="full re-simulation required"):
            session.resimulate({"s1": 4})

    def test_full_run_diagnoses_the_deadlock(self, session):
        with pytest.raises(DeadlockError):
            session.run(depths={"s1": 4})

    def test_sweep_reports_deadlock_points(self, session):
        points = session.sweep(["s1=3:9"]).points
        assert [(p.depths["s1"], p.source, p.cycles) for p in points] == [
            (3, "deadlock", None), (4, "deadlock", None),
            (5, "deadlock", None), (6, "deadlock", None),
            (7, "deadlock", None),
            (8, "incremental", 13), (9, "incremental", 13)]

    @pytest.mark.skipif(not numpy_available(), reason="NumPy unavailable")
    def test_batch_rows_stay_none(self, session):
        rows = resimulate_batch(session.trace,
                                [{"s1": 4}, {"s1": 8}, {"s1": 7}])
        assert [None if r is None else r.cycles for r in rows] \
            == [None, 13, None]


class TestTable6Pattern:
    """The exact scenario of the paper's Table 6 on fig4_ex5."""

    @pytest.fixture(scope="class")
    def base_run(self):
        compiled = compile_design(designs.get("fig4_ex5").make(n=300))
        return compiled, OmniSimulator(compiled).run()

    def test_grow_uncongested_fifo_is_incremental(self, base_run):
        _compiled, result = base_run
        incremental = resimulate(result, {"fifo2": 100})
        assert incremental.cycles > 0
        assert incremental.constraints_checked == len(result.trace.c_node)

    def test_grow_hot_fifo_violates(self, base_run):
        _compiled, result = base_run
        with pytest.raises(ConstraintViolation):
            resimulate(result, {"fifo1": 100})

    def test_incremental_cycles_match_fresh(self, base_run):
        compiled, result = base_run
        incremental = resimulate(result, {"fifo2": 100})
        fresh = OmniSimulator(compiled, depths={"fifo2": 100}).run()
        assert incremental.cycles == fresh.cycles


class TestLightningSimIncremental:
    def test_phase2_reanalysis(self, pipeline_compiled):
        sim = LightningSimulator(pipeline_compiled)
        base = sim.run()
        shallow = sim.analyze({"s1": 1, "s2": 1})
        deep = sim.analyze({"s1": 64, "s2": 64})
        assert deep <= shallow
        # Re-analysis with original depths returns the original count.
        assert sim.analyze({}) == base.cycles

    def test_analyze_requires_trace(self, pipeline_compiled):
        sim = LightningSimulator(pipeline_compiled)
        with pytest.raises(SimulationError):
            sim.analyze({})

    def test_matches_omnisim_across_depths(self, pipeline_compiled):
        sim = LightningSimulator(pipeline_compiled)
        sim.run()
        for depth in (1, 2, 5, 64):
            expected = OmniSimulator(
                pipeline_compiled, depths={"s1": depth, "s2": depth}
            ).run().cycles
            assert sim.analyze({"s1": depth, "s2": depth}) == expected
