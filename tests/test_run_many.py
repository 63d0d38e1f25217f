"""``Session.run_many``: batched execution must be indistinguishable —
result for result — from calling ``.run()`` in a loop, whichever serving
path (incremental replay, full fallback, process-pool shard) produced
each result."""

from __future__ import annotations

import pytest

from repro import compile_design
from repro.api import Session
from repro.api.batch import normalize_config
from repro.errors import DeadlockError, UnknownEngineError, UnknownFifoError
from repro.exec import chunk_contiguous
from tests.conftest import make_nb_design

#: fig4_ex5 depth variations chosen to exercise *both* serving paths:
#: fifo1 changes flip recorded constraints (full fallback + re-capture),
#: fifo2 changes replay incrementally.
STRESS_CONFIGS = (
    [{"depths": {"fifo1": d}} for d in (1, 2, 3, 4)]
    + [{"depths": {"fifo2": d}} for d in (2, 4, 8)]
    + [{"depths": {"fifo1": f1, "fifo2": f2}}
       for f1 in (1, 3) for f2 in (2, 6)]
)


def _key(result):
    return (result.cycles, result.scalars, result.buffers,
            result.fifo_leftovers, result.failure)


@pytest.fixture(scope="module")
def session():
    return Session.open("fig4_ex5", n=60)


@pytest.fixture(scope="module")
def loop_results(session):
    return [session.run(depths=config["depths"])
            for config in STRESS_CONFIGS]


class TestDifferential:
    def test_sequential_run_many_vs_run_loop(self, session, loop_results):
        batch = session.run_many(STRESS_CONFIGS, jobs=1)
        assert [_key(r) for r in batch] == [_key(r) for r in loop_results]

    def test_sharded_run_many_vs_run_loop(self, session, loop_results):
        batch = session.run_many(STRESS_CONFIGS, jobs=2)
        assert [_key(r) for r in batch] == [_key(r) for r in loop_results]

    def test_incremental_off_vs_run_loop(self, session):
        # the replay policy serves OmniSim only: on any other engine
        # every config is a full run, in-process and in pool workers
        configs = [dict(config, engine="cosim") for config in STRESS_CONFIGS]
        loop = [_key(session.run(**config)) for config in configs]
        for jobs in (1, 2):
            batch = session.run_many(configs, jobs=jobs)
            assert [_key(r) for r in batch] == loop
            assert all(r.phase_seconds["serving"] == "full" for r in batch)

    def test_both_serving_paths_exercised(self, session):
        batch = session.run_many(STRESS_CONFIGS, jobs=1)
        servings = {r.phase_seconds["serving"] for r in batch}
        assert servings == {"incremental", "full"}

    def test_phase_seconds_keys_same_serial_and_pool(self, session):
        # pool workers rebuild the baseline from the shipped artifact;
        # what a served result reports must not depend on that
        def keys(batch):
            return {r.phase_seconds["serving"]: sorted(r.phase_seconds)
                    for r in batch}

        serial = keys(session.run_many(STRESS_CONFIGS, jobs=1))
        assert serial == keys(session.run_many(STRESS_CONFIGS, jobs=2))
        assert serial["incremental"] == ["mode", "replay_seconds",
                                         "serving"]

    def test_mixed_engines(self, session):
        configs = [{"engine": "omnisim"}, {"engine": "cosim"},
                   {"engine": "csim"}, {"engine": "omnisim-threads"}]
        batch = session.run_many(configs, jobs=2)
        assert [r.simulator for r in batch] == [
            "omnisim", "cosim", "csim", "omnisim-threads"
        ]
        omnisim, cosim, csim, threads = batch
        assert omnisim.cycles == cosim.cycles == threads.cycles
        assert csim.cycles == 0  # untimed baseline


class TestSemantics:
    def test_empty_batch(self, session):
        assert session.run_many([]) == []

    def test_order_preserved_across_shards(self, session):
        configs = [{"depths": {"fifo2": 2 + (i % 5)}} for i in range(23)]
        batch = session.run_many(configs, jobs=2)
        expected = [session.run(depths=c["depths"]).cycles
                    for c in configs]
        assert [r.cycles for r in batch] == expected

    def test_deadlock_folded_into_result(self):
        # deadlock design: cyclic blocking ring that starves
        session = Session.open("deadlock")
        configs = [{"engine": "omnisim"}, {"engine": "cosim"}]
        batch = session.run_many(configs)
        assert all(r.failure and "deadlock" in r.failure for r in batch)
        for config in configs:
            with pytest.raises(DeadlockError):
                session.run(**config)

    def test_unsupported_folded_into_result(self, session):
        batch = session.run_many([{"engine": "lightningsim"}])
        assert batch[0].failure is not None
        assert batch[0].simulator == "lightningsim"

    def test_graphs_stripped_by_default(self, session):
        batch = session.run_many(STRESS_CONFIGS[:3], jobs=2)
        assert all(r.trace is None and not r.fifo_channels for r in batch)

    def test_session_baseline_survives_stripping(self, session):
        session.run_many(STRESS_CONFIGS[:4], jobs=1)
        base = session.baseline()
        assert base.trace is not None
        assert base.fifo_channels
        # and the baseline still replays incrementally after batches
        assert session.resimulate({"fifo2": 2}).cycles == base.cycles

    def test_bad_config_fails_before_any_work(self, session):
        with pytest.raises(UnknownFifoError):
            session.run_many([{"depths": {"fifo2": 2}},
                              {"depths": {"bogus": 2}}])
        with pytest.raises(UnknownEngineError):
            session.run_many([{"engine": "verilator"}])
        with pytest.raises(TypeError):
            session.run_many(["omnisim"])

    def test_unpicklable_design_degrades_to_inprocess(self):
        compiled = compile_design(make_nb_design())
        session = Session.open(compiled)
        configs = [{"depths": {"s1": d}} for d in (1, 2, 4, 8)]
        batch = session.run_many(configs, jobs=4)
        expected = [session.run(**config).cycles for config in configs]
        assert [r.cycles for r in batch] == expected
        assert batch.supervision["mode"] == "serial"


class TestChunking:
    def test_chunks_cover_in_order(self):
        items = list(range(13))
        chunks = chunk_contiguous(items, 4)
        assert [x for chunk in chunks for x in chunk] == items
        assert max(len(c) for c in chunks) - min(
            len(c) for c in chunks) <= 1

    def test_more_pieces_than_items(self):
        assert chunk_contiguous([1, 2], 8) == [[1], [2]]

    def test_normalize_config_defaults(self, session):
        declared = session.declared()
        normalized = normalize_config({}, *declared)
        assert normalized == {"engine": "omnisim", "executor": None,
                              "depths": {}, "kwargs": {}}
        with_kwargs = normalize_config(
            {"engine": "omnisim", "step_limit": 10}, *declared
        )
        assert with_kwargs["kwargs"] == {"step_limit": 10}
