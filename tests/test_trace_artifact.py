"""Ground-truth suite for the columnar trace artifact (repro.trace).

``TraceArtifact.resimulate`` is the one scalar retiming kernel, so its
oracle is independent of it: every replay it *accepts* must equal a full
OmniSim run at the new depths (the paper's Table 6 identity) — on every
registered design, under both Func Sim executors, before and after a
serialization round-trip.  Declined replays (constraint flips, depth
configurations that deadlock the recording) must classify identically
in memory and after the round-trip.

Also here: cold-captured vs store-round-tripped artifacts are the same
record, content-digest stability/invalidation, and the regression test
that pool workers never rebuild the static-edge columns.
"""

from __future__ import annotations

import pickle
import sys
import threading

import pytest

from repro import compile_design, designs
from repro.api import Session
from repro.errors import ConstraintViolation, DeadlockError, SimulationError
from repro.exec.replay import Replayer
from repro.sim.incremental import resimulate
from repro.trace import (
    TraceArtifact,
    TraceStore,
    artifact_digest,
    dumps_artifact,
    loads_artifact,
)

from test_compiled_executor import SMALL_PARAMS

_SESSIONS: dict = {}


def _session(name: str) -> Session:
    if name not in _SESSIONS:
        _SESSIONS[name] = Session.open(name, trace_cache=False,
                                       **SMALL_PARAMS.get(name, {}))
    return _SESSIONS[name]


def _baseline(name: str, executor: str):
    """Captured OmniSim run of a registry design (None if it deadlocks
    at its declared depths — e.g. the ``deadlock`` design)."""
    try:
        return _session(name).baseline(executor=executor)
    except DeadlockError:
        return None


def _depth_variations(result):
    """A handful of depth configurations per design: identity, all-min,
    all-deepened, and a single-FIFO change — enough to hit the
    incremental-ok, constraint-flip and cyclic cases across the suite."""
    base = result.trace.depths
    names = sorted(base)
    if not names:
        return [{}]
    return [
        {},
        {n: 1 for n in names},
        {n: base[n] + 7 for n in names},
        {names[0]: 2},
    ]


def _outcome(fn):
    """Normalized outcome of one resimulation attempt, comparable
    across artifacts of the same capture."""
    try:
        inc = fn()
        return ("ok", inc.cycles, inc.depths, inc.module_end_times,
                inc.buffer_bits, inc.constraints_checked)
    except ConstraintViolation as exc:
        return ("violation", exc.query, exc.depths)
    except SimulationError as exc:
        return ("error", str(exc))


_TRUTH: dict = {}


def _full_run_truth(session, executor, new_depths):
    """What an accepted replay must report, from a full OmniSim run at
    ``new_depths`` (memoized: the round-trip tests re-ask)."""
    key = (session.name, executor, tuple(sorted(new_depths.items())))
    if key not in _TRUTH:
        full = session.run(executor=executor, depths=new_depths)
        depths = full.trace.depths
        _TRUTH[key] = (
            "ok", full.cycles, depths, full.module_end_times,
            full.trace.buffer_bits(depths),
            len(session.baseline(executor=executor).trace.c_node))
    return _TRUTH[key]


def assert_resim_parity(session, executor, artifact, new_depths, context):
    """An accepted replay equals the full run at ``new_depths``; returns
    the normalized outcome (so callers can also compare artifacts)."""
    out = _outcome(lambda: artifact.resimulate(new_depths))
    if out[0] == "ok":
        truth = _full_run_truth(session, executor, new_depths)
        assert out == truth, (context, new_depths, out, truth)
    return out


@pytest.mark.parametrize("executor", ["compiled", "interp"])
@pytest.mark.parametrize("name", designs.names())
def test_accepted_replays_match_full_runs(name, executor):
    """Replay vs full OmniSim run on every registry design: identical
    cycles / end times / buffer bits whenever the replay is accepted."""
    result = _baseline(name, executor)
    if result is None:
        pytest.skip("design deadlocks at its declared depths")
    artifact = result.trace
    assert artifact is not None, "every OmniSim result records a trace"
    assert artifact.executor == executor
    assert artifact.design_name == result.design_name
    for depths in _depth_variations(result):
        assert_resim_parity(_session(name), executor, artifact, depths,
                            (name, executor))


@pytest.mark.parametrize("name", designs.names())
def test_serialized_artifact_round_trips(name):
    """build -> serialize -> load -> resimulate: the loaded artifact
    matches the full run where accepted AND the in-memory artifact on
    every outcome (flipped query, error text), plus functional-payload
    fidelity."""
    result = _baseline(name, "compiled")
    if result is None:
        pytest.skip("design deadlocks at its declared depths")
    fresh = result.trace
    loaded = loads_artifact(dumps_artifact(fresh))
    for depths in _depth_variations(result):
        out = assert_resim_parity(_session(name), "compiled", loaded,
                                  depths, (name, "round-trip"))
        assert out == _outcome(lambda: fresh.resimulate(depths))
    clone = loaded.to_result()
    assert clone.cycles == result.cycles
    assert clone.scalars == result.scalars
    assert clone.buffers == result.buffers
    assert clone.axi_memories == result.axi_memories
    assert clone.module_end_times == result.module_end_times
    assert clone.fifo_leftovers == result.fifo_leftovers
    assert clone.stats == result.stats
    assert clone.trace is loaded
    assert len(loaded.c_node) == len(fresh.c_node)


@pytest.mark.parametrize("executor", ["compiled", "interp"])
@pytest.mark.parametrize("name", [
    name for name in designs.names()
    if not designs.get(name).expectations.get("deadlock")])
def test_cold_and_stored_artifacts_are_one_record(name, executor,
                                                  tmp_path):
    """What the engine recorded and what ``TraceStore.put`` -> ``get``
    hands back are the same record: equal metadata, equal column
    sequences, and a ``to_result()`` equal to the captured result."""
    result = _baseline(name, executor)
    cold = result.trace
    store = TraceStore(tmp_path)
    assert store.put("k", cold)
    warm = store.get("k")
    assert warm.meta_dict() == cold.meta_dict()
    assert list(warm.columns()) == list(cold.columns())
    for art in (cold, warm):
        served = art.to_result()
        assert served.cycles == result.cycles
        assert served.scalars == result.scalars
        assert served.buffers == result.buffers
        assert served.module_end_times == result.module_end_times
        assert len(served.trace.c_node) == len(cold.c_node)


def test_payload_by_reference_but_served_results_are_copies():
    """The artifact adopts the capture's output objects (no copy at
    record time); ``to_result()`` copies on the way out, so mutating a
    served result leaves the baseline intact."""
    base = _baseline("vector_add_stream", "compiled")
    trace = base.trace
    assert trace.scalars is base.scalars
    assert trace.buffers is base.buffers
    assert trace.axi_memories is base.axi_memories
    assert trace.stats is base.stats
    want = {k: list(v) for k, v in base.axi_memories.items()}
    assert any(want.values())
    served = trace.to_result()
    assert served.axi_memories == want
    for values in served.axi_memories.values():
        values[:] = [-1] * len(values)
    served.scalars["bogus"] = 1
    served.stats.events = -1
    assert base.axi_memories == want and "bogus" not in base.scalars
    assert trace.to_result().axi_memories == want
    assert trace.to_result().stats == base.stats


def _example_specs():
    import glob
    import os

    root = os.path.join(os.path.dirname(__file__), "..", "examples")
    return sorted(glob.glob(os.path.join(root, "*.yaml")))


@pytest.mark.parametrize("path", _example_specs(),
                         ids=lambda p: p.rsplit("/", 1)[-1])
def test_example_specs_replay_parity(path):
    """The checked-in example specs hold the same identity, in memory
    and round-tripped (the ISSUE 5 'and examples' clause)."""
    session = Session.open(path, trace_cache=False)
    result = session.baseline()
    artifact = result.trace
    loaded = loads_artifact(dumps_artifact(artifact))
    for depths in _depth_variations(result):
        out = assert_resim_parity(session, None, artifact, depths, path)
        assert out == _outcome(lambda: loaded.resimulate(depths))


def test_serialization_preserves_static_columns():
    """An artifact serialized after ``ensure_static`` loads with its
    CSR columns present — no rebuild on the other side."""
    result = _baseline("fig4_ex5", "compiled")
    art = result.trace
    art.ensure_static()
    loaded = loads_artifact(dumps_artifact(art))
    assert loaded.s_succ_ptr is not None
    assert list(loaded.s_succ_ptr) == list(art.s_succ_ptr)
    assert list(loaded.s_order) == list(art.s_order)
    assert loaded.s_has_order == art.s_has_order
    # and one serialized pre-static: loads lazily, still correct
    fresh = _session("fig4_ex3").run().trace
    assert fresh.s_succ_ptr is None
    lazy = loads_artifact(dumps_artifact(fresh))
    assert lazy.resimulate({}).cycles == fresh.resimulate({}).cycles


def test_concurrent_first_retimes_build_once(monkeypatch):
    """The service retimes on a thread pool over shared sessions: 16
    threads hitting one cold artifact at once must trigger exactly one
    CSR / static-edge / iteration-view / batch-plan build and agree on
    every time and every batch row."""
    from repro.trace import vectorized

    art = Session.open("fig4_ex5", trace_cache=False, n=300).run().trace
    assert art.s_succ_ptr is None and not art.mod_nodes, "cold"
    builds = []
    for name in ("_build_static_columns", "_build_iter_view"):
        def counted(self, _orig=getattr(TraceArtifact, name), _name=name):
            builds.append(_name)
            return _orig(self)
        monkeypatch.setattr(TraceArtifact, name, counted)

    class CountedPlan(vectorized.BatchPlan):
        __slots__ = ()

        def __init__(self, art):
            builds.append("BatchPlan")
            super().__init__(art)

    monkeypatch.setattr(vectorized, "BatchPlan", CountedPlan)
    depths = dict(art.depths, fifo2=5)
    configs = [{"fifo2": d} for d in (2, 5, 9)]
    barrier = threading.Barrier(16)
    times = [None] * 16
    rows = [None] * 16

    def first_retime(i):
        barrier.wait(timeout=30)
        if i % 2:  # half arrive through the scalar kernel first ...
            times[i] = art.retime(depths)
        rows[i] = [row and (row.cycles, row.module_end_times) for row in
                   vectorized.resimulate_batch(art, configs)]
        times[i] = art.retime(depths)  # ... half through the batch one

    threads = [threading.Thread(target=first_retime, args=(i,))
               for i in range(16)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads mid-build
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    expected = ["_build_iter_view", "_build_static_columns"]
    if vectorized.numpy_available():
        expected.insert(0, "BatchPlan")
    assert sorted(builds) == expected
    assert all(t == times[0] for t in times) and times[0]
    assert all(r == rows[0] for r in rows)
    fresh = Session.open("fig4_ex5", trace_cache=False, n=300).run().trace
    assert times[0] == fresh.retime(depths)
    assert rows[0] == [row and (row.cycles, row.module_end_times) for row
                       in vectorized.resimulate_batch(fresh, configs)]


class TestWorkerNoRebuild:
    """What ships to pool workers must carry the static edges: a
    worker-side resimulation never runs the edge builder."""

    def _shipped_clone(self):
        session = Session.open("fig4_ex5", n=120)
        factory, args = Replayer.for_session(session).worker_spec(session, 2)
        assert args[-1][0] == "artifact", "the trace ships alone"
        return factory(*pickle.loads(pickle.dumps(args))).reference

    def test_pool_reference_never_rebuilds_static_edges(self, monkeypatch):
        clone = self._shipped_clone()
        stayed = Session.open("fig4_ex5", n=120).resimulate({"fifo2": 5})
        calls = []
        orig = TraceArtifact._build_static_columns
        monkeypatch.setattr(
            TraceArtifact, "_build_static_columns",
            lambda self: calls.append("columnar") or orig(self),
        )
        inc = resimulate(clone, {"fifo2": 5})
        # what crossed the pool's pickle replays like what stayed
        assert inc.cycles == stayed.cycles > 0
        assert calls == [], "worker rebuilt static edges"

    def test_shipped_static_columns_survive_pickle(self):
        clone = self._shipped_clone()
        assert clone.trace.s_succ_ptr is not None
        assert clone.trace._view is None, "derived view is per-process"


class TestDigest:
    REF = ("registry", "fig4_ex5", {})

    def test_stable_across_calls(self):
        assert (artifact_digest(self.REF, "compiled")
                == artifact_digest(self.REF, "compiled"))

    def test_alias_resolves_to_same_key(self):
        # typea_large -> vector_add_stream: one cache entry, not two
        assert (artifact_digest(("registry", "typea_large", {}),
                                "compiled")
                == artifact_digest(("registry", "vector_add_stream", {}),
                                   "compiled"))

    def test_params_executor_and_schema_invalidate(self, monkeypatch):
        base = artifact_digest(self.REF, "compiled")
        assert artifact_digest(("registry", "fig4_ex5", {"n": 64}),
                               "compiled") != base
        assert artifact_digest(self.REF, "interp") != base
        from repro.trace import store

        monkeypatch.setattr(store, "SCHEMA_VERSION",
                            store.SCHEMA_VERSION + 1)
        assert artifact_digest(self.REF, "compiled") != base

    def test_spec_content_invalidates(self, tmp_path):
        from repro.designs import dsl

        spec = dsl.generate("A", modules=2, seed=0, count=8)
        path = tmp_path / "d.yaml"
        path.write_text(dsl.spec_to_yaml(spec))
        ref = ("specfile", str(path), {})
        first = artifact_digest(ref, "compiled")
        assert first is not None
        path.write_text(path.read_text() + "\n# touched\n")
        assert artifact_digest(ref, "compiled") != first

    def test_adhoc_designs_are_uncacheable(self):
        from tests.conftest import make_pipeline_design

        compiled = compile_design(make_pipeline_design())
        assert artifact_digest(("compiled", compiled), "compiled") is None
        session = Session.open(compiled, trace_cache=True)
        assert session.trace_digest() is None
        # and the session still works without touching the store
        assert session.baseline().cycles > 0
