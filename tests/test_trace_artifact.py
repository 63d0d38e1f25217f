"""Differential suite for the columnar trace artifact (repro.trace).

The columnar ``TraceArtifact.retime``/``resimulate`` must be bit-for-bit
equivalent to the object-graph path (``SimulationGraph.retime`` +
``resimulate_object``) — on every registered design, under both Func Sim
executors, before and after a serialization round-trip.  The object path
stays in the tree exactly as this suite's differential oracle, the same
way the interpreter backs the closure-compiled executor.

Also here: content-digest stability/invalidation, and the regression
test that pool workers never rebuild the static-edge columns (the
``SimulationGraph.__getstate__`` cache-drop bug this layer supersedes).
"""

from __future__ import annotations

import pickle

import pytest

from repro import compile_design, designs
from repro.api import Session
from repro.errors import ConstraintViolation, DeadlockError, SimulationError
from repro.exec.replay import load_reference, ship_reference
from repro.sim.graph import SimulationGraph
from repro.sim.incremental import resimulate, resimulate_object
from repro.sim.registry import run_engine
from repro.trace import (
    TraceArtifact,
    artifact_digest,
    dumps_artifact,
    loads_artifact,
    replay_trace,
)

from test_compiled_executor import SMALL_PARAMS

_CACHE: dict = {}


def _baseline(name: str, executor: str):
    """Captured OmniSim run of a registry design (None if it deadlocks
    at its declared depths — e.g. the ``deadlock`` design)."""
    key = (name, executor)
    if key not in _CACHE:
        params = SMALL_PARAMS.get(name, {})
        compiled = compile_design(designs.get(name).make(**params))
        try:
            _CACHE[key] = run_engine("omnisim", compiled,
                                     executor=executor)
        except DeadlockError:
            _CACHE[key] = None
    return _CACHE[key]


def _depth_variations(result):
    """A handful of depth configurations per design: identity, all-min,
    all-deepened, and a single-FIFO change — enough to hit the
    incremental-ok, constraint-flip and cyclic cases across the suite."""
    names = sorted(result.fifo_channels)
    if not names:
        return [{}]
    base = {n: result.fifo_channels[n].depth for n in names}
    return [
        {},
        {n: 1 for n in names},
        {n: base[n] + 7 for n in names},
        {names[0]: 2},
    ]


def _outcome(fn):
    """Normalized outcome of one resimulation attempt, comparable
    across the object and columnar paths."""
    try:
        inc = fn()
        return ("ok", inc.cycles, inc.depths, inc.module_end_times,
                inc.buffer_bits, inc.constraints_checked)
    except ConstraintViolation as exc:
        return ("violation", exc.query, exc.depths)
    except SimulationError as exc:
        return ("error", str(exc))


def assert_resim_parity(result, artifact, new_depths, context):
    obj = _outcome(lambda: resimulate_object(result, new_depths))
    col = _outcome(lambda: artifact.resimulate(new_depths))
    assert obj == col, (context, new_depths, obj, col)
    return obj[0]


@pytest.mark.parametrize("executor", ["compiled", "interp"])
@pytest.mark.parametrize("name", designs.names())
def test_columnar_resimulate_matches_object_path(name, executor):
    """Columnar vs object-graph resimulation on every registry design:
    identical cycles / end times / buffer bits on success, identical
    flipped query and error classification on divergence."""
    result = _baseline(name, executor)
    if result is None:
        pytest.skip("design deadlocks at its declared depths")
    artifact = replay_trace(result, executor=executor)
    assert artifact is not None, "every OmniSim result derives a trace"
    assert result.trace is artifact, "derived once, cached on the result"
    assert artifact.executor == executor
    for depths in _depth_variations(result):
        assert_resim_parity(result, artifact, depths, (name, executor))


@pytest.mark.parametrize("name", designs.names())
def test_serialized_artifact_round_trips(name):
    """build -> serialize -> load -> retime equality vs the in-memory
    artifact AND the object path, plus functional-payload fidelity."""
    result = _baseline(name, "compiled")
    if result is None:
        pytest.skip("design deadlocks at its declared depths")
    loaded = loads_artifact(dumps_artifact(replay_trace(result)))
    for depths in _depth_variations(result):
        kind = assert_resim_parity(result, loaded, depths,
                                   (name, "round-trip"))
        if kind == "ok":
            a = loaded.resimulate(depths)
            b = replay_trace(result).resimulate(depths)
            assert a.cycles == b.cycles
            assert a.module_end_times == b.module_end_times
    clone = loaded.to_result()
    assert clone.cycles == result.cycles
    assert clone.scalars == result.scalars
    assert clone.buffers == result.buffers
    assert clone.axi_memories == result.axi_memories
    assert clone.module_end_times == result.module_end_times
    assert clone.fifo_leftovers == result.fifo_leftovers
    assert clone.constraints == result.constraints
    assert clone.stats.events == result.stats.events
    assert clone.graph is None and clone.trace is loaded


def _example_specs():
    import glob
    import os

    root = os.path.join(os.path.dirname(__file__), "..", "examples")
    return sorted(glob.glob(os.path.join(root, "*.yaml")))


@pytest.mark.parametrize("path", _example_specs(),
                         ids=lambda p: p.rsplit("/", 1)[-1])
def test_example_specs_columnar_parity(path):
    """The checked-in example specs round-trip through the columnar
    path identically too (the ISSUE 5 'and examples' clause)."""
    result = Session.open(path).baseline()
    artifact = replay_trace(result)
    loaded = loads_artifact(dumps_artifact(artifact))
    for depths in _depth_variations(result):
        assert_resim_parity(result, artifact, depths, path)
        assert_resim_parity(result, loaded, depths, (path, "loaded"))


def test_serialization_preserves_static_columns():
    """An artifact serialized after ``ensure_static`` loads with its
    CSR columns present — no rebuild on the other side."""
    result = _baseline("fig4_ex5", "compiled")
    art = replay_trace(result)
    art.ensure_static()
    loaded = loads_artifact(dumps_artifact(art))
    assert loaded.s_succ_ptr is not None
    assert list(loaded.s_succ_ptr) == list(art.s_succ_ptr)
    assert list(loaded.s_order) == list(art.s_order)
    assert loaded.s_has_order == art.s_has_order
    # and one serialized pre-static: loads lazily, still correct
    fresh = replay_trace(_baseline("fig4_ex3", "compiled"))
    lazy = loads_artifact(dumps_artifact(fresh))
    assert lazy.resimulate({}).cycles == fresh.resimulate({}).cycles


class TestWorkerNoRebuild:
    """Regression for the superseded ``SimulationGraph.__getstate__``
    cache drop: what ships to pool workers must carry the static edges,
    and a worker-side resimulation must touch NEITHER edge builder."""

    def _shipped_clone(self):
        session = Session.open("fig4_ex5", n=120)
        shipped = ship_reference(session, session.baseline())
        assert shipped[0] == "artifact", "the trace ships alone"
        clone = load_reference(pickle.loads(pickle.dumps(shipped)))
        assert clone.graph is None, "trace replaces the graph"
        return clone

    def test_pool_reference_never_rebuilds_static_edges(self, monkeypatch):
        clone = self._shipped_clone()
        calls = []
        orig = TraceArtifact._build_static_columns
        monkeypatch.setattr(
            TraceArtifact, "_build_static_columns",
            lambda self: calls.append("columnar") or orig(self),
        )
        monkeypatch.setattr(
            SimulationGraph, "_build_static_edges",
            lambda self, build_order=True: calls.append("graph") or None,
        )
        inc = resimulate(clone, {"fifo2": 5})
        assert inc.cycles > 0
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
