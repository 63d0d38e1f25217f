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

import hashlib
import json
import pickle
import sys
import threading

import pytest

from repro import compile_design, designs
from repro.api import Session
from repro.errors import ConstraintViolation, DeadlockError, SimulationError
from repro.exec.replay import Replayer
from repro.trace import (
    TraceArtifact,
    TraceStore,
    artifact_digest,
    dumps_artifact,
    loads_artifact,
)

from test_compiled_executor import SMALL_PARAMS

_SESSIONS: dict = {}


def _session(name: str, executor: str = "compiled") -> Session:
    if (name, executor) not in _SESSIONS:
        _SESSIONS[name, executor] = Session.open(
            name, executor=executor, trace_cache=False,
            **SMALL_PARAMS.get(name, {}))
    return _SESSIONS[name, executor]


def _baseline(name: str, executor: str):
    """Captured OmniSim run of a registry design (None if it deadlocks
    at its declared depths — e.g. the ``deadlock`` design)."""
    try:
        return _session(name, executor).baseline()
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


def _full_run_truth(session, new_depths):
    """What an accepted replay must report, from a full OmniSim run at
    ``new_depths`` on the session's executor (memoized: the round-trip
    tests re-ask)."""
    key = (session.name, session.executor,
           tuple(sorted(new_depths.items())))
    if key not in _TRUTH:
        full = session.run(depths=new_depths)
        depths = full.trace.depths
        _TRUTH[key] = (
            "ok", full.cycles, depths, full.module_end_times,
            full.trace.buffer_bits(depths),
            len(session.baseline().trace.c_node))
    return _TRUTH[key]


def assert_resim_parity(session, artifact, new_depths, context):
    """An accepted replay equals the full run at ``new_depths``; returns
    the normalized outcome (so callers can also compare artifacts)."""
    out = _outcome(lambda: artifact.resimulate(new_depths))
    if out[0] == "ok":
        truth = _full_run_truth(session, new_depths)
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
        assert_resim_parity(_session(name, executor), artifact, depths,
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
        out = assert_resim_parity(_session(name), loaded,
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
        out = assert_resim_parity(session, artifact, depths, path)
        assert out == _outcome(lambda: loaded.resimulate(depths))


def _single_fifo_steps(depths: dict) -> list:
    """Every single-FIFO step ``d+1``, ``2d`` and ``d-1`` off the
    capture depths (``d-1`` may be 0: an error is an answer too)."""
    return [{name: new} for name in sorted(depths)
            for new in dict.fromkeys((depths[name] + 1, 2 * depths[name],
                                      depths[name] - 1))]


def _step_answer(fn) -> list:
    """A replay's answer: cycles and end times, or the exception's type
    and message."""
    try:
        inc = fn()
    except (ConstraintViolation, SimulationError) as exc:
        return [type(exc).__name__, str(exc)]
    return ["ok", inc.cycles, sorted(inc.module_end_times.items())]


#: sha256 of the JSON list of :func:`_step_answer` per single-FIFO step,
#: per registry design with FIFOs, as replayed before node times could be
#: certified (the sweep and a full re-validation on every step)
STEP_ANSWERS = {
    "accumulators_dataflow":
        "02dd75338c9c724b4d9f6a23db0cf244eded312150f0172b74b5d2bcb76482d7",
    "axis_no_side_channel":
        "7af6fca5d97b039d37a1ee18b49064020333492f192381b24ae8773f1299d66d",
    "branch":
        "393676de57f0fed4d5bed361ee4438e8db700d3eb3426cbb9f4a3445ae0dff46",
    "fft_multistage":
        "44af66779f83657cbdb820ae6a0036850ef84e3b75109f7ebee46c915888db77",
    "fig2_timer":
        "01ba9ed573ff0c5d9bcdc79746f011b41b86ca8ea95edfec38964a1c6bf4b7c4",
    "fig4_ex1":
        "8b851f7ecb75420852c3ef3ba057d348445f4ce2808c086882b4edce5c113963",
    "fig4_ex2":
        "4c88364441766e415c156a72f367623504e4743e3fb4872314d8f17b8ea36fb8",
    "fig4_ex3":
        "3a993361bc9b23973ad2a9ef4b92df406359481f82e7825c799924c6458e0239",
    "fig4_ex4a":
        "bf01b150ae08ed6912c9949fd8140a31b27e15a96f867c4371df905387d832aa",
    "fig4_ex4a_d":
        "caa9909e44a6bcb765168bda1d242e8723644ce215e01afe05ae05a53dddb18a",
    "fig4_ex4b":
        "bf01b150ae08ed6912c9949fd8140a31b27e15a96f867c4371df905387d832aa",
    "fig4_ex4b_d":
        "cf23b6111a068cc678adf5675179f01bcef69f17352b8c56a139d51cedf9c5b9",
    "fig4_ex5":
        "a9bfef676e5747b22351f36f5445abce0b05800c24b84f46ffae3bff4ea04902",
    "flowgnn_dgn":
        "6d798234a3d4e95c2fac930e8fa68cf18fbaad8597161e36fce412e580435462",
    "flowgnn_gat":
        "cbd25a6e5ef7594f5e238f9a5fbf9eaff6343e778f321de5d96eb8faf8bde6ef",
    "flowgnn_gcn":
        "a1d46f0e869f6bb414c6cdf3661af61ee8d68378947812cc82db4675e2e51db2",
    "flowgnn_gin":
        "3ba616a9f86b37b8e5b29436b5a72f6380bcccd738ed458bf6dd43d4f2cd43a4",
    "flowgnn_pna":
        "7a335955bd9468f820443e7a64935c1c73804705e76ed20c93eec1a61cfa0973",
    "inr_arch":
        "848552e4b8f5e2ad45f7a304d604c49b0d386ad032788dbe54f8902697a6cbcc",
    "merge_sort_parallel":
        "f0a5fc13ebec537d36d7925aded33861488822b5a62ee265587f8b384d1bc1a6",
    "multicore":
        "faf625485515e95de88d5d60705451a5d4f4bc3aeaec0c8b39297d3f751ff8c4",
    "skynet":
        "53349c749f73a6e3ca2be11706280cab9970c1f8b9b67c8a305346339c70f72f",
    "vector_add_stream":
        "5b11e2fd7e2fa103df96cbc49031018c46dbc440dabc551a9c28ce95fee3f27d",
}


def _certified(art, step) -> bool:
    """Whether the replay certificate vouched for ``step``."""
    try:
        return art._retime(dict(art.depths, **step))[1] is not None
    except SimulationError:
        return False


def test_single_fifo_steps_answer_as_pinned():
    """Every single-FIFO step on every registry capture replays to the
    pinned answer and to what the forced sweep with a full
    re-validation answers: cycles, end times, exception type and
    message.  The certificate must serve at least half of the steps."""
    got = {}
    steps_total = certified = 0
    for name in designs.names():
        result = _baseline(name, "compiled")
        steps = [] if result is None else _single_fifo_steps(
            result.trace.depths)
        if steps:
            art = result.trace
            answers = [_step_answer(lambda: art.resimulate(step))
                       for step in steps]
            assert answers == [
                _step_answer(lambda: art._resimulate(step, certify=False))
                for step in steps], name
            got[name] = hashlib.sha256(
                json.dumps(answers).encode()).hexdigest()
            steps_total += len(steps)
            certified += sum(_certified(art, step) for step in steps)
    assert got == STEP_ANSWERS
    assert certified * 2 >= steps_total, (certified, steps_total)


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
        inc = clone.trace.resimulate({"fifo2": 5})
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

    def test_package_code_invalidates(self, tmp_path, monkeypatch):
        """The key hashes the code that captured: an edit to any
        ``.py`` file of the package lands on a new key."""
        import shutil

        from repro.trace import store

        same, edited = tmp_path / "same", tmp_path / "edited"
        for copy in (same, edited):
            shutil.copytree(store._PACKAGE, copy,
                            ignore=shutil.ignore_patterns("__pycache__"))
        assert store.code_digest(str(same)) == store.code_digest()
        with open(edited / "sim" / "result.py", "a") as fh:
            fh.write("\n# touched\n")
        assert store.code_digest(str(edited)) != store.code_digest()
        base = artifact_digest(self.REF, "compiled")
        monkeypatch.setattr(store, "code_digest", lambda: "0" * 64)
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
