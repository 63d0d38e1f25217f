"""Golden capture artifacts: what "byte-identical" means for OmniSim.

``tests/golden/run_cold_artifacts.json`` pins, for the 12 designs of the
``run_cold`` benchmark workload x {compiled, interp} x {omnisim,
omnisim-threads}, a sha256 over the recorded artifact plus the exact
``(cycles, events, queries, queries_resolved_false_by_rule)`` counts.
An engine change that claims "same numbers" must leave this file alone.

Two digests, because node *ids* follow the global commit order:

* ``raw`` — over ``trace.columns()`` as the store would serialize them.
  Pinned for ``omnisim`` only: the coroutine engine's service and wake
  order is deterministic, so its node numbering is too.
* ``canonical`` — over :func:`canonical_columns`, the same record with
  nodes renumbered by (module name, emission order).  Under
  ``omnisim-threads`` requests arrive in whatever order the OS ran the
  Func Sim threads, so raw node ids differ run to run (measured at the
  commit this fixture was generated from) while every time, kind, edge
  and constraint is identical — the paper's Fig. 2 claim.  Pinned for
  both engines, and the two must agree on every registry design.

Regenerate (only for an intentional roll of the recorded form) with
``PYTHONPATH=src python tests/test_golden_artifacts.py``.
"""

from __future__ import annotations

import hashlib
import json
import os

import pytest

from repro import compile_design, designs, hls
from repro.api import Session
from repro.designs import fig4
from repro.errors import DeadlockError
from repro.sim import create_engine
from tests.conftest import N_SMALL, consumer_k, producer_k
from tests.test_compiled_executor import SMALL_PARAMS

FIXTURE = os.path.join(os.path.dirname(__file__), "golden",
                       "run_cold_artifacts.json")

#: benchmarks/perf/wl_run_cold.py DESIGNS (the harness is not importable
#: from the test tree; the fixture keys would catch a drift in names)
RUN_COLD_DESIGNS = [
    ("vector_add_stream", {}), ("flowgnn_gin", {}), ("flowgnn_gcn", {}),
    ("flowgnn_gat", {}), ("flowgnn_pna", {}), ("flowgnn_dgn", {}),
    ("inr_arch", {}), ("skynet", {}),
    ("fig4_ex5", {"n": 800}), ("fig2_timer", {"n": 800}),
    ("branch", {"n": 800}), ("multicore", {"n": 250}),
]
EXECUTORS = ("compiled", "interp")
ENGINES = ("omnisim", "omnisim-threads")

def raw_digest(trace) -> str:
    digest = hashlib.sha256()
    for name, column in trace.columns():
        digest.update(name.encode())
        digest.update(column.tobytes())
    return digest.hexdigest()


def canonical_columns(trace) -> list:
    """``trace.columns()`` with nodes renumbered by (module name,
    emission order) and channels keyed by name: invariant under the
    order in which modules happened to commit."""
    cols = dict(trace.columns())
    names = trace.module_names
    mod_ptr, mod_nodes = cols["mod_ptr"], cols["mod_nodes"]
    by_name = sorted(range(len(names)), key=names.__getitem__)
    nodes = [node for mid in by_name
             for node in mod_nodes[mod_ptr[mid]:mod_ptr[mid + 1]]]
    canon = {node: i for i, node in enumerate(nodes)}

    def renumber(column):
        return [canon[node] for node in column]

    out = [("modules", [(names[mid], mod_ptr[mid + 1] - mod_ptr[mid])
                        for mid in by_name])]
    for col in ("nominal", "time", "kind"):
        out.append((col, [cols[col][node] for node in nodes]))
    out.append(("ends", sorted(
        (names[mid], canon[node])
        for mid, node in zip(cols["end_mids"], cols["end_node_ids"]))))
    out.append(("constraints", sorted(
        (canon[node], kind, trace.fifos[fifo].name, index, outcome)
        for kind, fifo, index, outcome, node in zip(
            cols["c_kind"], cols["c_fifo"], cols["c_index"],
            cols["c_outcome"], cols["c_node"]))))
    for fc in sorted(trace.fifos, key=lambda fc: fc.name):
        out.append((f"fifo:{fc.name}", trace.depths[fc.name],
                    trace.widths[fc.name],
                    renumber(fc.write_nodes), renumber(fc.read_nodes),
                    renumber(fc.write_port_nodes),
                    renumber(fc.read_port_nodes)))
    for ax in sorted(trace.axis, key=lambda ax: ax.name):
        bursts, resp = list(ax.read_bursts), list(ax.resp_nodes)
        out.append((
            f"axi:{ax.name}", ax.read_latency, ax.write_latency,
            [(canon[bursts[i]], bursts[i + 1], bursts[i + 2])
             for i in range(0, len(bursts), 3)],
            [(canon[resp[i]], resp[i + 1]) for i in range(0, len(resp), 2)],
            renumber(ax.read_beat_nodes), renumber(ax.write_beat_nodes),
            renumber(ax.read_req_nodes), renumber(ax.write_req_nodes)))
    return out


def canonical_digest(trace) -> str:
    return hashlib.sha256(
        json.dumps(canonical_columns(trace)).encode()).hexdigest()


def counts(result) -> list:
    stats = result.stats
    return [result.cycles, stats.events, stats.queries,
            stats.queries_resolved_false_by_rule]


def capture_entry(session, executor: str, engine: str) -> dict:
    result = session.run(engine, executor=executor)
    entry = {"canonical": canonical_digest(result.trace),
             "counts": counts(result)}
    if engine == "omnisim":
        entry["raw"] = raw_digest(result.trace)
    return entry


def _key(name, executor, engine) -> str:
    return f"{name}/{executor}/{engine}"


@pytest.fixture(scope="module")
def golden() -> dict:
    with open(FIXTURE, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def sessions() -> dict:
    return {}


def _session(sessions, name, params):
    if name not in sessions:
        sessions[name] = Session.open(name, trace_cache=False, **params)
    return sessions[name]


def test_fixture_covers_the_matrix(golden):
    assert sorted(golden) == sorted(
        _key(name, executor, engine)
        for name, _params in RUN_COLD_DESIGNS
        for executor in EXECUTORS for engine in ENGINES)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize("name,params", RUN_COLD_DESIGNS,
                         ids=[n for n, _p in RUN_COLD_DESIGNS])
def test_run_cold_artifact_matches_golden(golden, sessions, name, params,
                                          executor, engine):
    entry = capture_entry(_session(sessions, name, params), executor,
                          engine)
    assert entry == golden[_key(name, executor, engine)]


def test_golden_engines_and_executors_agree(golden):
    """The fixture itself says what the paper says: one recorded graph
    per design, whichever executor produced the requests and whichever
    way the Func Sim contexts were scheduled."""
    for name, _params in RUN_COLD_DESIGNS:
        entries = [golden[_key(name, executor, engine)]
                   for executor in EXECUTORS for engine in ENGINES]
        assert len({e["canonical"] for e in entries}) == 1, name
        assert len({tuple(e["counts"]) for e in entries}) == 1, name
        assert len({e["raw"] for e in entries if "raw" in e}) == 1, name


# ---------------------------------------------------------------------------
# omnisim vs omnisim-threads on every registry design


@pytest.mark.parametrize("name", designs.names())
def test_threads_record_the_same_graph(name):
    compiled = compile_design(designs.get(name).make(**SMALL_PARAMS.get(name, {})))
    outcomes = []
    for engine in ENGINES:
        try:
            result = create_engine(engine, compiled).run()
        except DeadlockError as exc:
            outcomes.append(("deadlock", exc.cycle, exc.blocked))
        else:
            outcomes.append((canonical_columns(result.trace),
                             counts(result), result.scalars,
                             result.buffers, result.axi_memories))
    assert outcomes[0] == outcomes[1]


# ---------------------------------------------------------------------------
# deadlock diagnoses: cycle and per-module blocked text


def _ex3_mismatch():
    """Fig. 4 Ex. 3 with a controller that stops after 4 of the
    processor's 8 rounds: the processor starves on ``fifo1``."""
    d = hls.Design("fig4_ex3_mismatch")
    fifo1 = d.stream("fifo1", hls.i32, depth=2)
    fifo2 = d.stream("fifo2", hls.i32, depth=2)
    data = d.buffer("data_in", hls.i32, fig4.N, init=list(range(fig4.N)))
    d.add(fig4.ex3_processor, fifo1=fifo1, fifo2=fifo2, n=8)
    d.add(fig4.ex3_controller, fifo1=fifo1, fifo2=fifo2, data_in=data,
          n=4, sum_out=d.scalar("sum", hls.i32))
    return d


def _never_drained():
    """24 blocking writes into a depth-2 FIFO whose reader takes 4."""
    d = hls.Design("never_drained")
    stream = d.stream("s", hls.i32, depth=2)
    data = d.buffer("data", hls.i32, N_SMALL, init=list(range(N_SMALL)))
    d.add(producer_k, data=data, n=N_SMALL, out=stream)
    d.add(consumer_k, inp=stream, n=4, sum_out=d.scalar("out", hls.i32))
    return d


#: case -> (design builder, {engine: cycle}, blocked text per module);
#: the cycle-stepped oracle reports the clock it gave up at, OmniSim the
#: latest ready/commit cycle it knows of
DEADLOCK_SNAPSHOTS = {
    "deadlock": (
        lambda: designs.get("deadlock").make(n=8),
        {"omnisim": 2, "omnisim-threads": 2, "cosim": 2},
        {"dl_task_a": "blocking read on empty FIFO 'b_to_a'",
         "dl_task_b": "blocking read on empty FIFO 'a_to_b'"}),
    "fig4_ex3_mismatch": (
        _ex3_mismatch,
        {"omnisim": 34, "omnisim-threads": 34, "cosim": 40},
        {"ex3_processor": "blocking read on empty FIFO 'fifo1'"}),
    "never_drained": (
        _never_drained,
        {"omnisim": 9, "omnisim-threads": 9, "cosim": 10},
        {"producer_k": "blocking write on full FIFO 's'"}),
}


@pytest.mark.parametrize("engine", ENGINES + ("cosim",))
@pytest.mark.parametrize("case", sorted(DEADLOCK_SNAPSHOTS))
def test_deadlock_diagnosis_snapshot(case, engine):
    make, cycles, blocked = DEADLOCK_SNAPSHOTS[case]
    with pytest.raises(DeadlockError) as exc:
        create_engine(engine, compile_design(make())).run()
    assert exc.value.cycle == cycles[engine]
    assert exc.value.blocked == blocked
    details = "; ".join(f"{m}: {why}" for m, why in sorted(blocked.items()))
    assert str(exc.value) == (
        f"unresolvable deadlock detected at cycle {cycles[engine]} "
        f"({details})")


if __name__ == "__main__":
    fixture = {}
    for design, design_params in RUN_COLD_DESIGNS:
        opened = Session.open(design, trace_cache=False, **design_params)
        for ex in EXECUTORS:
            for eng in ENGINES:
                fixture[_key(design, ex, eng)] = capture_entry(
                    opened, ex, eng)
                print(_key(design, ex, eng), fixture[_key(design, ex, eng)])
    os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
    with open(FIXTURE, "w", encoding="utf-8") as fh:
        json.dump(fixture, fh, indent=1, sort_keys=True)
        fh.write("\n")
