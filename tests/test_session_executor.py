"""A session's Func Sim executor changes no answer, only its store key.

The FIFO tables decide the recorded timing, not the way Func Sim runs a
module (paper sections 5-6): both executors record byte-identical
artifacts (``tests/test_golden_artifacts.py``), and replay reads only
the artifact.  So a :class:`~repro.api.Session` opened with
``executor="interp"`` answers every replay door exactly like a default
one — ``sweep`` points (``source`` and ``mode`` included), ``run_many``
rows, ``resimulate_many`` rows and ``repro run --depth --trace-cache``.
What differs is where its capture is stored: each executor's baseline
has its own trace-store key.
"""

from __future__ import annotations

import pytest

from repro.api import Session
from repro.trace.store import TraceStore, read_header_file
from tests.conftest import shell
from tests.test_front_doors import GRID, SPEC
from tests.test_request_contract import (
    _PARAMS,
    _masked,
    RESIMULATE_CONFIGS,
    RUN_MANY_CASES,
    slice_rows,
)

EXECUTORS = (None, "interp")
#: fifo1 below its declared depth flips recorded queries: full runs,
#: and the neighbours that replay them
SPACE = ["fifo1=1:4", "fifo2=1:4"]


def _open(executor, **kwargs) -> Session:
    return Session.open("fig4_ex5", executor=executor, trace_cache=False,
                        **dict(_PARAMS, **kwargs))


def _points(sweep) -> list:
    return [dict(point.to_json(), seconds=None) for point in sweep.points]


@pytest.mark.parametrize("rows", [None, 1, 3])
def test_sweep_points_agree(rows):
    answers = []
    for executor in EXECUTORS:
        with _open(executor) as session, slice_rows(rows):
            sweep = session.sweep(SPACE)
            answers.append((sweep.base_cycles, sweep.mode_counts,
                            _points(sweep)))
    assert answers[0][1].get("full")        # full runs were exercised
    assert answers[0] == answers[1]


def test_sweep_points_agree_without_a_reference():
    """The declared depths deadlock: full runs decide every point."""
    answers = []
    for executor in EXECUTORS:
        with Session.open(SPEC, executor=executor,
                          trace_cache=False) as session:
            sweep = session.sweep([GRID])
            assert sweep.capture == "none"
            answers.append(_points(sweep))
    assert answers[0] == answers[1]


def _rows(results) -> list:
    return [(result.simulator, result.cycles, result.failure,
             dict(result.scalars), result.phase_seconds.get("serving"),
             result.phase_seconds.get("mode"))
            for result in results]


@pytest.mark.parametrize("case", ["mixed", "slices"])
def test_run_many_rows_agree(case):
    _design, params, configs, _jobs, *rows = RUN_MANY_CASES[case]
    assert not any("executor" in config for config in configs)
    answers = []
    for executor in EXECUTORS:
        with _open(executor, **params) as session, \
                slice_rows(rows[0] if rows else None):
            answers.append(_rows(session.run_many(configs)))
    assert answers[0] == answers[1]


@pytest.mark.parametrize("rows", [1, 3, None])
def test_resimulate_many_rows_agree(rows):
    answers = []
    for executor in EXECUTORS:
        with _open(executor) as session, slice_rows(rows):
            answers.append([
                row and (row.cycles, row.buffer_bits, row.depths)
                for row in session.resimulate_many(RESIMULATE_CONFIGS)])
    assert answers[0] == answers[1]


def test_run_depth_trace_cache_agrees_and_keys_apart(tmp_path):
    cache = str(tmp_path)
    outputs = {}
    for executor in EXECUTORS:
        flag = [] if executor is None else ["--executor", executor]
        runs = []
        # cold, warm, then a flipped query (full fallback)
        for depths in ("fifo2=8", "fifo2=8", "fifo1=3"):
            status, out, err = shell(["run", "fig4_ex5", "--depth", depths,
                                      "--trace-cache", cache] + flag)
            assert (status, err) == (0, ""), err
            runs.append(_masked(out, cache))
        outputs[executor] = runs
    assert "cold-capture" in outputs[None][0]
    assert "warm-capture" in outputs[None][1]
    assert outputs[None] == outputs["interp"]

    store = TraceStore(cache)
    digests = {}
    for executor in EXECUTORS:
        session = Session.open("fig4_ex5", executor=executor,
                               trace_cache=cache)
        digests[executor] = session.trace_digest()
        assert store.contains(digests[executor])
        meta = read_header_file(store.path(digests[executor]))["meta"]
        assert meta["executor"] == (executor or "compiled")
    assert digests[None] != digests["interp"]
    assert len(store.entries()) == 2


def test_dse_resume_without_the_default_executor_flag(tmp_path):
    """``--executor compiled`` and no ``--executor`` open one capture, so
    a journal written under one resumes under the other."""
    journal = str(tmp_path / "j.jsonl")
    argv = ["dse", "fig4_ex5", "--range", "fifo2=1:4",
            "--checkpoint", journal]
    status, first, err = shell(argv + ["--executor", "compiled"])
    assert (status, err) == (0, ""), err
    status, resumed, err = shell(argv + ["--resume"])
    assert (status, err) == (0, ""), err
    lines = _masked(resumed, journal).splitlines()
    assert "resumed    : 4 configs from DIR" in lines
    lines.remove("resumed    : 4 configs from DIR")
    assert lines == _masked(first, journal).splitlines()
