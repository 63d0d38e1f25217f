"""Same answer whoever asks.

``tests/specs/reorder.yaml`` deadlocks at its *declared* depths (a=2,
b=2) and completes — 80 cycles, ``o = 56`` — once ``a`` holds the whole
burst (``a >= 8``): the FIFO-sizing question of paper sections 7.1-7.2.
Every door that takes a depth override is asked it at ``a`` in {2, 7, 8,
9} and must give the one answer: a deadlock *outcome* below 8 (that
door's own: exit status 2 and a ``DEADLOCK DETECTED`` line, a result
with ``failure`` set, a point without cycles, a 422 ``DeadlockError``
document for ``/v1/run``, whose contract is one run), 80 cycles from 8
up — never a refusal because the depths nobody asked about deadlock.
The four sweep doors also label the path alike (``source``: a
``"deadlock"`` below 8, the ``"full"`` run at 8 that everything later
replays), and over HTTP a point has a ``failure`` exactly when it has no
``cycles`` — both ``/v1/sweep`` forms answer from the policy's points.

One place decides that (``Session.reference`` / ``Session.declared`` in
front of ``Replayer.for_session``, DESIGN.md section 15); before it
did, the three sweep doors answered ``error: unresolvable deadlock
detected at cycle 8`` (exit 2 / HTTP 422).
"""

from __future__ import annotations

import json
import os
import re

import pytest

from repro.api import Session
from tests.conftest import shell
from tests.test_service import _post, server  # noqa: F401  (a fixture)

SPEC = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    "specs", "reorder.yaml")
DEPTHS = (2, 7, 8, 9)
GRID = "a=" + ",".join(map(str, DEPTHS))
#: depth of ``a`` -> (cycles, o), or None: the configuration deadlocks
EXPECTED = {2: None, 7: None, 8: (80, 56), 9: (80, 56)}


def _cache_args(cache) -> list:
    return ["--trace-cache", str(cache)] if cache else []


def _session(cache) -> Session:
    return Session.open(SPEC, trace_cache=str(cache) if cache else False)


def _spec_text() -> str:
    with open(SPEC, encoding="utf-8") as fh:
        return fh.read()


#: depth of ``a`` -> the ``source`` label of a one-job sweep: nothing
#: replays before a=8 completes; a=9 replays that run (in a pool, only
#: if the same worker evaluates both)
SOURCES = {2: "deadlock", 7: "deadlock", 8: "full", 9: "incremental"}


def _points(points, jobs) -> dict:
    """Sweep points carry cycles, not outputs: ``o`` is reported as
    the expected value wherever the cycles are."""
    for p in points:
        a = p["depths"]["a"]
        assert p["source"] == SOURCES[a] or (
            jobs > 1 and (a, p["source"]) == (9, "full")), p
        if "failure" in p:      # the wire form
            assert (p["failure"] is None) == (p["cycles"] is not None), p
    return {p["depths"]["a"]: None if p["cycles"] is None
            else (p["cycles"], 56) for p in points}


def cli_run(cache, _jobs, _port) -> dict:
    answers = {}
    for depth in DEPTHS:
        status, out, err = shell(["run", SPEC, "--depth", f"a={depth}"]
                                 + _cache_args(cache))
        assert err == "", err
        if status == 2:
            assert out.startswith("DEADLOCK DETECTED: "), out
            answers[depth] = None
        else:
            assert status == 0, (status, out)
            answers[depth] = (
                int(re.search(r"^cycles +: (\d+)$", out, re.M)[1]),
                int(re.search(r"^output +: o = (\d+)$", out, re.M)[1]))
    return answers


def cli_dse(cache, jobs, _port, tmp_path) -> dict:
    report = str(tmp_path / "sweep.json")
    status, out, err = shell(["dse", SPEC, "--grid", GRID, "--jobs",
                              str(jobs), "--json", report]
                             + _cache_args(cache))
    assert (status, err) == (0, ""), (status, err)
    assert "deadlocked : 2" in out
    with open(report, encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc["base_cycles"] is None and doc["capture"] == "none"
    return _points(doc["points"], jobs)


def session_run_many(cache, jobs, _port) -> dict:
    with _session(cache) as session:
        results = session.run_many(
            [{"depths": {"a": depth}} for depth in DEPTHS], jobs=jobs)
    return {depth: None if result.failure
            else (result.cycles, result.scalars["o"])
            for depth, result in zip(DEPTHS, results)}


def session_sweep(cache, jobs, _port) -> dict:
    with _session(cache) as session:
        sweep = session.sweep([GRID], jobs=jobs)
    assert sweep.base_cycles is None and sweep.capture == "none"
    assert sweep.deadlock_count == 2
    return _points(sweep.to_json()["points"], jobs)


def http_run(_cache, _jobs, port) -> dict:
    answers = {}
    for depth in DEPTHS:
        status, doc = _post(port, "/v1/run", {"spec": _spec_text(),
                                              "depths": {"a": depth}})
        if status == 422:
            assert (doc["type"], doc["exit_code"]) == ("DeadlockError", 2)
            answers[depth] = None
        else:
            assert status == 200 and doc["capture"] == "none", doc
            answers[depth] = (doc["cycles"], doc["scalars"]["o"])
    return answers


def http_sweep_space(_cache, _jobs, port) -> dict:
    status, doc = _post(port, "/v1/sweep", {"spec": _spec_text(),
                                            "space": [GRID]})
    assert status == 200, doc
    assert doc["base_cycles"] is None and doc["capture"] == "none"
    assert [p["depths"]["a"] for p in doc["pareto"]] == [8]
    return _points(doc["points"] + doc["pareto"], 1)


def http_sweep_configs(_cache, _jobs, port) -> dict:
    status, doc = _post(port, "/v1/sweep", {
        "spec": _spec_text(), "configs": [{"a": d} for d in DEPTHS]})
    assert status == 200, doc
    assert doc["base_cycles"] is None and doc["capture"] == "none"
    assert all(p["buffer_bits"] is not None for p in doc["points"])
    return _points(doc["points"], 1)


#: the doors that take ``--trace-cache`` / ``--jobs``, asked under every
#: combination (`repro run` is one run: no ``--jobs``); the service runs
#: inline specs uncached, in-thread
LOCAL_DOORS = [
    pytest.param(door, cached, jobs,
                 id=f"{door.__name__}-{'cached' if cached else 'uncached'}"
                    f"-jobs{jobs}")
    for door in (cli_run, cli_dse, session_run_many, session_sweep)
    for cached in (False, True)
    for jobs in ((1,) if door is cli_run else (1, 2))
]
HTTP_DOORS = (http_run, http_sweep_space, http_sweep_configs)


@pytest.mark.parametrize("door,cached,jobs", LOCAL_DOORS)
def test_local_doors_agree(door, cached, jobs, tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_TRACE_CACHE", raising=False)
    cache = tmp_path / "cache" if cached else None
    extra = (tmp_path,) if door is cli_dse else ()
    assert door(cache, jobs, None, *extra) == EXPECTED


@pytest.mark.parametrize("door", HTTP_DOORS, ids=lambda door: door.__name__)
def test_http_doors_agree(door, server):
    assert door(None, 1, server.port) == EXPECTED


def test_the_declared_depths_still_deadlock(server, monkeypatch):
    # the doors above answer an *override*; asked for the design as
    # declared, each still reports the deadlock
    monkeypatch.delenv("REPRO_TRACE_CACHE", raising=False)
    status, out, _err = shell(["run", SPEC])
    assert status == 2 and out.startswith("DEADLOCK DETECTED: ")
    status, doc = _post(server.port, "/v1/run", {"spec": _spec_text()})
    assert (status, doc["type"]) == (422, "DeadlockError")
    with _session(None) as session:
        assert session.reference() is None
        assert session.declared() == ("reorder", {"a": 2, "b": 2})
