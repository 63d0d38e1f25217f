"""The request contract of both front doors.

**Accepted requests are pinned.**  ``tests/golden/request_contract.json``
records, at the commit *before* the request-validation refactor (ISSUE
21):

* ``cli`` — exit status, stdout and stderr of every accepted ``repro``
  invocation a user is documented to type (plus ``run nosuchdesign``),
  wall-clock fields masked;
* ``http`` — status and error document of request bodies the service
  already refused correctly (``WireError`` rows, unknown design /
  engine / FIFO, deadlock, unsupported design).

and, at the commit before the replay-policy refactor (ISSUE 22), what
the doors in front of :mod:`repro.exec.replay` answer (wall-clock and
content-address fields masked) — extended, at the commit before the
policy took over batching (ISSUE 24), with the labels that depend on
where a kernel slice ends and where a fault cuts a worker's chunk:

* ``dse_json`` — the ``repro dse --json`` document;
* ``http_ok`` — ``/v1/run`` with ``depths`` and ``/v1/sweep`` in both
  ``space`` and ``configs`` form, each posted twice (cold, then hot);
* ``run_many`` — cycles, failure and the ``phase_seconds``
  ``serving`` / ``mode`` / ``capture`` labels of mixed batches;
* ``resimulate_many`` — ``Session.resimulate_many`` rows (cycles,
  buffer bits, ``None`` positions) per kernel slice size;
* ``fuzz`` — a seed-0 campaign's report and checkpoint journal,
  uninterrupted and stopped-then-resumed.

A change that claims "same behaviour for every accepted request" leaves
that file alone.  Regenerate (only for an intentional change of what a
user sees) with ``PYTHONPATH=src python tests/test_request_contract.py``.

**One answer per request.**  Every ``run_many`` and ``dse`` case gives
the same document (wall clock, ``jobs``, ``supervision`` and a search's
resume counters aside) at ``jobs`` 1, 2 and 4, resumed from every
prefix of its checkpoint journal, and under a ``crash@1`` fault plan:
which capture serves a configuration reads only the request
(:mod:`repro.exec.replay`).

**Refused values are refused once.**  :data:`REFUSED` lists the values
the library will not act on and drives each through every door that can
carry it: the CLI exits 1 with one ``error:`` line naming the value, the
service answers 400 with a typed error document, a Python caller gets a
:class:`~repro.errors.ReproError` — from the library object that
consumes the value (DESIGN.md section 13), never from a copy of its
rule in a front door.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import re
import sys
import tempfile
from unittest import mock

import pytest

from repro import errors
from repro.api import Session
from repro.dse import Evaluator
from repro.exec import replay
from repro.exec.replay import chain
from repro.fuzz import CampaignConfig, run_campaign
from repro.service import ServiceConfig, serve_in_thread
from repro.trace.store import parse_size
from repro.trace.vectorized import numpy_available
from tests.conftest import assert_cli_refuses, shell
from tests.test_service import _post, server  # noqa: F401  (a fixture)

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURE = os.path.join(REPO, "tests", "golden", "request_contract.json")

_DSE = ["dse", "fig4_ex5", "--range", "fifo2=1:4"]

#: id -> the invocations of one case, run in order against one scratch
#: directory (``DIR``); ``EXAMPLES`` is the repo's examples directory
CLI_CASES = {
    "list": [["list"]],
    "run": [["run", "fig4_ex5"]],
    "run-depth": [["run", "fig4_ex5", "--depth", "fifo2=8"]],
    "run-cosim": [["run", "fig4_ex1", "--sim", "cosim"]],
    "run-csim-failure": [["run", "fig4_ex2", "--sim", "csim"]],
    "run-deadlock": [["run", "deadlock"]],
    "run-unsupported": [["run", "fig4_ex5", "--sim", "lightningsim"]],
    "run-spec-file": [["run", "EXAMPLES/fig4_ex1.yaml"]],
    "run-unknown-design": [["run", "nosuchdesign"]],
    "trace-cache": [
        ["run", "fig4_ex3", "--trace-cache", "DIR"],       # cold capture
        ["run", "fig4_ex3", "--trace-cache", "DIR"],       # warm reuse
        ["trace", "info", "--cache-dir", "DIR"],
        ["trace", "verify", "--cache-dir", "DIR"],
        ["trace", "gc", "--cache-dir", "DIR"],
    ],
    "run-depth-trace-cache": [
        ["run", "fig4_ex5", "--depth", "fifo2=8", "--trace-cache", "DIR"],
        ["run", "fig4_ex5", "--depth", "fifo2=8", "--trace-cache", "DIR"],
        # a flipped query: full fallback, and no `trace :` line — only
        # replayed results inherit the capture label
        ["run", "fig4_ex5", "--depth", "fifo1=3", "--trace-cache", "DIR"],
    ],
    "classify": [["classify", "fig4_ex2"]],
    "report": [["report", "fig4_ex5"]],
    "dse": [_DSE],
    "dse-refine": [_DSE + ["--strategy", "refine", "--max-evals", "3"]],
    "dse-jobs": [_DSE + ["--jobs", "2"]],
    "gen": [["gen", "--type", "C", "--modules", "4", "--seed", "3"]],
}

#: id -> (endpoint, body) the service refuses; the whole error document
#: (``error`` text included) is pinned
HTTP_CASES = {
    "wire-unknown-field": ("/v1/run", {"design": "fig4_ex5", "bogus": 1}),
    "wire-depth-zero": ("/v1/run", {"design": "fig4_ex5",
                                    "depths": {"fifo2": 0}}),
    "wire-depth-not-int": ("/v1/run", {"design": "fig4_ex5",
                                       "depths": {"fifo2": "abc"}}),
    "wire-samples-with-refine": ("/v1/sweep", {
        "design": "fig4_ex5", "space": ["fifo2=1:4"],
        "strategy": "refine", "samples": 2}),
    "wire-max-evals-zero": ("/v1/sweep", {
        "design": "fig4_ex5", "space": ["fifo2=1:4"], "max_evals": 0}),
    "wire-schema-version": ("/v1/run", {"design": "fig4_ex5",
                                        "schema_version": 99}),
    "wire-design-xor-spec": ("/v1/run", {}),
    "wire-not-an-object": ("/v1/run", "[1]"),
    "wire-server-side-path": ("/v1/run",
                              {"design": "examples/fig4_ex1.yaml"}),
    "unknown-design": ("/v1/run", {"design": "nosuchdesign"}),
    "unknown-engine": ("/v1/run", {"design": "fig4_ex5",
                                   "engine": "bogus"}),
    "unknown-fifo": ("/v1/run", {"design": "fig4_ex5",
                                 "depths": {"nope": 4}}),
    "unknown-sweep-axis": ("/v1/sweep", {"design": "fig4_ex5",
                                         "space": ["nope=1:4"]}),
    "deadlock": ("/v1/run", {"design": "deadlock"}),
    "unsupported-design": ("/v1/run", {"design": "fig4_ex2",
                                       "engine": "lightningsim"}),
}

#: id -> ``repro dse`` flags whose ``--json`` document is pinned
DSE_JSON_CASES = {
    "exhaustive": _DSE,
    "refine": _DSE + ["--strategy", "refine", "--max-evals", "3"],
    "jobs-2": _DSE + ["--jobs", "2"],
    # fifo1 flips recorded queries: full fallbacks and re-captures
    "fallback": ["dse", "fig4_ex5", "--range", "fifo1=1:4"],
    "fallback-jobs-2": ["dse", "fig4_ex5", "--range", "fifo1=1:4",
                        "--jobs", "2"],
    # Func Sim crashes at fast=3 (quarantined); fast=4 follows it
    "crash-at-depth": ["dse", os.path.join(REPO, "tests", "specs",
                                           "nb_crash.yaml"),
                       "--range", "fast=1:6"],
}

# fifo1 re-captures *inside* a 3-row kernel slice and *between* slices
_SLICES = ["dse", "fig4_ex5", "--range", "fifo1=1:4", "--range",
           "fifo2=2:4"]
# depth-only (nothing re-captures, so a pool's labels do not follow its
# scheduling): 8 chunks of 4, each cut into slices of 3 + 1
_POOL_SLICES = ["dse", "fig4_ex5", "--range", "fifo2=1:32", "--jobs", "2"]
DSE_JSON_CASES.update({
    "slices": _SLICES,
    "slices-jobs-2": _SLICES + ["--jobs", "2"],
    "slices-faults": _SLICES,
    "slices-faults-jobs-2": _SLICES + ["--jobs", "2"],
    "pool-slices": _POOL_SLICES,
    "pool-slices-faults": _POOL_SLICES,
})
#: id -> the ``REPRO_FAULTS`` plan the case runs under
DSE_FAULTS = {"slices-faults": "error@3:1",
              "slices-faults-jobs-2": "error@3:1",
              "pool-slices-faults": "error@5:1"}
#: id -> the rows per kernel slice the case runs under (default: 256)
DSE_SLICE_ROWS = {case: 3 for case in DSE_JSON_CASES if "slices" in case}

_PARAMS = {"n": 60}

#: id -> (endpoint, body) the service answers 200; posted twice
HTTP_OK_CASES = {
    "run-depths": ("/v1/run", {"design": "fig4_ex5", "params": {"n": 61},
                               "depths": {"fifo2": 8}}),
    "run-depths-flipped": ("/v1/run", {
        "design": "fig4_ex5", "params": {"n": 62}, "depths": {"fifo1": 3}}),
    "sweep-space": ("/v1/sweep", {
        "design": "fig4_ex5", "params": {"n": 63},
        "space": ["fifo1=1:3", "fifo2=2:3"]}),
    "sweep-configs": ("/v1/sweep", {
        "design": "fig4_ex5", "params": {"n": 64},
        "configs": [{"fifo2": 8}, {"fifo1": 3}, {"fifo1": 3, "fifo2": 4}]}),
}

#: id -> (design, params, configs, jobs): one ``run_many`` batch mixing
#: the serving paths (incremental, full fallback, engine kwargs, a
#: non-omnisim engine; on `deadlock`, nothing to replay at all)
RUN_MANY_CASES = {
    "mixed": ("fig4_ex5", _PARAMS, [
        {"depths": {"fifo2": 8}},
        {"depths": {"fifo1": 3}},
        {"depths": {"fifo1": 3, "fifo2": 4}},
        {},
        {"engine": "omnisim", "step_limit": 10**9},
        {"engine": "cosim", "depths": {"fifo2": 4}},
        {"engine": "csim"},
    ], 1),
    "deadlock": ("deadlock", {}, [{}, {"engine": "cosim"}], 1),
    # Func Sim crashes at fast=3 (quarantined); fast=4 follows it
    "crash-at-depth": (os.path.join(REPO, "tests", "specs", "nb_crash.yaml"),
                       {}, [{"depths": {"fast": fast}} for fast in (3, 4, 5)],
                       1),
}
RUN_MANY_CASES["mixed-jobs-2"] = RUN_MANY_CASES["mixed"][:3] + (2,)
#: seven depth-only configs in slices of 3 + 3 + 1 (a trailing fifth
#: element is the rows per kernel slice the batch runs under)
RUN_MANY_CASES["slices"] = ("fig4_ex5", _PARAMS, [
    {"depths": depths} for depths in (
        {"fifo2": 8}, {"fifo1": 3}, {"fifo1": 3, "fifo2": 4}, {"fifo2": 2},
        {"fifo1": 1}, {"fifo2": 3}, {"fifo1": 1, "fifo2": 3})
], 1, 3)

#: ``Session.resimulate_many`` configs (fifo1 flips recorded queries)
#: and the rows per kernel slice they are asked under (None: default)
RESIMULATE_CONFIGS = [{"fifo2": 8}, {"fifo1": 3}, {"fifo2": 2}, {},
                      {"fifo1": 1, "fifo2": 3}, {"fifo2": 5}, {"fifo2": 1}]
RESIMULATE_SLICE_ROWS = (1, 3, None)


def slice_rows(rows: int | None):
    """Cut replay requests into kernel slices of ``rows`` (``None``: the
    default size), here and in the pool workers this process forks."""
    return (contextlib.nullcontext() if rows is None
            else mock.patch.object(replay, "DEFAULT_BATCH_SIZE", rows))

_MASKED_KEYS = ("seconds", "capture_seconds", "configs_per_sec", "digest")

_MASKS = (
    (re.compile(r"^(frontend|execution)( +): .*$", re.M), r"\1\2: <time>"),
    (re.compile(r"^throughput : .*$", re.M), "throughput : <time>"),
    (re.compile(r"\b\d+\.\d h\b"), "<age>"),
    # content address of (design source, version): not what is pinned
    (re.compile(r"\b[0-9a-f]{12}\b"), "<digest>"),
)


def _masked(text: str, scratch: str) -> str:
    text = text.replace(scratch, "DIR")
    for pattern, replacement in _MASKS:
        text = pattern.sub(replacement, text)
    return text


def run_cli_case(invocations: list) -> list:
    """One ``{"status", "stdout", "stderr"}`` record per invocation."""
    records = []
    with tempfile.TemporaryDirectory() as scratch:
        for argv in invocations:
            argv = [arg.replace("DIR", scratch).replace(
                "EXAMPLES", os.path.join(REPO, "examples")) for arg in argv]
            status, out, err = shell(argv)
            records.append({"status": status,
                            "stdout": _masked(out, scratch),
                            "stderr": _masked(err, scratch)})
    return records


def _masked_doc(doc):
    """``doc`` with every wall-clock / content-address field masked."""
    if isinstance(doc, dict):
        return {key: "<masked>" if key in _MASKED_KEYS else _masked_doc(v)
                for key, v in doc.items()}
    if isinstance(doc, list):
        return [_masked_doc(item) for item in doc]
    return doc


def _dse_doc(argv: list, faults: str | None, rows: int | None) -> dict:
    with tempfile.TemporaryDirectory() as scratch, mock.patch.dict(
            os.environ, {"REPRO_FAULTS": faults} if faults else {}), \
            slice_rows(rows):
        path = os.path.join(scratch, "sweep.json")
        status, _out, err = shell(argv + ["--json", path])
        assert status == 0, err
        with open(path, encoding="utf-8") as fh:
            return _masked_doc(json.load(fh))


def dse_json(case: str) -> dict:
    return _dse_doc(DSE_JSON_CASES[case], DSE_FAULTS.get(case),
                    DSE_SLICE_ROWS.get(case))


def answered(port: int, case: str) -> list:
    path, body = HTTP_OK_CASES[case]
    records = []
    for _ in range(2):
        status, doc = _post(port, path, body)
        records.append({"status": status, "doc": _masked_doc(doc)})
    return records


def run_many_labels(case: str, **overrides) -> list:
    """The case's labels; ``overrides`` are further ``run_many``
    keywords (``jobs`` replaces the case's)."""
    design, params, configs, jobs, *rows = RUN_MANY_CASES[case]
    jobs = overrides.pop("jobs", jobs)
    with Session.open(design, trace_cache=False, **params) as session, \
            slice_rows(rows[0] if rows else None):
        return [
            {"simulator": result.simulator, "cycles": result.cycles,
             "failure": result.failure,
             "labels": {key: result.phase_seconds.get(key)
                        for key in ("serving", "mode", "capture")}}
            for result in session.run_many(configs, jobs=jobs, **overrides)
        ]


def resimulate_many_rows() -> dict:
    rows = {}
    with Session.open("fig4_ex5", trace_cache=False, **_PARAMS) as session:
        for size in RESIMULATE_SLICE_ROWS:
            with slice_rows(size):
                rows[str(size)] = [
                    row and [row.cycles, row.buffer_bits]
                    for row in session.resimulate_many(RESIMULATE_CONFIGS)]
    return rows


def _fuzz_env() -> dict:
    """What a campaign's coverage arcs (hence its corpus and candidate
    order) depend on besides the seed."""
    return {"python": list(sys.version_info[:2]),
            "numpy": numpy_available(), "optimize": sys.flags.optimize}


def fuzz_campaigns() -> dict:
    """A seed-0 campaign of 16 candidates, uninterrupted and stopped at
    8 then resumed: reports (seconds masked) and journal lines (each
    verdict's fresh arcs as a count)."""
    def campaign(scratch, name, **kwargs):
        checkpoint = os.path.join(scratch, f"{name}.jsonl")
        report = run_campaign(CampaignConfig(
            seed=0, pin_dir=os.path.join(scratch, "pins"),
            checkpoint=checkpoint, **kwargs))
        with open(checkpoint, encoding="utf-8") as fh:
            journal = [json.loads(line) for line in fh]
        for line in journal[1:]:
            # the arcs themselves are source line numbers: pin how many
            line["o"]["arcs"] = len(line["o"]["arcs"])
        return {"report": _masked_doc(report.to_json()),
                "journal": journal}

    with tempfile.TemporaryDirectory() as scratch:
        return {
            "uninterrupted": campaign(scratch, "whole", budget=16),
            "stopped": campaign(scratch, "split", budget=8),
            "resumed": campaign(scratch, "split", budget=16, resume=True),
        }


def refused(port: int, case: str) -> dict:
    path, body = HTTP_CASES[case]
    status, doc = _post(port, path, body)
    return {"status": status, "doc": doc}


def _fixture() -> dict:
    with open(FIXTURE, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("case", sorted(CLI_CASES))
def test_cli_output_and_status_are_pinned(case, monkeypatch):
    monkeypatch.delenv("REPRO_TRACE_CACHE", raising=False)
    _assert_pinned(run_cli_case(CLI_CASES[case]), _fixture()["cli"][case])


@pytest.mark.parametrize("case", sorted(HTTP_CASES))
def test_refused_request_documents_are_pinned(case, server):
    assert refused(server.port, case) == _fixture()["http"][case]


@pytest.mark.parametrize("case", sorted(DSE_JSON_CASES))
def test_dse_json_document_is_pinned(case, monkeypatch):
    monkeypatch.delenv("REPRO_TRACE_CACHE", raising=False)
    _assert_pinned(dse_json(case), _fixture()["dse_json"][case])


@pytest.mark.parametrize("case", sorted(HTTP_OK_CASES))
def test_answered_request_documents_are_pinned(case, server):
    _assert_pinned(answered(server.port, case), _fixture()["http_ok"][case])


@pytest.mark.parametrize("case", sorted(RUN_MANY_CASES))
def test_run_many_labels_are_pinned(case):
    _assert_pinned(run_many_labels(case), _fixture()["run_many"][case])


#: ``repro dse``'s histogram line of evaluation modes
_MODES_LINE = re.compile(r"^(modes +): .*$", re.M)


def _assert_pinned(got, pinned) -> None:
    """``got == pinned``; without NumPy every replay is ``scalar``, so
    the ``mode`` / ``modes`` fields and ``repro dse``'s ``modes`` line,
    which name the kernel, are masked and the rest must still match."""
    if not numpy_available():
        got, pinned = _without_mode(got), _without_mode(pinned)
    assert got == pinned


def _without_mode(doc):
    if isinstance(doc, str):
        return _MODES_LINE.sub(r"\1: <modes>", doc)
    if isinstance(doc, dict):
        return {key: None if key in ("mode", "modes") else _without_mode(v)
                for key, v in doc.items()}
    if isinstance(doc, list):
        return [_without_mode(item) for item in doc]
    return doc


def test_resimulate_many_rows_are_pinned():
    # NumPy or not: a row the kernel declines is a row the scalar
    # replay refuses
    assert resimulate_many_rows() == _fixture()["resimulate_many"]


def test_fuzz_campaign_report_and_journal_are_pinned():
    pinned = _fixture()["fuzz"]
    if pinned["env"] != _fuzz_env():
        pytest.skip(f"coverage arcs were recorded under {pinned['env']}")
    assert fuzz_campaigns() == pinned["campaigns"]


# ---------------------------------------------------------------------------
# one answer per request, however the work was scheduled, resumed or
# retried (DESIGN.md section 15)


def _unscheduled(doc: dict) -> dict:
    """A ``dse --json`` document without what a schedule may change:
    wall clock (masked), the pool's width, the supervision block and
    how much of a search a resume restored."""
    doc = {k: v for k, v in doc.items() if k not in ("jobs", "supervision")}
    if doc["search"] is not None:
        search = doc["search"]
        doc["search"] = dict(
            search, evals=dict(search["evals"], restored=None, new=None),
            rounds=[dict(r, evaluated=None, restored=None)
                    for r in search["rounds"]])
    return doc


@functools.lru_cache(maxsize=None)
def _scheduled(argv: tuple, faults: str | None, rows: int | None) -> dict:
    """:func:`_unscheduled` of one invocation (cases share some)."""
    return _unscheduled(_dse_doc(list(argv), faults, rows))


def _with_jobs(argv: list, jobs: int) -> list:
    argv = list(argv)
    if "--jobs" in argv:
        argv[argv.index("--jobs") + 1] = str(jobs)
        return argv
    return argv + ["--jobs", str(jobs)]


def _resumed_at_every_boundary(journal, run):
    """Run once journalled to ``journal``, then ``run(resume=True)``
    from each prefix of its lines (the header alone to all of them),
    yielding ``(boundary, answer)``."""
    run(resume=False)
    lines = journal.read_text(encoding="utf-8").splitlines(keepends=True)
    for boundary in range(1, len(lines) + 1):
        journal.write_text("".join(lines[:boundary]), encoding="utf-8")
        yield boundary, run(resume=True)


@pytest.mark.parametrize("case", sorted(DSE_JSON_CASES))
def test_dse_document_does_not_depend_on_the_schedule(case, monkeypatch,
                                                      tmp_path):
    monkeypatch.delenv("REPRO_TRACE_CACHE", raising=False)
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    argv, faults = DSE_JSON_CASES[case], DSE_FAULTS.get(case)
    rows = DSE_SLICE_ROWS.get(case)
    expected = _scheduled(tuple(_with_jobs(argv, 1)), None, rows)
    for jobs in (2, 4):
        assert _scheduled(tuple(_with_jobs(argv, jobs)), faults, rows) \
            == expected, jobs
    assert _scheduled(tuple(argv), "crash@1", rows) == expected
    journal = tmp_path / "sweep.ck.jsonl"

    def run(resume: bool) -> dict:
        return _unscheduled(_dse_doc(
            argv + ["--checkpoint", str(journal)]
            + (["--resume"] if resume else []), faults, rows))

    for boundary, doc in _resumed_at_every_boundary(journal, run):
        assert doc == expected, boundary


@pytest.mark.parametrize("case", sorted(RUN_MANY_CASES))
def test_run_many_labels_do_not_depend_on_the_schedule(case, monkeypatch,
                                                       tmp_path):
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    expected = run_many_labels(case, jobs=1)
    for jobs in (2, 4):
        assert run_many_labels(case, jobs=jobs) == expected, jobs
    with monkeypatch.context() as env:
        env.setenv("REPRO_FAULTS", "crash@1")
        assert run_many_labels(case) == expected
    journal = tmp_path / "batch.ck.jsonl"

    def run(resume: bool) -> list:
        return run_many_labels(case, checkpoint=journal, resume=resume)

    for boundary, labels in _resumed_at_every_boundary(journal, run):
        assert labels == expected, boundary


def test_a_predecessor_the_evaluator_does_not_hold_answers_the_same():
    """Out of sequence — a fresh evaluator per request, or one holding
    another class's capture — each request gets the labels it gets in
    order: a configuration that runs full asks its own run whether the
    predecessor the request carries is of its class."""
    configs = [{"fifo2": 8}, {"fifo1": 3}, {"fifo1": 3, "fifo2": 4}, {},
               {"fifo1": 1}, {"fifo1": 1, "fifo2": 3}, {"fifo2": 1},
               {"fifo1": 3, "fifo2": 2}]
    requests = chain(configs)

    def doc(point):
        return dict(point.to_json(), seconds=None)

    with Session.open("fig4_ex5", trace_cache=False, **_PARAMS) as session:
        def evaluator():
            return Evaluator.for_session(session)

        for rows in (1, 3):
            with slice_rows(rows):
                in_order = [doc(p) for p in evaluator().evaluate(requests)]
                assert [p["source"] for p in in_order].count("full") >= 2
                alone = [doc(p) for request in requests
                         for p in evaluator().evaluate([request])]
                backwards = evaluator()
                reversed_order = [doc(p) for request in reversed(requests)
                                  for p in backwards.evaluate([request])]
            assert alone == in_order, rows
            assert reversed_order[::-1] == in_order, rows


def test_a_failing_predecessor_leaves_its_successor_served():
    """``nb_crash``'s Func Sim fails at fast=3 only: that configuration
    is quarantined, and fast=4 after it is served by a full run at every
    schedule — nothing runs fast=3 on fast=4's behalf."""
    points = dse_json("crash-at-depth")["points"]
    assert [(p["depths"]["fast"], p["source"]) for p in points] == [
        (1, "full"), (2, "incremental"), (3, "quarantined"), (4, "full"),
        (5, "full"), (6, "full")]


def test_fixture_covers_exactly_the_cases():
    fixture = _fixture()
    for section, cases in (("cli", CLI_CASES), ("http", HTTP_CASES),
                           ("dse_json", DSE_JSON_CASES),
                           ("http_ok", HTTP_OK_CASES),
                           ("run_many", RUN_MANY_CASES)):
        assert sorted(fixture[section]) == sorted(cases), section


# ---------------------------------------------------------------------------
# refused values: one table, every door

_SPACE = ["fifo2=1:4"]
_RUN = ["run", "fig4_ex5", "--depth"]
_SWEEP = {"design": "fig4_ex5", "space": _SPACE}


def _session():
    return Session.open("fig4_ex5", trace_cache=False, n=60)


def _depth(value) -> dict:
    return dict(names=str(value), argv=_RUN + [f"fifo2={value}"],
                http=("/v1/run", {"design": "fig4_ex5",
                                  "depths": {"fifo2": value}}),
                call=lambda: _session().run(depths={"fifo2": value}))


def _sweep_knob(flag: str, value, **kwarg) -> dict:
    return dict(names=str(value), argv=_DSE + [flag, str(value)],
                call=lambda: _session().sweep(_SPACE, **kwarg))


#: id -> ``names`` (what the one stderr line must contain), and the
#: doors that can carry the value: ``argv`` (+ ``env``), ``http``
#: (endpoint, body), ``call`` (a Python call that must raise)
REFUSED = {
    "depth-0": _depth(0),
    "depth-negative": _depth(-3),
    "depth-not-int": _depth("abc"),
    "unknown-fifo": dict(
        names="nope", argv=_RUN + ["nope=4"],
        http=("/v1/run", {"design": "fig4_ex5", "depths": {"nope": 4}}),
        call=lambda: _session().run(depths={"nope": 4})),
    # argparse `choices` keeps it off the CLI
    "unknown-executor": dict(
        http=("/v1/run", {"design": "fig4_ex5", "executor": "bogus"}),
        call=lambda: Session.open("fig4_ex5", executor="bogus").run()),
    "jobs-0": _sweep_knob("--jobs", 0, jobs=0),
    "jobs-negative": _sweep_knob("--jobs", -3, jobs=-3),
    "jobs-negative-run-many": dict(
        call=lambda: _session().run_many([{}], jobs=-1)),
    "timeout-negative": _sweep_knob("--timeout", -1, timeout=-1),
    "max-retries-negative": _sweep_knob("--max-retries", -1,
                                        max_retries=-1),
    "samples-with-refine": dict(
        names="samples",
        argv=_DSE + ["--strategy", "refine", "--samples", "2"],
        http=("/v1/sweep", dict(_SWEEP, strategy="refine", samples=2)),
        call=lambda: _session().sweep(_SPACE, strategy="refine",
                                      samples=2)),
    "max-evals-0": dict(
        _sweep_knob("--max-evals", 0, max_evals=0),
        http=("/v1/sweep", dict(_SWEEP, max_evals=0))),
    "size-bad-suffix": dict(
        names="2X", argv=["trace", "gc", "--max-bytes", "2X"],
        call=lambda: parse_size("2X")),
    "size-negative": dict(
        names="-5", argv=["serve", "--max-body", "-5"],
        call=lambda: parse_size("-5")),
    "workers-0": dict(
        names="0", argv=["serve", "--workers", "0"],
        call=lambda: serve_in_thread(workers=0)),
    "port-out-of-range": dict(
        names="99999", argv=["serve", "--port", "99999"],
        call=lambda: ServiceConfig(port=99999)),
    "malformed-faults": dict(
        names="bogus", argv=_DSE, env={"REPRO_FAULTS": "bogus"},
        call=lambda: _session().sweep(_SPACE, faults="bogus")),
}


def _carried_by(door: str) -> list:
    return sorted(case for case, row in REFUSED.items() if door in row)


@pytest.mark.parametrize("case", _carried_by("argv"))
def test_cli_refuses_with_status_1_and_one_line(case, monkeypatch):
    row = REFUSED[case]
    for name, value in row.get("env", {}).items():
        monkeypatch.setenv(name, value)
    assert_cli_refuses(row["argv"], row["names"])


@pytest.mark.parametrize("case", _carried_by("http"))
def test_service_refuses_with_400_and_a_typed_error(case, server, capsys):
    status, doc = _post(server.port, *REFUSED[case]["http"])
    assert status == doc["status"] == 400, doc
    assert issubclass(getattr(errors, doc["type"]), errors.ReproError)
    assert capsys.readouterr().err == ""    # the server logged nothing


@pytest.mark.parametrize("case", _carried_by("call"))
def test_python_raises_a_typed_error(case):
    with pytest.raises(errors.ReproError):
        REFUSED[case]["call"]()


if __name__ == "__main__":
    os.environ.pop("REPRO_TRACE_CACHE", None)
    with serve_in_thread(workers=2) as handle:
        document = {
            "cli": {case: run_cli_case(invocations)
                    for case, invocations in CLI_CASES.items()},
            "http": {case: refused(handle.port, case)
                     for case in HTTP_CASES},
            "dse_json": {case: dse_json(case) for case in DSE_JSON_CASES},
            "http_ok": {case: answered(handle.port, case)
                        for case in HTTP_OK_CASES},
            "run_many": {case: run_many_labels(case)
                         for case in RUN_MANY_CASES},
            "resimulate_many": resimulate_many_rows(),
            "fuzz": {"env": _fuzz_env(), "campaigns": fuzz_campaigns()},
        }
    with open(FIXTURE, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for door, cases in document.items():
        print(door, len(cases), "cases")
