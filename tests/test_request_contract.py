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

A change that claims "same behaviour for every accepted request" leaves
that file alone.  Regenerate (only for an intentional change of what a
user sees) with ``PYTHONPATH=src python tests/test_request_contract.py``.

**Refused values are refused once.**  :data:`REFUSED` lists the values
the library will not act on and drives each through every door that can
carry it: the CLI exits 1 with one ``error:`` line naming the value, the
service answers 400 with a typed error document, a Python caller gets a
:class:`~repro.errors.ReproError` — from the library object that
consumes the value (DESIGN.md section 13), never from a copy of its
rule in a front door.
"""

from __future__ import annotations

import json
import os
import re
import tempfile

import pytest

from repro import errors
from repro.api import Session
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
    "classify": [["classify", "fig4_ex2"]],
    "report": [["report", "fig4_ex5"]],
    "dse": [_DSE],
    "dse-refine": [_DSE + ["--strategy", "refine", "--max-evals", "3"]],
    "dse-no-vectorize": [_DSE + ["--no-vectorize"]],
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


def refused(port: int, case: str) -> dict:
    path, body = HTTP_CASES[case]
    status, doc = _post(port, path, body)
    return {"status": status, "doc": doc}


def _fixture() -> dict:
    with open(FIXTURE, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("case", sorted(CLI_CASES))
def test_cli_output_and_status_are_pinned(case, monkeypatch):
    if case.startswith("dse") and not numpy_available():
        pytest.skip("the `modes` line names the NumPy kernel")
    monkeypatch.delenv("REPRO_TRACE_CACHE", raising=False)
    assert run_cli_case(CLI_CASES[case]) == _fixture()["cli"][case]


@pytest.mark.parametrize("case", sorted(HTTP_CASES))
def test_refused_request_documents_are_pinned(case, server):
    assert refused(server.port, case) == _fixture()["http"][case]


def test_fixture_covers_exactly_the_cases():
    fixture = _fixture()
    assert sorted(fixture["cli"]) == sorted(CLI_CASES)
    assert sorted(fixture["http"]) == sorted(HTTP_CASES)


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
    "batch-size-0": _sweep_knob("--batch-size", 0, batch_size=0),
    "batch-size-0-run-many": dict(
        call=lambda: _session().run_many([{}], batch_size=0)),
    "batch-size-0-resimulate-many": dict(
        call=lambda: _session().resimulate_many([{}], batch_size=0)),
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
        }
    with open(FIXTURE, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for door, cases in document.items():
        print(door, len(cases), "cases")
