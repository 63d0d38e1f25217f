"""The request contract of both front doors, pinned.

``tests/golden/request_contract.json`` records, at the commit *before*
the request-validation refactor (ISSUE 21):

* ``cli`` — exit status, stdout and stderr of every accepted ``repro``
  invocation a user is documented to type (plus ``run nosuchdesign``),
  wall-clock fields masked;
* ``http`` — status and error document of request bodies the service
  already refused correctly (``WireError`` rows, unknown design /
  engine / FIFO, deadlock, unsupported design).

A change that claims "same behaviour for every accepted request" leaves
that file alone.  Regenerate (only for an intentional change of what a
user sees) with ``PYTHONPATH=src python tests/test_request_contract.py``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import tempfile

import pytest

from repro.cli import main as cli_main
from repro.service import serve_in_thread
from repro.trace.vectorized import numpy_available
from tests.test_service import _post

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
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                status = cli_main(argv)
            records.append({"status": status,
                            "stdout": _masked(out.getvalue(), scratch),
                            "stderr": _masked(err.getvalue(), scratch)})
    return records


def refused(port: int, case: str) -> dict:
    path, body = HTTP_CASES[case]
    status, doc = _post(port, path, body)
    return {"status": status, "doc": doc}


def _fixture() -> dict:
    with open(FIXTURE, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def server():
    handle = serve_in_thread(workers=2)
    yield handle
    handle.stop()


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
