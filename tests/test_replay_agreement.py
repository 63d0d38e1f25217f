"""Every driver of the replay policy answers with the same numbers.

``Session.sweep``, ``Session.run_many``, ``Session.resimulate_many``,
``/v1/run`` and ``repro run --depth`` all evaluate a depth
configuration through :mod:`repro.exec.replay`; on the same
configurations they must agree on cycles, and the two batch drivers on
the evaluation-mode label too.  The spaces are chosen so that one has
constraint flips (full-run fallbacks + re-capture) and the other is
served entirely by the vectorized kernel.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api import Session
from repro.dse import (
    MODE_FULL,
    MODE_SCALAR_FALLBACK,
    MODE_VECTORIZED,
    DepthSpace,
)
from repro.service import serve_in_thread
from repro.trace import numpy_available

CASES = [
    pytest.param("fig4_ex5", {"n": 100}, ["fifo1=1:6", "fifo2=1:6"],
                 id="fig4_ex5-flips"),
    pytest.param("vector_add_stream", {}, ["sa=1:8"],
                 id="vector_add_stream-vectorized"),
]


@pytest.fixture(scope="module")
def server():
    with serve_in_thread(workers=2) as handle:
        yield handle


@pytest.mark.parametrize("design, params, specs", CASES)
def test_in_process_drivers_agree(design, params, specs, server):
    session = Session.open(design, **params)
    space = DepthSpace.parse(specs)
    configs = list(space.configurations())

    sweep = session.sweep(space)
    # exhaustive-as-a-strategy keeps the grid's enumeration order
    declared = session.compiled.stream_depths()
    assert [p.depths for p in sweep.points] == [
        dict(declared, **c) for c in configs]
    cycles = [p.cycles for p in sweep.points]

    batch = session.run_many([{"depths": c} for c in configs])
    assert [None if r.failure else r.cycles for r in batch] == cycles
    assert ([r.phase_seconds["mode"] for r in batch]
            == [p.mode for p in sweep.points])

    rows = session.resimulate_many(configs)
    served = [(row.cycles, want) for row, want in zip(rows, cycles)
              if row is not None]
    assert served and all(got == want for got, want in served)

    conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                      timeout=60)
    try:
        for config, want in zip(configs, cycles):
            conn.request("POST", "/v1/run", json.dumps(
                {"design": design, "params": params, "depths": config}))
            response = conn.getresponse()
            doc = json.loads(response.read())
            assert response.status == 200, doc
            assert doc["cycles"] == want, config
            assert doc["serving"] in ("incremental", "full")
    finally:
        conn.close()


@pytest.mark.skipif(not numpy_available(),
                    reason="NumPy unavailable or disabled")
def test_flip_space_exercises_every_mode():
    # the agreement above is only worth something if the flip space
    # really takes all three non-trivial paths
    sweep = Session.open("fig4_ex5", n=100).sweep(
        ["fifo1=1:6", "fifo2=1:6"])
    assert {MODE_VECTORIZED, MODE_SCALAR_FALLBACK,
            MODE_FULL} <= set(sweep.mode_counts)
    assert sweep.deadlock_count == 0


@pytest.mark.parametrize("design, overrides", [
    # fifo1 overrides flip a recorded constraint (full-run fallback);
    # fifo2 ones replay incrementally
    ("fig4_ex5", [{"fifo1": 1}, {"fifo1": 4}, {"fifo2": 6}]),
    ("vector_add_stream", [{"sa": 1}, {"sa": 8}]),
])
def test_cli_run_depth_agrees(design, overrides, tmp_path):
    # ``repro run`` takes no builder params, so this leg runs the
    # registry defaults; the cache makes it take the replay path.
    repo = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(repo / "src"))
    env.pop("REPRO_FAULTS", None)
    session = Session.open(design)
    for depths in overrides:
        argv = [sys.executable, "-m", "repro", "run", design,
                "--trace-cache", str(tmp_path)]
        for fifo, depth in depths.items():
            argv += ["--depth", f"{fifo}={depth}"]
        out = subprocess.run(argv, cwd=str(repo), env=env, check=True,
                             capture_output=True, text=True,
                             timeout=120).stdout
        got = int(re.search(r"^cycles\s*: (\d+)$", out, re.M).group(1))
        assert got == session.run(depths=depths).cycles, depths
