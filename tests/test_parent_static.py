"""Old retiming graph vs new, from pinned answers.

``tests/golden/parent_static_answers.json`` holds what four store
entries written by ``TraceStore.put`` at commit 2d145d6 — the last one
whose static build gave every segment a virtual segment-end node —
answered when read back at commit faa8a4d (the entries themselves, and
the reader for their schema, are gone since).  Per entry: a digest of
its recording (node and constraint columns, without the segment columns
no graph reads), whether it had an all-depth order, and for each of 60
seeded depth configurations ``[config, retime, resimulate, batch]`` —
the sha256 of the ``retime`` times or the error, the ``resimulate``
tuple or the error, and whether the batch kernel serves the row (a
served row is the ``resimulate`` tuple).

This is the differential for the chain-only graph: a fresh capture of
the same design (no virtual nodes, fewer edges) must record the same
run and retime, resimulate and batch-resimulate to exactly those
answers, error messages included.  Never regenerate the answers from a
newer commit: their point is that they are the *old* graph's.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from array import array

import pytest

from repro.api import Session
from repro.designs import dsl
from repro.errors import ConstraintViolation, SimulationError
from repro.trace.vectorized import numpy_available, resimulate_batch

ANSWERS = os.path.join(os.path.dirname(__file__), "golden",
                       "parent_static_answers.json")

#: entry key -> how to capture the same design again
CAPTURES = {
    "fig4_ex5_n50": lambda: Session.open("fig4_ex5", trace_cache=False, n=50),
    "multicore_n8_cores4": lambda: Session.open(
        "multicore", trace_cache=False, n=8, cores=4),
    "gen_c_m6_s1_c16": lambda: Session.open(dsl.build_design(
        dsl.generate("C", modules=6, seed=1, count=16)), trace_cache=False),
    # no all-depth order: every retime takes the Kahn fallback
    "gen_d_m12_s1_c16": lambda: Session.open(dsl.build_design(
        dsl.generate("D", modules=12, seed=1, count=16)), trace_cache=False),
}
CONFIGS = 60
DEPTH_CHOICES = (1, 2, 3, 4, 7, 16, 64, 1024)

#: the recording a replay reads: node and constraint columns
RECORDING_COLUMNS = ("module_of", "nominal", "time", "kind", "mod_ptr",
                     "mod_nodes", "end_mids", "end_node_ids", "c_kind",
                     "c_fifo", "c_index", "c_outcome", "c_node")

_CAPTURED: dict = {}


def _captured(key):
    if key not in _CAPTURED:
        _CAPTURED[key] = CAPTURES[key]().baseline().trace
    return _CAPTURED[key]


@pytest.fixture(scope="module")
def answers() -> dict:
    with open(ANSWERS, encoding="utf-8") as fh:
        return json.load(fh)


def _configs(key, art):
    """Seeded depth overrides: every FIFO redrawn on even rows, one FIFO
    on odd rows (the shape of a sweep axis)."""
    rng = random.Random(key)
    names = [fc.name for fc in art.fifos]
    configs = []
    for i in range(CONFIGS):
        changed = names if i % 2 == 0 else [rng.choice(names)]
        configs.append({name: rng.choice(DEPTH_CHOICES) for name in changed})
    return configs


def recording_digest(art) -> str:
    digest = hashlib.sha256()
    for name in RECORDING_COLUMNS:
        digest.update(name.encode())
        digest.update(array("q", getattr(art, name)).tobytes())
    return digest.hexdigest()


def _outcome(fn):
    try:
        return ["ok", fn()]
    except (ConstraintViolation, SimulationError) as exc:
        return [type(exc).__name__, str(exc)]


def retimed(art, config) -> list:
    """``retime`` at ``config``: the times' sha256, or the error."""
    kind, value = _outcome(lambda: art.retime(dict(art.depths, **config)))
    if kind == "ok":
        value = hashlib.sha256(json.dumps(value).encode()).hexdigest()
    return [kind, value]


def _row(result) -> list:
    return [result.cycles, result.depths, result.module_end_times,
            result.buffer_bits, result.constraints_checked]


def resimulated(art, config) -> list:
    kind, value = _outcome(lambda: art.resimulate(config))
    return [kind, _row(value) if kind == "ok" else value]


@pytest.mark.parametrize("key", sorted(CAPTURES))
def test_fixture_holds_the_old_graph_and_a_capture_the_new(key, answers):
    new = _captured(key)
    new.ensure_static()
    pinned = answers[key]
    # the pinned recording ...
    assert recording_digest(new) == pinned["recording"]
    assert _configs(key, new) == [row[0] for row in pinned["rows"]]
    # ... under the chain-only graph: one static node per recorded one
    assert len(new.s_base) == new.node_count
    assert new.s_has_order == pinned["has_order"]
    assert min(new.s_base) >= 0, "no -inf base without virtual nodes"


@pytest.mark.parametrize("key", sorted(CAPTURES))
def test_old_and_new_graph_replay_identically(key, answers):
    rows = answers[key]["rows"]
    new = _captured(key)
    for config, retime, resim, _batch in rows:
        assert retimed(new, config) == retime, config
        assert resimulated(new, config) == resim, config
    served = sum(retime[0] == "ok" for _, retime, _, _ in rows)
    assert served >= CONFIGS // 2, "the differential must not be vacuous"


@pytest.mark.skipif(not numpy_available(), reason="NumPy unavailable")
@pytest.mark.parametrize("key", sorted(CAPTURES))
def test_old_and_new_graph_batch_identically(key, answers):
    pinned = answers[key]
    configs = [row[0] for row in pinned["rows"]]
    # a served batch row is the scalar row
    expect = [resim[1] if batch else None
              for _, _, resim, batch in pinned["rows"]]
    got = [None if row is None else _row(row)
           for row in resimulate_batch(_captured(key), configs)]
    assert got == expect
    if pinned["has_order"]:
        assert any(row is not None for row in expect)
    else:
        assert expect == [None] * CONFIGS
