"""Old retiming graph vs new, from data.

``tests/golden/parent_static/*.trace`` are store entries written by
``TraceStore.put`` at commit 2d145d6 — the last one whose static build
gave every segment a virtual segment-end node.  They are read here
through today's reader, so this file is two tests in one:

* **the differential for the chain-only graph** — a fresh capture of the
  same design (no virtual nodes, fewer edges) must retime, resimulate
  and batch-resimulate to exactly what the old graph gives, on every
  seeded depth configuration, error messages included;
* **store back-compat** — an entry written before the change still
  loads and replays, static columns and all, without a rebuild.

Never regenerate the fixtures from a newer commit: their point is that
they hold the *old* static columns.
"""

from __future__ import annotations

import os
import random

import pytest

from repro.api import Session
from repro.designs import dsl
from repro.errors import ConstraintViolation, SimulationError
from repro.trace import TraceArtifact, loads_artifact
from repro.trace.vectorized import (
    _plan_for,
    numpy_available,
    resimulate_batch,
)
from tests.test_vectorized import check_plan_layout

FIXTURES = os.path.join(os.path.dirname(__file__), "golden", "parent_static")

#: fixture key -> how to capture the same design again
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

_PAIRS: dict = {}


def _pair(key):
    """(parent-written artifact, fresh capture) of one fixture."""
    if key not in _PAIRS:
        # the store's reader, without the store's side effects (get()
        # refreshes atimes and unlinks entries it cannot read)
        with open(os.path.join(FIXTURES, key + ".trace"), "rb") as fh:
            old = loads_artifact(fh.read())
        _PAIRS[key] = old, CAPTURES[key]().baseline().trace
    return _PAIRS[key]


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


def _outcome(fn):
    try:
        return "ok", fn()
    except (ConstraintViolation, SimulationError) as exc:
        return type(exc).__name__, str(exc)


def _resimulated(art, config):
    kind, value = _outcome(lambda: art.resimulate(config))
    if kind == "ok":
        value = (value.cycles, value.depths, value.module_end_times,
                 value.buffer_bits, value.constraints_checked)
    return kind, value


@pytest.mark.parametrize("key", sorted(CAPTURES))
def test_fixture_holds_the_old_graph_and_a_capture_the_new(key, monkeypatch):
    old, new = _pair(key)
    monkeypatch.setattr(
        TraceArtifact, "_build_static_columns",
        lambda self: pytest.fail("a stored static graph was rebuilt"))
    old.ensure_static()
    monkeypatch.undo()
    new.ensure_static()
    # the same recording ...
    assert old.node_count == new.node_count
    for name in TraceArtifact._NODE_COLUMNS + TraceArtifact._CONSTRAINT_COLUMNS:
        assert list(getattr(old, name)) == list(getattr(new, name)), name
    # ... under the two graphs
    assert old.s_total > old.node_count, "fixture lost its virtual nodes"
    assert new.s_total == new.node_count
    assert len(new.s_succ_node) < len(old.s_succ_node)
    assert new.s_has_order == old.s_has_order
    assert min(new.s_base) >= 0, "no -inf base without virtual nodes"


@pytest.mark.parametrize("key", sorted(CAPTURES))
def test_old_and_new_graph_replay_identically(key):
    old, new = _pair(key)
    configs = _configs(key, old)
    served = 0
    for config in configs:
        depths = dict(old.depths, **config)
        got = _outcome(lambda: new.retime(depths))
        assert got == _outcome(lambda: old.retime(depths)), config
        assert _resimulated(new, config) == _resimulated(old, config), config
        served += got[0] == "ok"
    assert served >= CONFIGS // 2, "the differential must not be vacuous"


@pytest.mark.skipif(not numpy_available(), reason="NumPy unavailable")
@pytest.mark.parametrize("key", sorted(CAPTURES))
def test_old_and_new_graph_batch_identically(key):
    old, new = _pair(key)
    configs = _configs(key, old)
    rows_old = resimulate_batch(old, configs)
    rows_new = resimulate_batch(new, configs)
    for config, a, b in zip(configs, rows_old, rows_new):
        assert (a is None) == (b is None), config
        if a is not None:
            assert (a.cycles, a.module_end_times) == (
                b.cycles, b.module_end_times), config
            # and the batch row is the scalar row, on both graphs
            assert ("ok", (b.cycles, b.depths, b.module_end_times,
                           b.buffer_bits, b.constraints_checked)) \
                == _resimulated(new, config), config
    if old.s_has_order:
        assert any(row is not None for row in rows_new)
    else:
        assert rows_old == rows_new == [None] * CONFIGS


@pytest.mark.skipif(not numpy_available(), reason="NumPy unavailable")
def test_old_graph_plan_layout():
    """The plan's fan-in classes exist for these entries only (a fresh
    graph never exceeds fan-in 4), so this is where their layout,
    padding bound and scratch size are checked."""
    widest = {}
    for key in sorted(CAPTURES):
        old, new = _pair(key)
        if old.s_has_order:
            widest[key] = check_plan_layout(old, _plan_for(old),
                                            chain_only=False)
            assert check_plan_layout(new, _plan_for(new)) <= 4
    assert len(widest) == 3 and max(widest.values()) > 4, widest
