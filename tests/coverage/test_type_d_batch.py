"""Huge-family (Type D) retiming artifacts: vectorized batch rows must
be bit-for-bit the scalar answers, and retiming-cyclic designs (the
seed-chosen reorder pair writes its FIFO pair A-then-B but reads it
B-then-A, so the depth-1-augmented recorded graph is cyclic) must
decline the whole batch rather than answer wrong."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import compile_design
from repro.designs import dsl
from repro.errors import ConstraintViolation, SimulationError
from repro.sim.registry import run_engine
from repro.trace import vectorized

# The module imports without NumPy (the import is lazy); the batch
# kernel these tests drive does not run without it.
pytestmark = pytest.mark.skipif(not vectorized.numpy_available(),
                                reason="NumPy unavailable or disabled")


def _artifact(spec):
    compiled = compile_design(dsl.build_design(spec))
    baseline = run_engine("omnisim", compiled)
    return baseline.trace, baseline


def _has_reorder_pair(spec):
    return any(m.name == "reorder_fork" for m in spec.modules)


def _probe_configs(depths, k=12):
    fifos = sorted(depths)
    configs = [{}, {f: 1 for f in fifos},
               {f: d * 2 for f, d in depths.items()}]
    for i in range(k):
        configs.append({fifos[i % len(fifos)]: 1 + (i % 5)})
    return configs


def _scalar_outcome(art, config):
    try:
        inc = art.resimulate(config)
    except (ConstraintViolation, SimulationError) as exc:
        return ("declined", type(exc).__name__)
    return ("ok", inc.cycles, tuple(sorted(inc.depths.items())),
            inc.buffer_bits)


@settings(max_examples=5, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(modules=st.integers(min_value=200, max_value=260),
       seed=st.integers(min_value=0, max_value=40),
       count=st.integers(min_value=2, max_value=5))
def test_huge_batch_rows_equal_scalar(modules, seed, count):
    spec = dsl.generate("D", modules=modules, seed=seed, count=count)
    assert len(spec.modules) == modules
    art, baseline = _artifact(spec)
    depths = {name: ch.depth
              for name, ch in baseline.fifo_channels.items()}
    configs = _probe_configs(depths)
    rows = vectorized.resimulate_batch(art, configs)
    assert len(rows) == len(configs)

    if not vectorized.batch_supported(art):
        # no all-depth topological order -> the kernel must decline the
        # whole batch, never guess row by row; only the reorder pair
        # produces that shape in this family
        assert _has_reorder_pair(spec)
        assert rows == [None] * len(configs)
        # the scalar path still serves (or cleanly declines) every row
        for config in configs:
            _scalar_outcome(art, config)
        return

    for config, row in zip(configs, rows):
        scalar = _scalar_outcome(art, config)
        if row is None:
            # a declined row must be one the scalar path also refuses
            assert scalar[0] == "declined"
        else:
            assert scalar == ("ok", row.cycles,
                              tuple(sorted(row.depths.items())),
                              row.buffer_bits)


def test_both_batchable_and_cyclic_huge_designs_exist():
    """The seed-chosen reorder pair makes some seeds retiming-cyclic;
    the hypothesis sweep above must be exercising both branches."""
    flavours = {_has_reorder_pair(dsl.generate("D", modules=200, seed=s,
                                               count=2))
                for s in range(16)}
    assert flavours == {True, False}


def test_batch_decline_is_total_on_cyclic_design():
    cyclic_seed = next(
        s for s in range(16)
        if _has_reorder_pair(dsl.generate("D", modules=200, seed=s,
                                          count=2)))
    spec = dsl.generate("D", modules=200, seed=cyclic_seed, count=2)
    art, baseline = _artifact(spec)
    depths = {name: ch.depth
              for name, ch in baseline.fifo_channels.items()}
    configs = _probe_configs(depths, k=4)
    assert not vectorized.batch_supported(art)
    assert vectorized.resimulate_batch(art, configs) == \
        [None] * len(configs)
