"""Differential tests for the vectorized batch-retiming kernel.

The contract of :mod:`repro.trace.vectorized` is purely differential:
``resimulate_batch`` must agree with the scalar
``TraceArtifact.resimulate`` **row for row** — a served row is
bit-for-bit the scalar result (cycles, module end times, buffer bits,
constraint count), and a declined (``None``) row is exactly a row the
scalar path cannot serve either (constraint flip, invalid depths, out
of the kernel's safe range).  Tested across every registry design, both
executors, hypothesis-random depth matrices, and mixed batches with
deadlock and constraint-flip rows.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import compile_design, designs, hls
from repro.errors import ConstraintViolation, DeadlockError, SimulationError
from repro.sim.registry import run_engine
from repro.trace.columnar import replay_trace
from repro.trace.vectorized import (
    batch_supported,
    numpy_available,
    resimulate_batch,
    retime_batch,
)
from tests.conftest import make_nb_design, make_pipeline_design

EXECUTORS = ("compiled", "interp")

#: Smaller instances keep the full-suite runtime reasonable; retiming
#: behaviour is size-independent.
SMALL = {"fig4_ex2": {"n": 200}, "fig4_ex3": {"n": 200},
         "fig4_ex4a": {"n": 200}, "fig4_ex4b": {"n": 200},
         "fig4_ex4a_d": {"polls": 300}, "fig4_ex4b_d": {"polls": 300},
         "fig4_ex5": {"n": 200}, "fig2_timer": {"n": 200},
         "deadlock": {"n": 50}, "branch": {"n": 400},
         "multicore": {"n": 120}}

needs_numpy = pytest.mark.skipif(not numpy_available(),
                                 reason="NumPy unavailable")

_TRACES: dict = {}


def trace_for(key, build, executor):
    """Capture (once per test run) and return the trace artifact, or
    None when the design deadlocks at its declared depths."""
    cache_key = (key, executor)
    if cache_key not in _TRACES:
        try:
            result = run_engine("omnisim", build(), executor=executor)
        except DeadlockError:
            _TRACES[cache_key] = None
        else:
            _TRACES[cache_key] = result.trace
    return _TRACES[cache_key]


def registry_trace(name, executor):
    return trace_for(
        name,
        lambda: compile_design(
            designs.get(name).make(**SMALL.get(name, {}))),
        executor)


def scalar_row(trace, config):
    """The scalar oracle for one row: the IncrementalResult, or None
    when the scalar path raises (flip / invalid depths / out of the
    safe depth range)."""
    try:
        return trace.resimulate(dict(config))
    except (ConstraintViolation, SimulationError, IndexError):
        return None


def assert_rows_match(trace, configs):
    """Row-for-row differential: batched vs scalar."""
    batched = resimulate_batch(trace, configs)
    assert len(batched) == len(configs)
    served = 0
    for config, row in zip(configs, batched):
        ref = scalar_row(trace, config)
        if row is None:
            assert ref is None, (config, ref)
            continue
        served += 1
        assert ref is not None, config
        assert row.cycles == ref.cycles, config
        assert row.depths == ref.depths, config
        assert row.module_end_times == ref.module_end_times, config
        assert row.buffer_bits == ref.buffer_bits, config
        assert row.constraints_checked == ref.constraints_checked, config
    return served


# ---------------------------------------------------------------------------
# full differential matrix: every registry design x both executors


@needs_numpy
@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize("name", designs.names())
def test_registry_differential(name, executor):
    trace = registry_trace(name, executor)
    if trace is None:
        pytest.skip("design deadlocks at its declared depths")
    if not trace.depths:
        pytest.skip("design has no FIFOs to sweep")
    if not batch_supported(trace):
        pytest.skip("artifact has no all-depth order (cyclic at depth 1)")
    rng = random.Random(f"{name}:{executor}")
    names = sorted(trace.depths)
    configs = [dict(trace.depths),  # identity row: trivially valid
               {names[0]: 1}]       # congestion row: likely flips
    for _ in range(6):
        overlay = rng.sample(names, k=rng.randint(1, len(names)))
        configs.append({f: rng.randint(1, 2 * trace.depths[f] + 4)
                        for f in overlay})
    served = assert_rows_match(trace, configs)
    # the identity row revalidates by construction: the batch must
    # actually serve, not blanket-decline its way to a vacuous pass
    assert served >= 1


# ---------------------------------------------------------------------------
# hypothesis: random depth matrices on the conftest designs


def conftest_trace(kind, executor):
    builders = {"pipeline": lambda: compile_design(make_pipeline_design()),
                "nb": lambda: compile_design(make_nb_design())}
    return trace_for(f"conftest:{kind}", builders[kind], executor)


@needs_numpy
@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize("kind", ["pipeline", "nb"])
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_random_depth_matrices(kind, executor, data):
    trace = conftest_trace(kind, executor)
    names = sorted(trace.depths)
    rows = data.draw(st.integers(min_value=1, max_value=10))
    configs = [
        {name: data.draw(st.integers(min_value=1, max_value=48))
         for name in names}
        for _ in range(rows)
    ]
    assert_rows_match(trace, configs)


@needs_numpy
def test_retime_batch_matches_scalar_retime():
    trace = conftest_trace("pipeline", "compiled")
    depth_maps = [dict(trace.depths, s1=d) for d in (1, 2, 5, 9, 33)]
    batched = retime_batch(trace, depth_maps)
    for depths, times in zip(depth_maps, batched):
        assert times == trace.retime(depths), depths


# ---------------------------------------------------------------------------
# mixed batches: constraint-flip rows and invalid rows degrade per-row


@needs_numpy
def test_mixed_batch_flip_rows_degrade_per_row():
    # nb design captured at depth 2: every shallow depth flips a
    # recorded NB outcome; the identity row must still be served from
    # the same batch — degradation is per-row, not per-batch.
    trace = conftest_trace("nb", "compiled")
    configs = [{"s1": 1}, {"s1": 2}, {"s1": 3}, {"s1": 7}, {"s1": 2}]
    rows = resimulate_batch(trace, configs)
    assert rows[1] is not None and rows[4] is not None  # identity rows
    assert rows[0] is None  # flipped row declined...
    for config, row in zip(configs, rows):  # ...and all rows differential
        ref = scalar_row(trace, config)
        assert (row is None) == (ref is None), config
        if row is not None:
            assert row.cycles == ref.cycles


@needs_numpy
def test_mixed_batch_invalid_rows_degrade_per_row():
    trace = conftest_trace("pipeline", "compiled")
    configs = [{"s1": 4}, {"s1": 0}, {"nope": 3}, {"s2": 6}]
    rows = resimulate_batch(trace, configs)
    assert rows[0] is not None and rows[3] is not None
    assert rows[1] is None  # depth < 1: scalar raises SimulationError
    assert rows[2] is None  # unknown FIFO: scalar raises SimulationError
    with pytest.raises(SimulationError):
        trace.resimulate({"s1": 0})
    with pytest.raises(SimulationError):
        trace.resimulate({"nope": 3})


# ---------------------------------------------------------------------------
# deadlock rows: a design whose consumer drains its streams in the
# opposite order the producer fills them — complete when the first
# stream buffers the whole burst, deadlocked below that.


@hls.kernel
def fork_producer_k(n: hls.Const(), o1: hls.StreamOut(hls.i32),
                    o2: hls.StreamOut(hls.i32)):
    for i in range(n):
        o1.write(i)
    for i in range(n):
        o2.write(i + 100)


@hls.kernel
def swapped_consumer_k(i1: hls.StreamIn(hls.i32),
                       i2: hls.StreamIn(hls.i32), n: hls.Const(),
                       sum_out: hls.ScalarOut(hls.i32)):
    total = 0
    for i in range(n):
        total += i2.read()
    for i in range(n):
        total += i1.read()
    sum_out.set(total)


def make_reorder_design(n=8, depth=8) -> hls.Design:
    d = hls.Design("test_reorder")
    s1 = d.stream("s1", hls.i32, depth=depth)
    s2 = d.stream("s2", hls.i32, depth=2)
    total = d.scalar("total", hls.i32)
    d.add(fork_producer_k, n=n, o1=s1, o2=s2)
    d.add(swapped_consumer_k, i1=s1, i2=s2, n=n, sum_out=total)
    return d


@needs_numpy
def test_mixed_batch_deadlock_rows_decline():
    # The depth-1-augmented recorded graph is cyclic (that is *why*
    # shallow depths deadlock), so the artifact carries no all-depth
    # order: the kernel must decline every row — never mis-serve a
    # deadlocking configuration — and the scalar oracle agrees row for
    # row (retiming below the burst depth goes cyclic and raises).
    compiled = compile_design(make_reorder_design())
    result = run_engine("omnisim", compiled)
    trace = result.trace
    assert not batch_supported(trace)
    configs = [{"s1": d} for d in (4, 6, 8, 10)]
    assert resimulate_batch(trace, configs) == [None] * len(configs)
    for config in configs[:2]:  # deadlock rows: scalar declines too
        assert scalar_row(trace, config) is None


def test_sweep_with_deadlock_rows_batched_equals_scalar():
    # End to end through the explorer: a sweep spanning deadlocking and
    # completing depths must produce identical points (values *and*
    # deadlock outcomes) batched and scalar.
    from repro.dse import SOURCE_DEADLOCK, explore

    compiled = compile_design(make_reorder_design())
    batched = explore(compiled, ["s1=4:12"])
    scalar = explore(compiled, ["s1=4:12"], vectorize=False)
    key = lambda p: (p.depths, p.cycles, p.buffer_bits, p.ok)
    assert [key(p) for p in batched.points] == [key(p) for p in scalar.points]
    sources = [p.source for p in batched.points]
    assert sources.count(SOURCE_DEADLOCK) == 4  # depths 4..7
    assert all(p.ok for p in batched.points[4:])


# ---------------------------------------------------------------------------
# pure-Python fallback (the REPRO_NO_NUMPY / numpy-less environment)


def test_without_numpy_whole_batch_degrades(monkeypatch):
    from repro.dse import explore
    from repro.trace import vectorized

    monkeypatch.setattr(vectorized, "_np", None)
    assert not vectorized.numpy_available()
    trace = conftest_trace("pipeline", "compiled")
    assert not vectorized.batch_supported(trace)
    assert vectorized.resimulate_batch(trace, [{"s1": 3}, {"s1": 4}]) \
        == [None, None]
    # the explorer still sweeps — scalar path, identical values
    compiled = compile_design(make_pipeline_design())
    batched = explore(compiled, ["s1=1:6"])
    scalar = explore(compiled, ["s1=1:6"], vectorize=False)
    assert [(p.depths, p.cycles, p.buffer_bits) for p in batched.points] \
        == [(p.depths, p.cycles, p.buffer_bits) for p in scalar.points]


def test_batch_size_validation():
    from repro.dse import explore

    compiled = compile_design(make_pipeline_design())
    with pytest.raises(ValueError):
        explore(compiled, ["s1=1:4"], batch_size=0)


# ---------------------------------------------------------------------------
# NumPy is a first-kernel-use import, not an import-time one

_LAZY_NUMPY_PROG = """
import sys
from repro.cli import main
assert main(["run", "fig4_ex5"]) == 0
assert "numpy" not in sys.modules, "repro run imported numpy"
from repro.api import Session
from repro.trace import numpy_available
result = Session.open("fig4_ex5", trace_cache=False, n=100).sweep(
    ["fifo2=1:8"])
modes = sorted({p.mode for p in result.points})
print("MODES", numpy_available(), "numpy" in sys.modules, modes)
"""


def test_repro_run_does_not_import_numpy():
    """A plain ``repro run`` never pays the NumPy import (~1/3 of its
    wall); the first batched sweep in the same process still gets the
    vectorized kernel."""
    import os
    import subprocess
    import sys

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", _LAZY_NUMPY_PROG],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    line = [ln for ln in proc.stdout.splitlines()
            if ln.startswith("MODES")][-1]
    if numpy_available():
        assert line == "MODES True True ['vectorized']", line
    else:
        assert line.startswith("MODES False False"), line
