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
from repro.api import Session
from repro.designs import dsl
from repro.errors import ConstraintViolation, DeadlockError, SimulationError
from repro.sim.registry import run_engine
from repro.trace import TraceArtifact, vectorized
from repro.trace.columnar import K_READ, K_WRITE, replay_trace
from repro.trace.vectorized import (
    batch_supported,
    numpy_available,
    resimulate_batch,
    retime_batch,
)
from tests.conftest import (
    FIFO_DESIGNS,
    fresh_interpreter,
    make_nb_design,
    make_pipeline_design,
)
from tests.test_graph_retime import _request

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
np = vectorized._numpy()

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


def registry_trace(name, executor, sizes=SMALL):
    return trace_for(
        (name, *sizes.get(name, {}).values()),
        lambda: compile_design(
            designs.get(name).make(**sizes.get(name, {}))),
        executor)


def scalar_row(trace, config):
    """The scalar oracle for one row: the IncrementalResult, or None
    when the scalar path raises (flip / invalid depths / a depth that
    deadlocks the recording)."""
    try:
        return trace.resimulate(dict(config))
    except (ConstraintViolation, SimulationError):
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
# differential matrix: every registry design with FIFOs x both executors


def test_fifo_designs_leaves_out_only_fifo_less():
    """The collection-time filter agrees with what a capture records,
    so a new FIFO design cannot fall out of the matrices silently."""
    for name in designs.names():
        trace = registry_trace(name, "compiled")
        # a design that deadlocks as declared has a FIFO to block on
        assert (name in FIFO_DESIGNS) == (trace is None
                                          or bool(trace.depths)), name


@needs_numpy
@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize("name", FIFO_DESIGNS)
def test_registry_differential(name, executor):
    trace = registry_trace(name, executor)
    if trace is None:
        pytest.skip("design deadlocks at its declared depths")
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
    batched = explore(Session(compiled), ["s1=4:12"])
    scalar = explore(Session(compiled), ["s1=4:12"], batch_size=1)
    key = lambda p: (p.depths, p.cycles, p.buffer_bits, p.ok)
    assert [key(p) for p in batched.points] == [key(p) for p in scalar.points]
    sources = [p.source for p in batched.points]
    assert sources.count(SOURCE_DEADLOCK) == 4  # depths 4..7
    assert all(p.ok for p in batched.points[4:])


# ---------------------------------------------------------------------------
# the plan's layout: what lets a level cost three NumPy calls (+ three
# with WAR rows) whatever the number of FIFOs

#: generated Type D designs of the ``capture_scale`` / ``sweep_vectorized``
#: workloads: hundreds of FIFOs, wide levels
TYPE_D = {"D100": (100, 1), "D300": (300, 0)}

#: The plan tests only: a 257-wide time matrix of the default
#: ``inr_arch`` (n=768) is 41 MB, and its fresh pages alone cost ~35 s.
#: The differentials above keep the registry default.
PLAN_SIZES = {**SMALL, "inr_arch": {"n": 192}}


def planned_trace(name):
    if name in TYPE_D:
        modules, seed = TYPE_D[name]
        return trace_for(name, lambda: compile_design(dsl.build_design(
            dsl.generate("D", modules=modules, seed=seed, count=16))),
            "compiled")
    return registry_trace(name, "compiled", PLAN_SIZES)


def plan_or_skip(name):
    trace = planned_trace(name)
    if trace is None:
        pytest.skip("design deadlocks at its declared depths")
    if not batch_supported(trace):
        pytest.skip("artifact has no all-depth order (cyclic at depth 1)")
    return trace, vectorized._plan_for(trace)


def check_plan_layout(trace, plan):
    """The layout invariants of one plan; returns its widest fan-in."""
    total, perm = plan.total, plan.perm
    assert total == trace.node_count
    # every blocking write a WAR edge can target, by its row of T
    war_rows = {int(perm[fc.write_nodes[pos]]): (fi, pos)
                for fi, fc in enumerate(trace.fifos)
                for pos in range(1, len(fc.write_nodes))
                if trace.kind[fc.write_nodes[pos]] == K_WRITE}
    assert len(plan.war_fifo) == len(war_rows)
    static = sorted(
        (int(perm[u]), int(perm[trace.s_succ_node[k]]),
         trace.s_succ_weight[k])
        for u in range(total)
        for k in range(trace.s_succ_ptr[u], trace.s_succ_ptr[u + 1]))
    planned = []
    next_row = plan.levels[0][0] if plan.levels else total
    next_war = 0
    for lo, hi, ranks, src, w, w_lo, r_lo, r_hi in plan.levels:
        # destinations: exactly the next contiguous row range
        assert lo == next_row and hi > lo
        next_row = hi
        width = hi - lo
        assert len(src) == len(w) == ranks * width and ranks >= 1
        assert ranks <= 4
        grid = src.reshape(ranks, width)
        weights = w.reshape(ranks, width)
        own = np.arange(lo, hi)
        loops = (grid == own) & (weights == 0)
        assert (loops.sum(axis=0) == 1).all(), "one self-loop row each"
        pads = grid == total
        assert (weights[pads] == 0).all()
        assert (grid[~pads] < lo).sum() == (~pads & ~loops).sum(), \
            "predecessors sit on earlier levels"
        rank, dst = np.nonzero(~pads & ~loops)
        planned += zip(grid[rank, dst].tolist(), (dst + lo).tolist(),
                       weights[rank, dst].tolist())
        # WAR rows: the level's tail, in the global index matrix's order
        assert r_lo == next_war and hi - w_lo == r_hi - r_lo
        next_war = r_hi
        for k, row in zip(range(r_lo, r_hi), range(w_lo, hi)):
            pos = int(plan.war_top[k, 0] - plan.war_slot[k, 0]) - 1
            assert (int(plan.war_fifo[k]), pos) == war_rows.pop(row)
        assert not any(row in war_rows for row in range(lo, w_lo))
    assert next_row == total and not war_rows
    assert sorted(planned) == static
    # padding and scratch: below 2x (past level 0 a fan-in is 2 to 4)
    padded = [len(src) for _, _, _, src, *_ in plan.levels]
    self_loops = total - (plan.levels[0][0] if plan.levels else total)
    assert sum(padded) < 2 * (len(static) + self_loops)
    assert plan.max_ke == max(padded, default=0)
    assert plan.max_kw == max(
        (r_hi - r_lo for *_, r_lo, r_hi in plan.levels), default=0)
    return max((ranks for _, _, ranks, *_ in plan.levels), default=0)


@needs_numpy
@pytest.mark.parametrize("name", FIFO_DESIGNS + sorted(TYPE_D))
def test_plan_layout_invariants(name):
    check_plan_layout(*plan_or_skip(name))


class CountingArray(np.ndarray if numpy_available() else object):
    """Counts every ufunc call and ``take`` it takes part in."""

    calls: dict = {}

    def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
        name = f"{ufunc.__name__}.{method}"
        self.calls[name] = self.calls.get(name, 0) + 1
        plain = [np.asarray(x) if isinstance(x, np.ndarray) else x
                 for x in inputs]
        if out is not None:
            kwargs["out"] = tuple(np.asarray(o) for o in out)
        return getattr(ufunc, method)(*plain, **kwargs)

    def take(self, *args):
        self.calls["take"] = self.calls.get("take", 0) + 1
        return np.asarray(self).take(*args)


class CountingNumpy:
    """The numpy namespace, except that scratch comes back counting."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def empty(*args, **kwargs):
        return np.empty(*args, **kwargs).view(CountingArray)


@needs_numpy
@pytest.mark.parametrize("name,width", [("vector_add_stream", 256),
                                        ("D300", 64)])
def test_numpy_calls_per_level(name, width, monkeypatch):
    """By count, not wall: three calls per level, three more where it
    has WAR rows, a per-batch constant — 3 FIFOs or 300."""
    trace, plan = plan_or_skip(name)
    rng = random.Random(name)
    D = np.asarray([[rng.randint(int(lo), int(lo) + 8)
                     for lo in plan.min_safe_depth] for _ in range(width)])
    expected = plan.retime_matrix(D)
    monkeypatch.setattr(vectorized, "_np", CountingNumpy())
    calls: dict = {}
    monkeypatch.setattr(CountingArray, "calls", calls)
    counted = plan.retime_matrix(D)
    monkeypatch.undo()
    assert (np.asarray(counted) == expected).all()
    levels = len(plan.levels)
    war_levels = sum(r_hi > r_lo for *_, r_lo, r_hi in plan.levels)
    blocks = -(-len(plan.war_fifo) // vectorized.WAR_BLOCK_ROWS)
    assert war_levels > levels // 4, "the WAR step must be on the path"
    assert calls["take"] == levels + war_levels
    assert calls["maximum.reduce"] == levels
    assert sum(calls.values()) <= 3 * levels + 3 * war_levels + 4 * blocks
    print(f"{name}: {len(trace.fifos)} FIFOs, {levels} levels, "
          f"{war_levels} with WAR rows, {sum(calls.values())} NumPy calls")


@needs_numpy
@pytest.mark.parametrize("name", FIFO_DESIGNS + sorted(TYPE_D))
def test_batch_widths_match_scalar_bit_for_bit(name):
    """Widths 1, 2, 64 and one past the default batch: the time matrix
    is the scalar kernel's time list, column for column."""
    trace, plan = plan_or_skip(name)
    assert vectorized.DEFAULT_BATCH_SIZE == 256
    rng = random.Random(f"widths:{name}")
    names = [fc.name for fc in trace.fifos]
    for width in (1, 2, 64, 257):
        maps = []
        for _ in range(width):
            depths = dict(trace.depths)
            for fifo in rng.sample(names, k=rng.randint(1, len(names))):
                floor = int(plan.min_safe_depth[names.index(fifo)])
                depths[fifo] = floor + rng.choice((0, 0, 1, 2, 5, 40))
            maps.append(depths)
        batched = retime_batch(trace, maps)
        assert len(batched) == width
        # scalar retime is the slow side: every column of the narrow
        # batches, a seeded handful (and both ends) of the wide ones
        picks = sorted({0, width - 1, *rng.sample(range(width),
                                                  k=min(width, 4))})
        for col in picks:
            assert batched[col] == trace.retime(maps[col]), (width, col)


@needs_numpy
def test_war_index_block_seams_inside_levels(monkeypatch):
    """D300 has 4,864 WAR rows; filled 7 at a time, the seams of the
    source-index matrix fall inside levels and between FIFOs."""
    trace, plan = plan_or_skip("D300")
    assert len(plan.war_fifo) > 4000
    assert max(r_hi - r_lo for *_, r_lo, r_hi in plan.levels) > 7
    rng = random.Random(7)
    names = [fc.name for fc in trace.fifos]
    maps = [dict(trace.depths, **{rng.choice(names): rng.randint(1, 7)
                                  for _ in range(3)}) for _ in range(5)]
    whole = retime_batch(trace, maps)
    monkeypatch.setattr(vectorized, "WAR_BLOCK_ROWS", 7)
    assert retime_batch(trace, maps) == whole
    for depths, times in zip(maps, whole):
        assert times == trace.retime(depths)


# ---------------------------------------------------------------------------
# the numeric edge: int32 plans below a path bound of 2**29, int64 above


def bounded_artifact(bound, rng):
    """Producer/consumer pair whose longest-possible-path bound (max
    base + positive weights + one per write) is exactly ``bound``: the
    producer starts late enough to make up the difference."""
    art = TraceArtifact()
    table = art.fifo_table("f")
    n = rng.randint(2, 6)
    gaps = [rng.randint(1, 9) for _ in range(2 * (n - 1))]
    # chains (the gaps), RAW (n), two port chains (n - 1 each), writes (n)
    start = bound - (sum(gaps) + n + 2 * (n - 1) + n)
    nominal = start
    for gap in [0] + gaps[:n - 1]:
        nominal += gap
        table.add_write(art.add_node("p", _request(nominal), nominal, K_WRITE))
    nominal = 0
    for gap in [0] + gaps[n - 1:]:
        nominal += gap
        table.add_read(art.add_node("c", _request(nominal), nominal, K_READ))
    art.depths = {"f": n}
    return art, n


@needs_numpy
@pytest.mark.parametrize("bound", [(1 << 29) - 1, 1 << 29, (1 << 31) + 5])
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_dtype_switch_at_the_path_bound(bound, seed):
    art, n = bounded_artifact(bound, random.Random(seed))
    plan = vectorized.BatchPlan(art)
    assert plan.supported
    assert plan.dtype == (np.int32 if bound < 1 << 29 else np.int64)
    maps = [{"f": depth} for depth in range(1, n + 2)]
    T = plan.retime_matrix([[m["f"]] for m in maps])
    # sentinel candidates never win: no real row carries one
    assert (T[:plan.total] >= 0).all() and (T[plan.total] == plan.neg).all()
    assert int(T.max()) <= bound
    for col, depths in enumerate(maps):
        assert T[plan.perm, col].tolist() == art.retime(depths), depths


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
    batched = explore(Session(compiled), ["s1=1:6"])
    scalar = explore(Session(compiled), ["s1=1:6"], batch_size=1)
    assert [(p.depths, p.cycles, p.buffer_bits) for p in batched.points] \
        == [(p.depths, p.cycles, p.buffer_bits) for p in scalar.points]


@needs_numpy
def test_one_row_slices_make_no_kernel_call(monkeypatch):
    """``resimulate_many(batch_size=1)`` is the scalar path, as in
    ``Replayer.evaluate``: a one-row slice is a scalar replay, never a
    kernel call, and answers like one."""
    from repro.exec import replay

    calls = []
    kernel = replay.resimulate_batch
    monkeypatch.setattr(replay, "resimulate_batch",
                        lambda *args: calls.append(args) or kernel(*args))
    session = Session.open("fig4_ex5", trace_cache=False, n=60)
    configs = [{"fifo2": 3}, {"fifo1": 5}, {"fifo2": 9}]
    rows = session.resimulate_many(configs, batch_size=1)
    assert len(calls) == 0
    base, declared = session.baseline(), session.declared()[1]
    scalar = [replay.replay_one(base, dict(declared, **config))[0]
              for config in configs]
    assert [row and row.cycles for row in rows] == [
        row and row.cycles for row in scalar]
    session.resimulate_many(configs, batch_size=2)
    assert [len(args[1]) for args in calls] == [2], "a one-row tail"


def test_batch_size_validation():
    from repro.dse import explore

    compiled = compile_design(make_pipeline_design())
    with pytest.raises(ValueError):
        explore(Session(compiled), ["s1=1:4"], batch_size=0)


# ---------------------------------------------------------------------------
# What a plain run loads is a checked property: everything else is a
# first-use import, not an import-time one

#: modules a plain ``repro run <registry design>`` must not load (the CI
#: differential-smoke step imports this list: there is one)
RUN_DENY = (
    "numpy", "yaml", "multiprocessing", "concurrent.futures", "logging",
    "asyncio", "http",
    "repro.service", "repro.dse", "repro.fuzz", "repro.exec",
    "repro.api.batch", "repro.analysis",
    "repro.trace.store", "repro.trace.vectorized",
    "repro.sim.cosim", "repro.sim.csim", "repro.sim.lightningsim",
    "repro.sim.naive", "repro.sim.thread_executor",
    "repro.designs.dsl",
)
#: ceilings on what ``repro run fig4_ex5`` adds to the interpreter's
#: startup set (a ``site`` hook's imports are not counted): 48 ``repro.*``
#: / 116 added on a ``.pth``-free CPython 3.11.7, 148 in all there; the
#: second ceiling is the old 160-in-all one less the 32 modules that
#: interpreter holds before the run (79 / 223 in all before the cold path
#: was trimmed)
RUN_MAX_REPRO_MODULES = 52
RUN_MAX_MODULES = 128


def run_import_report(before, loaded) -> dict:
    """Audit what a plain ``repro run fig4_ex5`` added to ``sys.modules``
    (``before``: a snapshot taken just before the first ``repro`` import,
    ``loaded``: one taken after the run): the denied modules among them
    (any design module but ``fig4`` is one), and the two counts."""
    from repro.designs import registry

    modules = set(loaded) - set(before)
    denied = {name for name in modules
              if any(name == deny or name.startswith(deny + ".")
                     for deny in RUN_DENY)}
    denied |= {f"repro.designs.{module}" for module in registry._MODULES
               if module != "fig4"
               and f"repro.designs.{module}" in modules}
    return {
        "denied": sorted(denied),
        "repro": sum(name == "repro" or name.startswith("repro.")
                     for name in modules),
        "all": len(modules),
    }


_RUN_BUDGET_PROG = """
import os, sys
before = set(sys.modules)   # what startup (and any site hook) loaded
os.environ.pop("REPRO_TRACE_CACHE", None)   # a configured cache loads the store
from repro.cli import main
assert main(["run", "fig4_ex5"]) == 0
loaded = set(sys.modules)
from tests.test_vectorized import (
    RUN_MAX_MODULES, RUN_MAX_REPRO_MODULES, run_import_report)
report = run_import_report(before, loaded)
print("BUDGET", report)
assert not report["denied"], report["denied"]
assert report["repro"] <= RUN_MAX_REPRO_MODULES, report
assert report["all"] <= RUN_MAX_MODULES, report

# lazy means later, not never: the same process still reaches it all
import tempfile
from repro.api import Session
assert Session.open("skynet", trace_cache=False).run("cosim").cycles > 0
with tempfile.TemporaryDirectory() as cache:
    for capture in ("cold", "warm"):
        assert main(["run", "fig4_ex5", "--trace-cache", cache]) == 0
    assert os.listdir(cache)
from repro.trace import numpy_available
result = Session.open("fig4_ex5", trace_cache=False, n=100).sweep(
    ["fifo2=1:8"])
modes = sorted({p.mode for p in result.points})
print("MODES", numpy_available(), "numpy" in sys.modules, modes)
"""


def test_repro_run_does_not_import_numpy():
    """A plain ``repro run`` loads what it runs — not NumPy (~1/3 of its
    wall once), PyYAML, the pool/service/DSE/fuzz layers, the other
    engines or the other 39 designs — and everything it skipped still
    loads on first use in the same process: another engine, the trace
    store, and the vectorized kernel on the first batched sweep."""
    out = fresh_interpreter(_RUN_BUDGET_PROG)
    print(*(ln for ln in out.splitlines() if ln.startswith("BUDGET")))
    line = [ln for ln in out.splitlines() if ln.startswith("MODES")][-1]
    if numpy_available():
        assert line == "MODES True True ['vectorized']", line
    else:
        assert line.startswith("MODES False False"), line
