"""Differential property testing: OmniSim vs the cycle-stepped oracle.

The strongest correctness evidence in this reproduction: across randomized
design configurations (FIFO depths, loop IIs, element counts, blocking vs
non-blocking producers), OmniSim's event-driven engine and the independent
clock-stepped co-simulator must agree *exactly* on both functional outputs
and cycle counts — the paper's Fig. 8(a) claim, tested in bulk.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import compile_design, hls
from repro.errors import ConstraintViolation, DeadlockError
from repro.hls.kernel import kernel_from_source
from repro.sim import get_engine

CoSimulator = get_engine("cosim").cls
OmniSimulator = get_engine("omnisim").cls

MAX_N = 20

_KERNEL_CACHE = {}


def _kernel(source: str):
    if source not in _KERNEL_CACHE:
        _KERNEL_CACHE[source] = kernel_from_source(source)
    return _KERNEL_CACHE[source]


def producer_kernel(ii: int, nb: bool):
    if nb:
        body = f"""
def gen_producer(data: hls.BufferIn(hls.i32, {MAX_N}), n: hls.Const(),
                 out: hls.StreamOut(hls.i32),
                 dropped: hls.ScalarOut(hls.i32)):
    drops = 0
    for i in range(n):
        hls.pipeline(ii={ii})
        if out.write_nb(data[i]):
            pass
        else:
            drops += 1
    out.write(0 - 1)
    dropped.set(drops)
"""
    else:
        body = f"""
def gen_producer(data: hls.BufferIn(hls.i32, {MAX_N}), n: hls.Const(),
                 out: hls.StreamOut(hls.i32),
                 dropped: hls.ScalarOut(hls.i32)):
    for i in range(n):
        hls.pipeline(ii={ii})
        out.write(data[i])
    out.write(0 - 1)
    dropped.set(0)
"""
    return _kernel(body)


def middle_kernel(ii: int, mul: int):
    return _kernel(f"""
def gen_middle(inp: hls.StreamIn(hls.i32), out: hls.StreamOut(hls.i32)):
    while True:
        hls.pipeline(ii={ii})
        v = inp.read()
        out.write(v * {mul} if v >= 0 else v)
        if v < 0:
            break
""")


def consumer_kernel(ii: int):
    return _kernel(f"""
def gen_consumer(inp: hls.StreamIn(hls.i32),
                 total_out: hls.ScalarOut(hls.i32),
                 count_out: hls.ScalarOut(hls.i32)):
    total = 0
    count = 0
    while True:
        hls.pipeline(ii={ii})
        v = inp.read()
        if v < 0:
            break
        total += v
        count += 1
    total_out.set(total)
    count_out.set(count)
""")


config = st.fixed_dictionaries({
    "n": st.integers(min_value=1, max_value=MAX_N),
    "depth1": st.integers(min_value=1, max_value=6),
    "depth2": st.integers(min_value=1, max_value=6),
    "prod_ii": st.integers(min_value=1, max_value=5),
    "mid_ii": st.integers(min_value=1, max_value=5),
    "cons_ii": st.integers(min_value=1, max_value=5),
    "mul": st.integers(min_value=1, max_value=7),
    "nb": st.booleans(),
})


def build_design(params) -> hls.Design:
    d = hls.Design("generated")
    s1 = d.stream("s1", hls.i32, depth=params["depth1"])
    s2 = d.stream("s2", hls.i32, depth=params["depth2"])
    data = d.buffer("data", hls.i32, MAX_N,
                    init=[i + 1 for i in range(MAX_N)])
    total = d.scalar("total", hls.i32)
    count = d.scalar("count", hls.i32)
    dropped = d.scalar("dropped", hls.i32)
    d.add(producer_kernel(params["prod_ii"], params["nb"]),
          data=data, n=params["n"], out=s1, dropped=dropped)
    d.add(middle_kernel(params["mid_ii"], params["mul"]), inp=s1, out=s2)
    d.add(consumer_kernel(params["cons_ii"]), inp=s2, total_out=total,
          count_out=count)
    return d


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(config)
def test_omnisim_matches_cosim(params):
    compiled = compile_design(build_design(params))
    omni = OmniSimulator(compiled).run()
    cosim = CoSimulator(compiled).run()
    assert omni.scalars == cosim.scalars, params
    assert omni.cycles == cosim.cycles, params
    assert omni.module_end_times == cosim.module_end_times, params


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(config)
def test_retime_reproduces_live_times(params):
    """The simulation graph retimed at the *same* depths must reproduce
    the eagerly computed commit times exactly (finalization invariant)."""
    compiled = compile_design(build_design(params))
    result = OmniSimulator(compiled).run()
    trace = result.trace
    times = trace.retime(trace.depths)
    assert times == trace.time
    assert trace.total_cycles(times) == result.cycles


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(config, st.integers(min_value=1, max_value=12),
       st.integers(min_value=1, max_value=12))
def test_incremental_matches_fresh_run(params, new_d1, new_d2):
    """Incremental re-simulation under new depths must agree with a fresh
    OmniSim run whenever the recorded constraints remain valid."""
    compiled = compile_design(build_design(params))
    result = OmniSimulator(compiled).run()
    try:
        incremental = result.trace.resimulate({"s1": new_d1, "s2": new_d2})
    except ConstraintViolation:
        return  # full re-simulation required: nothing to compare
    fresh = OmniSimulator(compiled, depths={"s1": new_d1,
                                            "s2": new_d2}).run()
    assert incremental.cycles == fresh.cycles, params


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(config)
def test_fifo_tables_are_consistent(params):
    """Invariants of the FIFO R/W timing tables after a run."""
    compiled = compile_design(build_design(params))
    result = OmniSimulator(compiled).run()
    for name, fifo in result.fifo_channels.items():
        # Port serialization: strictly increasing commit times.
        for times in (fifo.write_times, fifo.read_times):
            assert all(b > a for a, b in zip(times, times[1:])), name
        # A read never precedes its write (RAW, paper Table 2).
        for r, read_time in enumerate(fifo.read_times):
            assert read_time > fifo.write_times[r], name
        # Occupancy never exceeds the depth: the (w)-th write commits
        # strictly after the (w - depth)-th read.
        for w, write_time in enumerate(fifo.write_times, start=1):
            if w > fifo.depth:
                assert write_time > fifo.read_times[w - fifo.depth - 1]


def test_deadlock_agreement_on_tiny_credit_loop():
    """Both engines must agree on deadlock for an undersized credit loop."""
    ping = _kernel("""
def gen_ping(out: hls.StreamOut(hls.i32), inp: hls.StreamIn(hls.i32),
             n: hls.Const(), result: hls.ScalarOut(hls.i32)):
    total = 0
    for i in range(n):
        total += inp.read()
        out.write(i)
    result.set(total)
""")
    pong = _kernel("""
def gen_pong(inp: hls.StreamIn(hls.i32), out: hls.StreamOut(hls.i32),
             n: hls.Const()):
    for i in range(n):
        v = inp.read()
        out.write(v + 1)
""")
    d = hls.Design("credit")
    a = d.stream("a", hls.i32, depth=2)
    b = d.stream("b", hls.i32, depth=2)
    result = d.scalar("result", hls.i32)
    d.add(ping, out=a, inp=b, n=4, result=result)
    d.add(pong, inp=a, out=b, n=4)
    compiled = compile_design(d)
    with pytest.raises(DeadlockError):
        OmniSimulator(compiled).run()
    with pytest.raises(DeadlockError):
        CoSimulator(compiled).run()
