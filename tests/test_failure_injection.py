"""Failure-injection and edge-case tests across the stack."""

import pytest

from repro import compile_design, hls
from repro.errors import (
    DeadlockError,
    SimulatedCrash,
    SimulationError,
)
from repro.hls.kernel import kernel_from_source
from repro.sim import get_engine

CoSimulator = get_engine("cosim").cls
CSimulator = get_engine("csim").cls
OmniSimulator = get_engine("omnisim").cls


def design_with(source: str, *, streams=(), scalars=(), consts=None,
                buffers=(), extra_kernels=()):
    """One-kernel design builder for failure scenarios."""
    kernel = kernel_from_source(source)
    d = hls.Design("inject")
    bindings = dict(consts or {})
    for name, depth in streams:
        bindings[name] = d.stream(name, hls.i32, depth=depth)
    for name in scalars:
        bindings[name] = d.scalar(name, hls.i32)
    for name, size, init in buffers:
        bindings[name] = d.buffer(name, hls.i32, size, init=init)
    d.add(kernel, **bindings)
    for k, kb in extra_kernels:
        d.add(k, **kb(d))
    return d


class TestCrashes:
    def test_assert_failure_surfaces_module(self):
        d = design_with("""
def k(out: hls.ScalarOut(hls.i32)):
    x = 5
    assert x > 10, "x too small"
    out.set(x)
""", scalars=("out",))
        with pytest.raises(SimulatedCrash) as exc:
            OmniSimulator(compile_design(d)).run()
        assert "x too small" in str(exc.value)
        assert exc.value.module == "k"

    def test_division_by_zero(self):
        d = design_with("""
def k(data: hls.BufferIn(hls.i32, 4), out: hls.ScalarOut(hls.i32)):
    out.set(10 // data[0])
""", scalars=("out",), buffers=(("data", 4, [0, 1, 2, 3]),))
        with pytest.raises(SimulationError):
            OmniSimulator(compile_design(d)).run()

    def test_oob_crashes_only_in_csim(self):
        d = design_with("""
def k(data: hls.BufferIn(hls.i32, 4), out: hls.ScalarOut(hls.i32)):
    out.set(data[7])
""", scalars=("out",), buffers=(("data", 4, [5, 6, 7, 8]),))
        compiled = compile_design(d)
        # Hardware semantics: the address wraps (7 % 4 == 3 -> value 8).
        assert OmniSimulator(compiled).run().scalars["out"] == 8
        result = CSimulator(compiled).run()
        assert result.failure == "Simulation failed: SIGSEGV."

    def test_step_limit_catches_spin(self):
        d = design_with("""
def k(out: hls.ScalarOut(hls.i32)):
    x = 0
    while True:
        x += 1
    out.set(x)
""", scalars=("out",))
        with pytest.raises(SimulationError) as exc:
            OmniSimulator(compile_design(d), step_limit=10_000).run()
        assert "step limit" in str(exc.value)


class TestSelfDeadlocks:
    def test_single_module_read_never_served(self):
        producer = kernel_from_source("""
def p(out: hls.StreamOut(hls.i32)):
    out.write(1)
""")
        greedy = kernel_from_source("""
def g(inp: hls.StreamIn(hls.i32), out: hls.ScalarOut(hls.i32)):
    a = inp.read()
    b = inp.read()   # never written: deadlock
    out.set(a + b)
""")
        d = hls.Design("starve")
        s = d.stream("s", hls.i32, depth=2)
        out = d.scalar("out", hls.i32)
        d.add(producer, out=s)
        d.add(greedy, inp=s, out=out)
        compiled = compile_design(d)
        for sim_class in (OmniSimulator, CoSimulator):
            with pytest.raises(DeadlockError) as exc:
                sim_class(compiled).run()
            assert "g" in exc.value.blocked

    def test_full_fifo_never_drained(self):
        producer = kernel_from_source("""
def p(out: hls.StreamOut(hls.i32), n: hls.Const()):
    for i in range(n):
        out.write(i)
""")
        lazy = kernel_from_source("""
def l(inp: hls.StreamIn(hls.i32), out: hls.ScalarOut(hls.i32)):
    out.set(inp.read())
""")
        d = hls.Design("never_drained")
        s = d.stream("s", hls.i32, depth=2)
        out = d.scalar("out", hls.i32)
        d.add(producer, out=s, n=10)
        d.add(lazy, inp=s, out=out)
        compiled = compile_design(d)
        with pytest.raises(DeadlockError) as exc:
            OmniSimulator(compiled).run()
        assert "full FIFO" in str(exc.value)


class TestNumericEdges:
    def test_narrow_type_wraps_through_stream(self):
        producer = kernel_from_source("""
def p(out: hls.StreamOut(hls.i8)):
    out.write(200)   # wraps to -56 in i8
""")
        consumer = kernel_from_source("""
def c(inp: hls.StreamIn(hls.i8), out: hls.ScalarOut(hls.i32)):
    out.set(inp.read())
""")
        d = hls.Design("wrap")
        s = d.stream("s", hls.i8, depth=2)
        out = d.scalar("out", hls.i32)
        d.add(producer, out=s)
        d.add(consumer, inp=s, out=out)
        result = OmniSimulator(compile_design(d)).run()
        assert result.scalars["out"] == 200 - 256

    def test_fixed_point_through_design(self):
        fx = hls.fixed(16, 8)
        kernel = kernel_from_source("""
def k(data: hls.BufferIn(hls.fixed(16, 8), 4),
      out: hls.BufferOut(hls.fixed(16, 8), 4), n: hls.Const()):
    for i in range(n):
        out[i] = data[i] * data[i]
""")
        d = hls.Design("fxsq")
        data = d.buffer("data", fx, 4, init=[0.5, 1.5, 2.0, 3.25])
        out = d.buffer("out", fx, 4)
        d.add(kernel, data=data, out=out, n=4)
        result = OmniSimulator(compile_design(d)).run()
        assert result.buffers["out"] == [0.25, 2.25, 4.0, 10.5625]

    def test_zero_trip_loop(self):
        d = design_with("""
def k(out: hls.ScalarOut(hls.i32)):
    total = 7
    for i in range(0):
        total += 100
    out.set(total)
""", scalars=("out",))
        result = OmniSimulator(compile_design(d)).run()
        assert result.scalars["out"] == 7

    def test_negative_step_loop(self):
        d = design_with("""
def k(out: hls.ScalarOut(hls.i32)):
    total = 0
    for i in range(10, 0, -2):
        total += i
    out.set(total)
""", scalars=("out",))
        result = OmniSimulator(compile_design(d)).run()
        assert result.scalars["out"] == 10 + 8 + 6 + 4 + 2


class TestStatusChecks:
    def test_empty_full_polling(self):
        producer = kernel_from_source("""
def p(out: hls.StreamOut(hls.i32), n: hls.Const(),
      full_seen: hls.ScalarOut(hls.i32)):
    fulls = 0
    for i in range(n):
        if out.full():
            fulls += 1
        out.write(i)
    full_seen.set(fulls)
""")
        consumer = kernel_from_source("""
def c(inp: hls.StreamIn(hls.i32), n: hls.Const(),
      empty_seen: hls.ScalarOut(hls.i32), total: hls.ScalarOut(hls.i32)):
    empties = 0
    acc = 0
    for i in range(n):
        if inp.empty():
            empties += 1
        acc += inp.read()
    empty_seen.set(empties)
    total.set(acc)
""")
        d = hls.Design("status")
        s = d.stream("s", hls.i32, depth=2)
        fs = d.scalar("full_seen", hls.i32)
        es = d.scalar("empty_seen", hls.i32)
        total = d.scalar("total", hls.i32)
        d.add(producer, out=s, n=20, full_seen=fs)
        d.add(consumer, inp=s, n=20, empty_seen=es, total=total)
        compiled = compile_design(d)
        omni = OmniSimulator(compiled).run()
        cosim = CoSimulator(compiled).run()
        assert omni.scalars == cosim.scalars
        assert omni.scalars["total"] == sum(range(20))
        assert omni.cycles == cosim.cycles
