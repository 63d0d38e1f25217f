"""Compiler fuzzing: random programs vs Python reference semantics.

Generates random arithmetic expressions and loop nests, compiles them
through the full pipeline (front-end -> scheduler -> interpreter ->
OmniSim), and compares the result against direct Python evaluation with
two's-complement wrapping.  Exercises lowering, constant folding, stage
scheduling and the interpreter's arithmetic in one sweep.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import compile_design, hls
from repro.hls.kernel import kernel_from_source
from repro.sim import get_engine

OmniSimulator = get_engine("omnisim").cls

MASK = (1 << 32) - 1


def wrap32(value: int) -> int:
    value &= MASK
    return value - (1 << 32) if value >> 31 else value


# --- random expression generation -------------------------------------------
# Operators restricted to those with identical Python/C semantics under
# two's-complement wrapping (division differs: C truncates, Python floors).

_BINOPS = ["+", "-", "*", "&", "|", "^"]


@st.composite
def expressions(draw, depth=0):
    if depth >= 3 or draw(st.booleans()):
        choice = draw(st.integers(min_value=0, max_value=2))
        if choice == 0:
            return str(draw(st.integers(min_value=-100, max_value=100)))
        if choice == 1:
            return f"data[{draw(st.integers(min_value=0, max_value=7))}]"
        return "x"
    op = draw(st.sampled_from(_BINOPS))
    left = draw(expressions(depth=depth + 1))
    right = draw(expressions(depth=depth + 1))
    return f"({left} {op} {right})"


@settings(max_examples=40, deadline=None)
@given(expr=expressions(),
       data=st.lists(st.integers(min_value=-1000, max_value=1000),
                     min_size=8, max_size=8),
       x=st.integers(min_value=-1000, max_value=1000))
def test_expression_compilation_matches_python(expr, data, x):
    source = f"""
def k(data: hls.BufferIn(hls.i32, 8), x: hls.Const(),
      out: hls.ScalarOut(hls.i32)):
    out.set({expr})
"""
    kernel = kernel_from_source(source)
    d = hls.Design("fuzz_expr")
    buffer = d.buffer("data", hls.i32, 8, init=data)
    out = d.scalar("out", hls.i32)
    d.add(kernel, data=buffer, x=x, out=out)
    result = OmniSimulator(compile_design(d)).run()
    expected = wrap32(eval(expr, {}, {"data": data, "x": x}))
    assert result.scalars["out"] == expected, expr


@settings(max_examples=25, deadline=None)
@given(trip_a=st.integers(min_value=0, max_value=6),
       trip_b=st.integers(min_value=0, max_value=6),
       ii=st.integers(min_value=1, max_value=4),
       scale=st.integers(min_value=-5, max_value=5),
       branch_mod=st.integers(min_value=1, max_value=4))
def test_loop_nest_matches_python(trip_a, trip_b, ii, scale, branch_mod):
    source = f"""
def k(data: hls.BufferIn(hls.i32, 8), out: hls.ScalarOut(hls.i32)):
    total = 0
    for i in range({trip_a}):
        row = 0
        for j in range({trip_b}):
            hls.pipeline(ii={ii})
            v = data[(i + j) % 8] * {scale}
            if j % {branch_mod} == 0:
                row += v
            else:
                row -= v
        total += row + i
    out.set(total)
"""
    data = [((7 * k + 3) % 100) - 50 for k in range(8)]
    kernel = kernel_from_source(source)
    d = hls.Design("fuzz_loop")
    buffer = d.buffer("data", hls.i32, 8, init=data)
    out = d.scalar("out", hls.i32)
    d.add(kernel, data=buffer, out=out)
    result = OmniSimulator(compile_design(d)).run()

    total = 0
    for i in range(trip_a):
        row = 0
        for j in range(trip_b):
            v = data[(i + j) % 8] * scale
            row += v if j % branch_mod == 0 else -v
        total += row + i
    assert result.scalars["out"] == wrap32(total)


@settings(max_examples=20, deadline=None)
@given(values=st.lists(st.integers(min_value=-(2 ** 31),
                                   max_value=2 ** 31 - 1),
                       min_size=4, max_size=4),
       shift=st.integers(min_value=0, max_value=31))
def test_shift_and_wrap_semantics(values, shift):
    source = f"""
def k(data: hls.BufferIn(hls.i32, 4), out: hls.BufferOut(hls.i32, 4),
      n: hls.Const()):
    for i in range(n):
        hls.pipeline(ii=1)
        out[i] = (data[i] << {shift}) ^ (data[i] >> {shift})
"""
    kernel = kernel_from_source(source)
    d = hls.Design("fuzz_shift")
    buffer = d.buffer("data", hls.i32, 4, init=values)
    out = d.buffer("out", hls.i32, 4)
    d.add(kernel, data=buffer, out=out, n=4)
    result = OmniSimulator(compile_design(d)).run()
    for v, got in zip(values, result.buffers["out"]):
        # Arithmetic (sign-propagating) right shift, wrapping left shift.
        expected = wrap32(wrap32(v << shift) ^ (v >> shift))
        assert got == expected


@settings(max_examples=15, deadline=None)
@given(n=st.integers(min_value=1, max_value=16),
       depth=st.integers(min_value=1, max_value=4))
def test_stream_roundtrip_preserves_order(n, depth):
    producer = kernel_from_source("""
def p(data: hls.BufferIn(hls.i32, 16), n: hls.Const(),
      out: hls.StreamOut(hls.i32)):
    for i in range(n):
        out.write(data[i])
""")
    consumer = kernel_from_source("""
def c(inp: hls.StreamIn(hls.i32), n: hls.Const(),
      out: hls.BufferOut(hls.i32, 16)):
    for i in range(n):
        out[i] = inp.read()
""")
    data = [3 * k - 7 for k in range(16)]
    d = hls.Design("fuzz_stream")
    s = d.stream("s", hls.i32, depth=depth)
    buffer = d.buffer("data", hls.i32, 16, init=data)
    out = d.buffer("out", hls.i32, 16)
    d.add(producer, data=buffer, n=n, out=s)
    d.add(consumer, inp=s, n=n, out=out)
    result = OmniSimulator(compile_design(d)).run()
    assert result.buffers["out"][:n] == data[:n]
