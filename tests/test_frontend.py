"""Front-end lowering tests: constructs, pragmas, inlining, errors."""

import pytest

from repro import hls
from repro.errors import CompileError
from repro.hls.kernel import kernel_from_source
from repro.ir import instructions as ins
from repro.ir import types as ty
from repro.ir.printer import function_to_text


def compile_src(source: str, consts: dict | None = None):
    return kernel_from_source(source).compile(consts or {})


class TestBasicLowering:
    def test_simple_arith(self):
        fn = compile_src("""
def k(out: hls.ScalarOut(hls.i32)):
    x = 3
    y = x * 4 + 2
    out.set(y)
""")
        text = function_to_text(fn)
        assert "store" in text

    def test_for_loop_structure(self):
        fn = compile_src("""
def k(data: hls.BufferIn(hls.i32, 8), out: hls.ScalarOut(hls.i32)):
    total = 0
    for i in range(8):
        total += data[i]
    out.set(total)
""")
        assert len(fn.loops) == 1
        loop = fn.loops[0]
        assert not loop.pipelined
        assert loop.trip_hint == 8

    def test_pipeline_pragma(self):
        fn = compile_src("""
def k(data: hls.BufferIn(hls.i32, 8), out: hls.ScalarOut(hls.i32)):
    total = 0
    for i in range(8):
        hls.pipeline(ii=3)
        total += data[i]
    out.set(total)
""")
        assert fn.loops[0].pipelined
        assert fn.loops[0].ii == 3

    def test_trip_count_pragma(self):
        fn = compile_src("""
def k(n: hls.Const(), out: hls.ScalarOut(hls.i32)):
    total = 0
    i = 0
    while i < n:
        hls.trip_count(100)
        total += i
        i += 1
    out.set(total)
""", {"n": 10})
        assert fn.loops[0].trip_hint == 100

    def test_while_true_with_break(self):
        fn = compile_src("""
def k(inp: hls.StreamIn(hls.i32), out: hls.ScalarOut(hls.i32)):
    total = 0
    while True:
        v = inp.read()
        if v < 0:
            break
        total += v
    out.set(total)
""")
        reads = [i for i in fn.iter_instructions()
                 if isinstance(i, ins.FifoRead)]
        assert len(reads) == 1

    def test_const_specialization_folds_bounds(self):
        fn = compile_src("""
def k(n: hls.Const(), out: hls.ScalarOut(hls.i32)):
    total = 0
    for i in range(n):
        total += i
    out.set(total)
""", {"n": 5})
        assert fn.loops[0].trip_hint == 5

    def test_nested_loops_register_parents(self):
        fn = compile_src("""
def k(data: hls.BufferIn(hls.i32, 16), out: hls.ScalarOut(hls.i32)):
    total = 0
    for i in range(4):
        for j in range(4):
            total += data[i * 4 + j]
    out.set(total)
""")
        assert len(fn.loops) == 2
        inner = [lp for lp in fn.loops if lp.parent is not None]
        assert len(inner) == 1

    def test_multi_dim_arrays(self):
        fn = compile_src("""
def k(m: hls.Buffer(hls.i32, (3, 4)), out: hls.ScalarOut(hls.i32)):
    out.set(m[2][3])
""")
        loads = [i for i in fn.iter_instructions()
                 if isinstance(i, ins.Load) and i.index is not None]
        assert loads  # flattened index arithmetic present

    def test_unroll(self):
        fn = compile_src("""
def k(data: hls.BufferIn(hls.i32, 4), out: hls.ScalarOut(hls.i32)):
    total = 0
    for i in range(4):
        hls.unroll()
        total += data[i]
    out.set(total)
""")
        # No loop metadata: body replicated 4x.
        assert len(fn.loops) == 0
        loads = [i for i in fn.iter_instructions()
                 if isinstance(i, ins.Load) and i.index is not None]
        assert len(loads) == 4

    def test_boolop_and_ifexp(self):
        fn = compile_src("""
def k(a: hls.Const(), out: hls.ScalarOut(hls.i32)):
    x = 1 if a > 2 and a < 10 else 0
    out.set(x)
""", {"a": 5})
        assert fn is not None

    def test_minmax_abs(self):
        fn = compile_src("""
def k(a: hls.In(hls.i32), out: hls.ScalarOut(hls.i32)):
    out.set(min(abs(a), max(a, 3)))
""", {"a": -7})
        selects = [i for i in fn.iter_instructions()
                   if isinstance(i, ins.Select)]
        assert len(selects) >= 2  # constant folding may reduce some

    def test_cast(self):
        fn = compile_src("""
def k(a: hls.In(hls.i32), out: hls.ScalarOut(hls.i32)):
    f = hls.cast(hls.fixed(16, 8), a)
    out.set(hls.cast(hls.i32, f * 2))
""", {"a": 3})
        assert fn is not None

    def test_local_array_with_init(self):
        fn = compile_src("""
def k(out: hls.ScalarOut(hls.i32)):
    lut = hls.array(hls.i32, 4, [10, 20, 30, 40])
    out.set(lut[2])
""")
        allocas = [i for i in fn.iter_instructions()
                   if isinstance(i, ins.Alloca)
                   and isinstance(i.allocated, ty.ArrayType)]
        assert len(allocas) == 1


class TestInlining:
    def test_helper_call_with_return(self):
        helper = kernel_from_source("""
def clamp(x: hls.In(hls.i32), lo: hls.Const(), hi: hls.Const()) -> hls.i32:
    if x < lo:
        return lo
    if x > hi:
        return hi
    return x
""")
        fn = kernel_from_source("""
def k(a: hls.In(hls.i32), out: hls.ScalarOut(hls.i32)):
    out.set(clamp(a, 0, 100))
""", namespace={"clamp": helper}).compile({"a": 500})
        # Inlined body exists: branches from the helper.
        branches = [i for i in fn.iter_instructions()
                    if isinstance(i, ins.Branch)]
        assert branches

    def test_stream_passthrough(self):
        helper = kernel_from_source("""
def emit(out: hls.StreamOut(hls.i32), v: hls.In(hls.i32)):
    out.write(v)
""")
        fn = kernel_from_source("""
def k(out: hls.StreamOut(hls.i32)):
    for i in range(4):
        emit(out, i)
""", namespace={"emit": helper}).compile({})
        writes = [i for i in fn.iter_instructions()
                  if isinstance(i, ins.FifoWrite)]
        assert len(writes) == 1  # one write, inside the loop


class TestErrors:
    def test_write_to_input_stream(self):
        with pytest.raises(CompileError):
            compile_src("""
def k(inp: hls.StreamIn(hls.i32)):
    inp.write(1)
""")

    def test_read_from_output_stream(self):
        with pytest.raises(CompileError):
            compile_src("""
def k(out: hls.StreamOut(hls.i32)):
    x = out.read()
""")

    def test_store_to_readonly_buffer(self):
        with pytest.raises(CompileError):
            compile_src("""
def k(data: hls.BufferIn(hls.i32, 4)):
    data[0] = 1
""")

    def test_undefined_name(self):
        with pytest.raises(CompileError):
            compile_src("""
def k(out: hls.ScalarOut(hls.i32)):
    out.set(nonexistent)
""")

    def test_side_effect_in_boolop(self):
        with pytest.raises(CompileError):
            compile_src("""
def k(a: hls.StreamIn(hls.i32), out: hls.ScalarOut(hls.i32)):
    ok, v = a.read_nb()
    if ok and a.read() > 0:
        out.set(1)
""")

    def test_pragma_outside_loop(self):
        with pytest.raises(CompileError):
            compile_src("""
def k(out: hls.ScalarOut(hls.i32)):
    hls.pipeline(ii=1)
    out.set(1)
""")

    def test_unroll_nonconstant_bound(self):
        with pytest.raises(CompileError):
            compile_src("""
def k(n: hls.In(hls.i32), data: hls.BufferIn(hls.i32, 4),
      out: hls.ScalarOut(hls.i32)):
    total = 0
    m = n + 0
    for i in range(m):
        hls.unroll()
        total += data[i]
    out.set(total)
""", {"n": 4})

    def test_break_in_unrolled_loop(self):
        with pytest.raises(CompileError):
            compile_src("""
def k(out: hls.ScalarOut(hls.i32)):
    for i in range(4):
        hls.unroll()
        break
    out.set(1)
""")

    def test_missing_annotation(self):
        with pytest.raises(CompileError):
            kernel_from_source("""
def k(x):
    pass
""")

    def test_ports_at_decoration_source_at_first_compile(self):
        # a kernel with no file behind it: the signature is checked
        # where the kernel is written, "cannot retrieve source" moves
        # to the first compile (source is read when the front-end asks)
        env = {"hls": hls}
        exec("def k(out: hls.ScalarOut(hls.i32)):\n    out.set(1)\n"
             "def bad(x):\n    pass\n", env)
        kernel = hls.kernel(env["k"])
        assert list(kernel.ports) == ["out"]
        with pytest.raises(CompileError, match="cannot retrieve source"):
            kernel.compile({})
        with pytest.raises(CompileError, match="no port annotation"):
            hls.kernel(env["bad"])
        kernel.source = "def k(out: hls.ScalarOut(hls.i32)):\n    out.set(2)\n"
        assert kernel.compile({}).name == "k"   # still assignable

    def test_return_value_from_top_level(self):
        with pytest.raises(CompileError):
            compile_src("""
def k(out: hls.ScalarOut(hls.i32)):
    return 3
""")

    def test_chained_compare_rejected(self):
        with pytest.raises(CompileError):
            compile_src("""
def k(a: hls.Const(), out: hls.ScalarOut(hls.i32)):
    if 0 < a < 10:
        out.set(1)
""", {"a": 5})

    def test_range_zero_step(self):
        with pytest.raises(CompileError):
            compile_src("""
def k(out: hls.ScalarOut(hls.i32)):
    for i in range(0, 4, 0):
        out.set(i)
""")


class TestDeadCheckElimination:
    def test_unused_empty_check_removed(self):
        fn = compile_src("""
def k(inp: hls.StreamIn(hls.i32), out: hls.ScalarOut(hls.i32)):
    inp.empty()
    out.set(inp.read())
""")
        checks = [i for i in fn.iter_instructions()
                  if isinstance(i, ins.FifoCanRead)]
        assert not checks

    def test_used_empty_check_kept(self):
        fn = compile_src("""
def k(inp: hls.StreamIn(hls.i32), out: hls.ScalarOut(hls.i32)):
    if inp.empty():
        out.set(0)
    else:
        out.set(inp.read())
""")
        checks = [i for i in fn.iter_instructions()
                  if isinstance(i, ins.FifoCanRead)]
        assert len(checks) == 1

    def test_optimize_flag_disables(self, monkeypatch):
        kernel = kernel_from_source("""
def k(inp: hls.StreamIn(hls.i32), out: hls.ScalarOut(hls.i32)):
    inp.empty()
    out.set(inp.read())
""")
        from repro.frontend import compiler

        monkeypatch.setattr(compiler, "ENABLE_DEAD_CHECK_ELIMINATION",
                            False)
        fn = compiler.compile_kernel(kernel, {})
        checks = [i for i in fn.iter_instructions()
                  if isinstance(i, ins.FifoCanRead)]
        assert len(checks) == 1
