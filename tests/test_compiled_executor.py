"""Differential executor testing: generated code vs the interpreter.

The generated executor (repro.interp.compiled: one specialised Python
generator per module shape) must be *bit-for-bit* equivalent to the
tree-walking interpreter: same cycles, module end times, functional
outputs, recorded constraints and deadlock diagnoses — on every
registered design and on hypothesis-fuzzed frontend programs — and the
same request stream, step for step, when one module is driven alone.
The interpreter stays registered as the differential oracle behind
``executor="interp"`` exactly for this test.
"""

from __future__ import annotations

import dataclasses
import hashlib
import linecache
import os
import subprocess
import sys
import traceback

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import compile_design, designs, hls
from repro.designs import dsl
from repro.errors import DeadlockError, SimulatedCrash, SimulationError
from repro.hls.kernel import kernel_from_source
from repro.interp import compiled as codegen
from repro.ir.instructions import EVENT_OPS as _EVENT_INSTRS
from repro.sim import get_engine
from repro.sim.context import build_runtime_state, make_executor
from repro.trace import TraceArtifact

from test_property_differential import build_design, config

CSimulator = get_engine("csim").cls
CoSimulator = get_engine("cosim").cls
OmniSimulator = get_engine("omnisim").cls

#: smaller instances for the heavyweight registry designs (mirrors the
#: benchmark conftest's Table 3 params)
SMALL_PARAMS = {
    "fig4_ex2": {"n": 120}, "fig4_ex3": {"n": 120},
    "fig4_ex4a": {"n": 120}, "fig4_ex4b": {"n": 120},
    "fig4_ex4a_d": {"polls": 200}, "fig4_ex4b_d": {"polls": 200},
    "fig4_ex5": {"n": 120}, "fig2_timer": {"n": 120},
    "deadlock": {"n": 40}, "branch": {"n": 200},
    "multicore": {"n": 60},
}

_CACHE: dict = {}


def _compiled(name: str):
    if name not in _CACHE:
        params = SMALL_PARAMS.get(name, {})
        _CACHE[name] = compile_design(designs.get(name).make(**params))
    return _CACHE[name]


def _run_omnisim(compiled, executor: str):
    """Returns (result, deadlock) — exactly one is non-None."""
    try:
        return OmniSimulator(compiled, executor=executor).run(), None
    except DeadlockError as exc:
        return None, exc


def assert_results_identical(a, b, context: str) -> None:
    assert a.cycles == b.cycles, context
    assert a.module_end_times == b.module_end_times, context
    assert a.scalars == b.scalars, context
    assert a.buffers == b.buffers, context
    assert a.axi_memories == b.axi_memories, context
    assert a.fifo_leftovers == b.fifo_leftovers, context
    for column in TraceArtifact._CONSTRAINT_COLUMNS:
        assert (getattr(a.trace, column)
                == getattr(b.trace, column)), (context, column)
    assert a.stats.events == b.stats.events, context
    assert a.stats.queries == b.stats.queries, context
    assert a.stats.instructions == b.stats.instructions, context
    assert (a.stats.queries_resolved_false_by_rule
            == b.stats.queries_resolved_false_by_rule), context


@pytest.mark.parametrize("name", designs.names())
def test_registry_design_is_bit_identical(name):
    """OmniSim under the compiled executor matches the interpreter on
    every registered design, including deadlock diagnoses."""
    compiled = _compiled(name)
    interp_result, interp_deadlock = _run_omnisim(compiled, "interp")
    compiled_result, compiled_deadlock = _run_omnisim(compiled, "compiled")
    if interp_deadlock is not None or compiled_deadlock is not None:
        assert interp_deadlock is not None, name
        assert compiled_deadlock is not None, name
        assert interp_deadlock.cycle == compiled_deadlock.cycle, name
        assert interp_deadlock.blocked == compiled_deadlock.blocked, name
        return
    assert_results_identical(interp_result, compiled_result, name)


@pytest.mark.parametrize("name", designs.names())
def test_registry_design_csim_matches(name):
    """The C-sim baseline (sequential, crash-on-OOB executor mode) is
    executor-invariant too: same outputs, warnings and failure verdicts."""
    compiled = _compiled(name)
    a = CSimulator(compiled, executor="interp").run()
    b = CSimulator(compiled, executor="compiled").run()
    assert a.failure == b.failure, name
    assert a.warnings == b.warnings, name
    assert a.scalars == b.scalars, name
    assert a.buffers == b.buffers, name
    assert a.fifo_leftovers == b.fifo_leftovers, name
    assert a.stats.events == b.stats.events, name


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(config)
def test_fuzzed_stream_designs_are_bit_identical(params):
    """Randomized producer/middle/consumer configurations (the property
    suite's generator, including non-blocking producers)."""
    compiled = compile_design(build_design(params))
    a = OmniSimulator(compiled, executor="interp").run()
    b = OmniSimulator(compiled, executor="compiled").run()
    assert_results_identical(a, b, params)


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(config)
def test_fuzzed_designs_match_cosim_under_compiled_executor(params):
    """The paper's accuracy claim holds end-to-end with the compiled
    executor driving both engines."""
    compiled = compile_design(build_design(params))
    omni = OmniSimulator(compiled, executor="compiled").run()
    cosim = CoSimulator(compiled, executor="compiled").run()
    assert omni.scalars == cosim.scalars, params
    assert omni.cycles == cosim.cycles, params


@settings(max_examples=20, deadline=None)
@given(trip_a=st.integers(min_value=0, max_value=6),
       trip_b=st.integers(min_value=0, max_value=6),
       ii=st.integers(min_value=1, max_value=4),
       scale=st.integers(min_value=-5, max_value=5),
       branch_mod=st.integers(min_value=1, max_value=4))
def test_fuzzed_frontend_loop_nests_are_bit_identical(
        trip_a, trip_b, ii, scale, branch_mod):
    """The frontend-fuzz loop-nest shape (nested pipelined loops,
    branches, buffer arithmetic) through both executors."""
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
    data = [((7 * k_) % 100) - 50 for k_ in range(8)]
    kernel = kernel_from_source(source)
    d = hls.Design("fuzz_loop_diff")
    buffer = d.buffer("data", hls.i32, 8, init=data)
    out = d.scalar("out", hls.i32)
    d.add(kernel, data=buffer, out=out)
    compiled = compile_design(d)
    a = OmniSimulator(compiled, executor="interp").run()
    b = OmniSimulator(compiled, executor="compiled").run()
    assert_results_identical(a, b, (trip_a, trip_b, ii, scale, branch_mod))


@pytest.mark.parametrize("step_limit", [1, 7, 29, 60])
def test_step_limit_boundary_is_bit_identical(step_limit):
    """When the step limit falls mid-block, the compiled executor must
    emit the interpreter's exact event prefix and raise at the same
    instruction (the stepwise replay path)."""
    compiled = _compiled("deadlock")
    outcomes = []
    for executor in ("interp", "compiled"):
        sim = CSimulator(compiled, step_limit=step_limit,
                         executor=executor)
        result = sim.run()
        outcomes.append((result.stats.events, result.warnings,
                         result.failure, result.scalars, result.buffers))
    assert outcomes[0] == outcomes[1], step_limit


def test_retime_identical_across_executors():
    """The simulation graphs produced under both executors retime to the
    same times under new depths (segment metadata is identical)."""
    compiled = _compiled("fig4_ex5")
    a = OmniSimulator(compiled, executor="interp").run()
    b = OmniSimulator(compiled, executor="compiled").run()
    depths = dict(a.trace.depths, fifo2=40)
    assert a.trace.retime(depths) == b.trace.retime(depths)


# ---------------------------------------------------------------------------
# one module driven alone: the request stream itself


def _drive(compiled, module, executor, **kwargs):
    """Run one module's generator with canned responses (reads return
    0, every query succeeds).  Returns (request log, executor steps at
    each request, error) — everything an engine could observe."""
    state = build_runtime_state(compiled)
    ex = make_executor(module, state.bindings[module.name], executor,
                       **kwargs)
    answers = {"fifo_read": 0, "axi_read": 0, "fifo_nb_read": (True, 0),
               "fifo_nb_write": True, "fifo_can_read": True,
               "fifo_can_write": True}
    log, steps, error = [], [], None
    gen = ex.run()
    response = None
    try:
        while True:
            request = gen.send(response)
            log.append((type(request).__name__,
                        dataclasses.astuple(request)))
            steps.append(ex.steps)
            response = answers.get(request.kind)
    except StopIteration:
        pass
    except SimulationError as exc:
        error = (type(exc).__name__, str(exc))
    return log, steps, error, ex.steps, ex.end_nominal


#: bounds the canned-response runs of modules that poll forever
_DRIVE_LIMIT = 3000


@pytest.mark.parametrize("name", designs.names())
def test_step_limit_inside_event_block_is_bit_identical(name):
    """The limit falls *inside* an event-bearing block — right after its
    first, a middle and its last recorded event, and on the event
    instruction itself: event prefix, raise point and final step count
    are the interpreter's."""
    compiled = _compiled(name)
    checked = 0
    for module in compiled.modules:
        log, steps, _error, _total, _end = _drive(
            compiled, module, "interp", step_limit=_DRIVE_LIMIT)
        # the interpreter counts per instruction, so steps[i] is the
        # step number of the instruction that issued request i
        at_events = [s for entry, s in zip(log, steps)
                     if entry[0] not in ("StartTask", "EndTask")]
        if not at_events:
            continue
        picks = {at_events[0], at_events[len(at_events) // 2],
                 at_events[-1]}
        for limit in sorted(picks | {p - 1 for p in picks if p > 1}):
            a = _drive(compiled, module, "interp", step_limit=limit)
            b = _drive(compiled, module, "compiled", step_limit=limit)
            assert a[0] == b[0], (name, module.name, limit)
            assert a[2] == b[2], (name, module.name, limit)
            assert a[3:] == b[3:], (name, module.name, limit)
            checked += 1
    assert checked >= 3 or not any(
        isinstance(i, _EVENT_INSTRS) for m in compiled.modules
        for i in m.function.iter_instructions()), name


@pytest.mark.parametrize("trace_blocks", [False, True])
@pytest.mark.parametrize("name", designs.names())
def test_request_stream_is_bit_identical(name, trace_blocks):
    """Every request of every module — kind, seq, nominal, segment
    stamps, payload, and with ``trace_blocks`` the TraceBlock arcs —
    equals the interpreter's."""
    compiled = _compiled(name)
    for module in compiled.modules:
        a = _drive(compiled, module, "interp", step_limit=_DRIVE_LIMIT,
                   trace_blocks=trace_blocks)
        b = _drive(compiled, module, "compiled", step_limit=_DRIVE_LIMIT,
                   trace_blocks=trace_blocks)
        assert a[0] == b[0], (name, module.name)
        assert a[2:] == b[2:], (name, module.name)


# ---------------------------------------------------------------------------
# pipeline-frame shapes the registry designs do not all have

_PIPELINE_SHAPES = {
    # two pipelined loops in sequence: the second header is entered
    # with the first loop's frame still active
    "back_to_back": (9, """
def k(data: hls.BufferIn(hls.i32, 8), out: hls.StreamOut(hls.i32),
      total: hls.ScalarOut(hls.i32)):
    acc = 0
    for i in range(5):
        hls.pipeline(ii=2)
        out.write(data[i])
    for j in range(4):
        hls.pipeline(ii=1)
        acc += data[j + 1]
        out.write(acc)
    total.set(acc)
"""),
    # a pipelined loop re-entered from a plain outer loop, with
    # straight-line events between the entries
    "nested": (9, """
def k(data: hls.BufferIn(hls.i32, 8), out: hls.StreamOut(hls.i32),
      total: hls.ScalarOut(hls.i32)):
    acc = 0
    for i in range(3):
        for j in range(2):
            hls.pipeline(ii=3)
            out.write(data[i + j])
        acc += i
        out.write(acc)
    total.set(acc)
"""),
    "ret_inside": (4, """
def k(data: hls.BufferIn(hls.i32, 8), out: hls.StreamOut(hls.i32),
      total: hls.ScalarOut(hls.i32)):
    for i in range(8):
        hls.pipeline(ii=2)
        out.write(data[i])
        if data[i] > 40:
            total.set(i)
            return
    total.set(-1)
"""),
    "break_inside": (5, """
def k(data: hls.BufferIn(hls.i32, 8), out: hls.StreamOut(hls.i32),
      total: hls.ScalarOut(hls.i32)):
    i = 0
    while True:
        hls.pipeline(ii=2)
        out.write(data[i % 8])
        i += 1
        if i >= 5:
            break
    total.set(i)
"""),
}

_SINK = """
def sink(inp: hls.StreamIn(hls.i32), n: hls.Const(),
         got: hls.ScalarOut(hls.i32)):
    s = 0
    for i in range(n):
        s += inp.read()
    got.set(s)
"""


@pytest.mark.parametrize("shape", sorted(_PIPELINE_SHAPES))
def test_pipeline_frame_shapes_are_bit_identical(shape):
    writes, source = _PIPELINE_SHAPES[shape]
    d = hls.Design(f"frames_{shape}")
    data = d.buffer("data", hls.i32, 8,
                    init=[5, 17, 29, 41, 53, 3, 9, 60])
    fifo = d.stream("f", hls.i32, depth=2)
    d.add(kernel_from_source(source), data=data, out=fifo,
          total=d.scalar("total", hls.i32))
    d.add(kernel_from_source(_SINK), inp=fifo, n=writes,
          got=d.scalar("got", hls.i32))
    compiled = compile_design(d)
    a = OmniSimulator(compiled, executor="interp").run()
    b = OmniSimulator(compiled, executor="compiled").run()
    assert_results_identical(a, b, shape)
    assert b.cycles == CoSimulator(compiled, executor="compiled").run().cycles
    for trace_blocks in (False, True):
        a = _drive(compiled, compiled.modules[0], "interp",
                   trace_blocks=trace_blocks)
        b = _drive(compiled, compiled.modules[0], "compiled",
                   trace_blocks=trace_blocks)
        assert a[0] == b[0] and a[2:] == b[2:], shape


# ---------------------------------------------------------------------------
# the inlined expressions: every op on every scalar type

_TYPES = ["hls.i8", "hls.u8", "hls.i16", "hls.u32", "hls.i64",
          "hls.int_type(5)", "hls.int_type(48, False)",
          "hls.fixed(16, 8)", "hls.fixed(32, 12, False)",
          "hls.f32", "hls.f64"]
_INT_ONLY_OPS = ["%", "&", "|", "^", "<<", ">>"]


@pytest.mark.parametrize("type_", _TYPES)
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.lists(st.integers(-2 ** 31, 2 ** 31 - 1), min_size=8,
                     max_size=8),
       small=st.lists(st.integers(-70, 70).filter(bool), min_size=8,
                      max_size=8))
def test_inlined_ops_match_the_oracle(type_, data, small):
    """Arithmetic, shifts, compares, unary ops, selects and casts in and
    out of ``type_`` — generated expressions against ops.eval_*; a
    division by zero must be the same error."""
    ops = ["+", "-", "*", "//"]
    if "f32" not in type_ and "f64" not in type_:
        ops += _INT_ONLY_OPS
    body = "\n".join(
        f"    r{n}: T = a {op} b\n"
        f"    out[{n}] = hls.cast(hls.i32, r{n})"
        for n, op in enumerate(ops))
    unary = "" if "f" in type_.split(".")[1][:1] else (
        "    out[13] = hls.cast(hls.i32, ~a)\n")
    source = f"""
def k(data: hls.BufferIn(hls.i32, 8), small: hls.BufferIn(hls.i32, 8),
      out: hls.BufferOut(hls.i32, 16)):
  for i in range(4):
    a: T = hls.cast(T, data[2 * i])
    b: T = hls.cast(T, small[2 * i + 1])
{body}
    out[10] = hls.cast(hls.i32, -a)
    out[11] = 1 if a < b else 0
    out[12] = hls.cast(hls.i32, a if not (a >= b) else b)
{unary}    out[14] = hls.cast(hls.i32, hls.cast(hls.fixed(24, 10), a))
    out[15] = hls.cast(hls.i32, hls.cast(hls.f32, a))
""".replace("T", type_)
    d = hls.Design("op_matrix")
    d.add(kernel_from_source(source),
          data=d.buffer("data", hls.i32, 8, init=data),
          small=d.buffer("small", hls.i32, 8, init=small),
          out=d.buffer("out", hls.i32, 16))
    compiled = compile_design(d)
    outcomes = []
    for executor in ("interp", "compiled"):
        try:
            result = OmniSimulator(compiled, executor=executor).run()
            outcomes.append((result.cycles, result.buffers))
        except SimulationError as exc:
            outcomes.append((type(exc).__name__, str(exc)))
    assert outcomes[0] == outcomes[1], (type_, data, small)
    if type_ not in ("hls.int_type(5)",):   # b != 0 survives the cast
        assert isinstance(outcomes[0][0], int), outcomes[0]


# ---------------------------------------------------------------------------
# the generator as a compiler: sharing, determinism, tracebacks


def test_modules_of_one_shape_share_one_code_object(monkeypatch):
    """Type D's generated families differ in names and channel wiring
    only, so the front-end, the scheduler and the generator each run
    once per distinct (kernel text, constants) — sub-linear in modules —
    and ``compile()`` once per distinct generated text; a second
    executor pass generates nothing."""
    from repro.frontend import compiler
    from repro.synthesis import scheduler

    calls = {"compile_kernel": 0, "schedule": 0, "generate": 0,
             "factory": 0}

    def counting(key, real):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return real(*args, **kwargs)
        return wrapper

    for owner, attr, key in (
            (compiler, "compile_kernel", "compile_kernel"),
            (scheduler, "ModuleSchedule", "schedule"),
            (codegen._Generator, "generate", "generate"),
            (codegen, "_factory_for", "factory")):
        monkeypatch.setattr(owner, attr,
                            counting(key, getattr(owner, attr)))

    def build(compiled):
        state = build_runtime_state(compiled)
        return [make_executor(m, state.bindings[m.name])
                for m in compiled.modules]

    # the benchmark's D300 has exactly 112 distinct shapes; D1000 has
    # 3.3x the modules and barely more shapes
    for modules, seed, low, high in ((300, 0, 112, 112),
                                     (1000, 4, 113, 120)):
        monkeypatch.setattr(codegen, "_FACTORIES", {})
        calls.update(dict.fromkeys(calls, 0))
        compiled = compile_design(dsl.build_design(
            dsl.generate("D", modules=modules, seed=seed, count=16)))
        assert len(compiled.modules) == modules
        first = build(compiled)
        assert (calls["compile_kernel"] == calls["schedule"]
                == calls["generate"] == calls["factory"])
        assert low <= calls["generate"] <= high
        assert calls["generate"] == len(
            {id(m.instance.kernel) for m in compiled.modules}) == len(
            {id(ex.program) for ex in first})
        assert len(codegen._FACTORIES) <= 32
        assert len({ex.program.factory for ex in first}) <= 32
        before = dict(calls)
        build(compiled)
        assert calls == before
        # shape-only: no module name, channel name or constant is text
        for module in compiled.modules[:20]:
            source = module.schedule.programs[("wrap", False)].source
            assert module.name not in source


_DIGEST_SNIPPET = """
import hashlib
from repro import compile_design, designs
from repro.interp.compiled import compile_program
h = hashlib.sha256()
for name in ("skynet", "fig4_ex5", "multicore"):
    for module in compile_design(designs.get(name).make()).modules:
        for oob in ("wrap", "crash"):
            for trace in (False, True):
                h.update(compile_program(module, oob, trace).source.encode())
print(h.hexdigest())
"""


def test_generated_source_is_deterministic_across_processes():
    """Same module -> byte-identical source, whatever the hash seed (the
    digest names the code object and will key on-disk artifacts)."""
    digests = set()
    for seed in ("1", "2", "random"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", _DIGEST_SNIPPET],
                             env=env, capture_output=True, text=True,
                             timeout=120, check=True)
        digests.add(out.stdout.strip())
    assert len(digests) == 1
    h = hashlib.sha256()
    for name in ("skynet", "fig4_ex5", "multicore"):
        for module in compile_design(designs.get(name).make()).modules:
            for oob in ("wrap", "crash"):
                for trace in (False, True):
                    h.update(codegen.compile_program(
                        module, oob, trace).source.encode())
    assert digests == {h.hexdigest()}


def _generated_frame(exc):
    """(filename, line number) of the innermost generated-code frame."""
    frames = [f for f in traceback.extract_tb(exc.__traceback__)
              if f.filename.startswith("<repro-codegen:")]
    assert frames, "no generated frame in the traceback"
    return frames[-1].filename, frames[-1].lineno


_FAULTY = """
def k(data: hls.BufferIn(hls.i32, 4), out: hls.ScalarOut(hls.i32)):
    total = 0
    for i in range(4):
        total += data[i + 2] // data[i]
    out.set(total)
"""


@pytest.mark.parametrize("init, error, needle", [
    ([1, 2, 3, 4], SimulatedCrash, "raise oob_crash('read'"),
    ([1, 0, 3, 4], SimulationError, "integer division by zero"),
])
def test_errors_in_generated_code_point_at_a_line(init, error, needle):
    """A crash-mode out-of-bounds access and a division by zero raised
    inside generated code carry the module name and a source line that
    linecache resolves."""
    d = hls.Design("faulty")
    d.add(kernel_from_source(_FAULTY),
          data=d.buffer("data", hls.i32, 4, init=init),
          out=d.scalar("out", hls.i32))
    compiled = compile_design(d)
    module = compiled.modules[0]
    state = build_runtime_state(compiled)
    ex = make_executor(module, state.bindings[module.name],
                       oob_mode="crash")
    with pytest.raises(error) as info:
        for _request in ex.run():
            pass
    assert type(info.value) is error
    assert info.value.module == module.name
    filename, lineno = _generated_frame(info.value)
    assert filename == (
        f"<repro-codegen:{codegen.source_digest(ex.program.source)}>")
    assert needle in linecache.getline(filename, lineno)
    assert needle in "".join(traceback.format_exception(info.value))
    # same failure, same message, under the oracle
    oracle = make_executor(module, build_runtime_state(compiled).bindings[
        module.name], "interp", oob_mode="crash")
    with pytest.raises(error) as expected:
        for _request in oracle.run():
            pass
    assert str(expected.value) == str(info.value)
