"""One compile per module *shape* (DESIGN.md section 2).

Instances whose kernel text and constant binding are equal share one
``Kernel`` -> ``ir.Function`` -> ``ModuleSchedule`` (+ ``StaticLatency``)
-> generated ``ModuleProgram``.  These tests hold the three properties
that makes safe: sharing changes no number (every instance equals a
fresh, unshared chain built from public calls), nothing writes to what
is shared, and every memo is owned by an object with a bounded lifetime.
"""

from __future__ import annotations

import re

import pytest

from repro import CompiledModule, compile_design, designs, hls
from repro.designs import dsl
from repro.errors import CompileError, SimulatedCrash
from repro.frontend.compiler import compile_kernel
from repro.hls.kernel import _COMPILED_LIMIT, kernel_from_source
from repro.interp.compiled import compile_program
from repro.ir.printer import function_to_text
from repro.sim import run_engine
from repro.synthesis import (
    DEFAULT_CONFIG,
    ResourceModel,
    SynthesisConfig,
    estimate_function_latency,
    schedule_function,
)

from test_golden_artifacts import RUN_COLD_DESIGNS

PROGRAM_KEYS = [(oob, trace) for oob in ("wrap", "crash")
                for trace in (False, True)]


_SCALE = """
def scale(inp: hls.StreamIn(hls.i32), n: hls.Const(),
          out: hls.StreamOut(hls.i32)):
    for i in range(n):
        hls.pipeline(ii=1)
        out.write(inp.read() * n)
"""


def ir_text(function) -> str:
    """Printer text with block labels and anonymous value ids (both
    drawn from process-global counters) renumbered by position."""
    text = function_to_text(function)
    for i, block in enumerate(function.blocks):
        text = re.sub(rf"\b{re.escape(block.label)}\b", f"L{i}", text)
    ids: dict = {}
    return re.sub(
        r"%(\d+)\b",
        lambda m: ids.setdefault(m.group(1), f"%t{len(ids)}"), text)


def schedule_shape(schedule) -> list:
    """Per block, in function order: the stage of every instruction in
    program order, and the block latency."""
    return [([schedule.for_block(block).stages[i.vid]
              for i in block.instructions],
             schedule.for_block(block).latency)
            for block in schedule.function.blocks]


def snapshot(module) -> tuple:
    """Everything compiled for one instance, free of global counters."""
    programs = [compile_program(module, *key) for key in PROGRAM_KEYS]
    return (ir_text(module.function), schedule_shape(module.schedule),
            module.static_latency,
            [(p.source, p.consts, p.arg_names) for p in programs])


def unshared(instance, from_text: bool) -> CompiledModule:
    """The same instance compiled alone, through public calls on a
    fresh kernel: nothing it touches has been seen by another module."""
    kernel = instance.kernel
    fresh = (kernel_from_source(kernel.source) if from_text
             else hls.Kernel(kernel.fn, source=kernel.source))
    return scheduled(compile_kernel(fresh, instance.const_bindings),
                     instance)


def scheduled(function, instance) -> CompiledModule:
    schedule = schedule_function(function, DEFAULT_CONFIG)
    return CompiledModule(instance, function, schedule,
                          estimate_function_latency(schedule))


def assert_equals_unshared(design, from_text: bool) -> None:
    compiled = compile_design(design)
    reference: dict = {}
    for module in compiled.modules:
        alone = unshared(module.instance, from_text)
        assert alone.function is not module.function
        assert alone.schedule is not module.schedule
        assert snapshot(module) == snapshot(alone), module.name
        # instances that share must be exactly the ones that are equal
        shared = reference.setdefault(id(module.function), snapshot(alone))
        assert shared == snapshot(alone), module.name


GENERATED = ([(kind, seed, {}) for kind in "ABC" for seed in (0, 1, 2)]
             + [("D", 0, {"modules": 60}), ("D", 1, {"modules": 100}),
                ("D", 0, {"modules": 300, "count": 16})])


@pytest.mark.parametrize("kind,seed,kwargs", GENERATED)
def test_generated_design_equals_unshared_chain(kind, seed, kwargs):
    design = dsl.build_design(dsl.generate(kind, seed=seed, **kwargs))
    assert_equals_unshared(design, from_text=True)


@pytest.mark.parametrize("name,params", RUN_COLD_DESIGNS,
                         ids=[name for name, _ in RUN_COLD_DESIGNS])
def test_registry_design_equals_unshared_chain(name, params):
    assert_equals_unshared(designs.get(name).make(**params),
                           from_text=False)


# ---------------------------------------------------------------------------
# nothing writes to what is shared

_CHAIN = """
design: chain
fifos: [{name: a}, {name: b}, {name: c}, {name: d}]
scalars: [{name: total, type: i32}]
modules:
  - {name: src, role: producer, out: a, count: 12}
  - {name: w0, role: worker, in: a, out: b, count: 12, op: double}
  - {name: w1, role: worker, in: b, out: c, count: 12, op: double}
  - {name: w2, role: worker, in: c, out: d, count: 12, op: double}
  - {name: dst, role: sink, in: d, count: 12, total: total}
"""

ENGINES = ("csim", "omnisim", "omnisim-threads", "cosim", "lightningsim")


def test_engines_and_executors_leave_shared_objects_untouched():
    """The rule that makes sharing sound: a Function is immutable once
    the front-end returns it, and no engine or executor writes to a
    Function or a ModuleSchedule."""
    compiled = compile_design(dsl.build_design(dsl.parse_spec(_CHAIN)))
    workers = [compiled.module(name) for name in ("w0", "w1", "w2")]
    assert len({id(m.function) for m in workers}) == 1
    assert len({id(m.schedule) for m in workers}) == 1
    before = [snapshot(m) for m in compiled.modules]
    cycles = set()
    for engine in ENGINES:
        for executor in ("compiled", "interp"):
            result = run_engine(engine, compiled, executor=executor)
            assert result.scalars["total"] == 8 * sum(range(1, 13))
            if engine != "csim":
                cycles.add(result.cycles)
    assert len(cycles) == 1
    assert [snapshot(m) for m in compiled.modules] == before


def test_two_configs_on_one_function_give_two_schedules():
    function = kernel_from_source(_SCALE).compile({"n": 4})
    slow = SynthesisConfig(resources=ResourceModel(fifo_read=3))
    default = schedule_function(function, DEFAULT_CONFIG)
    slowed = schedule_function(function, slow)
    assert slowed is not default
    assert schedule_shape(slowed) != schedule_shape(default)
    # each config is answered with its own schedule again (by value,
    # not identity, of the config), and neither is stale
    assert schedule_function(function, SynthesisConfig()) is default
    assert schedule_function(function, SynthesisConfig(
        resources=ResourceModel(fifo_read=3))) is slowed
    for config, kept in ((DEFAULT_CONFIG, default), (slow, slowed)):
        fresh = compile_kernel(kernel_from_source(_SCALE), {"n": 4})
        assert (schedule_shape(schedule_function(fresh, config))
                == schedule_shape(kept))
    assert (estimate_function_latency(default)
            is estimate_function_latency(default))
    assert (estimate_function_latency(default)
            != estimate_function_latency(slowed))


# ---------------------------------------------------------------------------
# memo lifetimes

def test_kernel_memo_is_a_bounded_lru():
    """A service that keeps meeting unseen constants (``n=401, 402,
    ...``) must not retain one compiled function per value forever."""
    bound = _COMPILED_LIMIT
    kernel = kernel_from_source(_SCALE)
    first = kernel.compile({"n": 1})
    assert kernel.compile({"n": 1}) is first
    kept = snapshot(scheduled(first, None))
    for n in range(2, 202):
        kernel.compile({"n": n})
        assert len(kernel._compiled) <= bound
    assert len(kernel._compiled) == bound
    # recently used bindings are still the same objects ...
    recent = kernel.compile({"n": 201})
    assert kernel.compile({"n": 201}) is recent
    # ... and an evicted one recompiles to an equal function
    again = kernel.compile({"n": 1})
    assert again is not first
    assert snapshot(scheduled(again, None)) == kept
    assert len(kernel._compiled) == bound


def test_kernel_memo_validates_before_it_compiles():
    kernel = kernel_from_source(_SCALE)
    with pytest.raises(CompileError, match="missing const"):
        kernel.compile({})
    with pytest.raises(CompileError, match="not const parameters"):
        kernel.compile({"n": 4, "m": 1})
    assert kernel._compiled == {}


def test_each_build_makes_new_kernels():
    """Lifetime = the owning object: kernels are shared within one
    ``build_design``, never across two (every benchmark op stays cold)."""
    spec = dsl.parse_spec(_CHAIN)
    one, two = dsl.build_design(spec), dsl.build_design(spec)
    kernels = {inst.name: inst.kernel for inst in one.instances}
    assert kernels["w0"] is kernels["w1"] is kernels["w2"]
    assert kernels["w0"].name == "worker_kernel"
    assert not ({id(i.kernel) for i in one.instances}
                & {id(i.kernel) for i in two.instances})


def test_module_name_reaches_diagnostics_through_the_instance():
    """Two instances of one shared kernel (identical ``source:`` text):
    the one that fails is named through its Instance, whatever the
    kernel function is called."""
    spec = dsl.parse_spec("""
design: divide
fifos: [{name: a}, {name: b}]
buffers:
  - {name: fine, type: i32, size: 4, init: [1, 2, 3, 4]}
  - {name: zero, type: i32, size: 4, init: [1, 2, 0, 4]}
scalars: [{name: ta, type: i32}, {name: tb, type: i32}]
modules:
  - name: good
    source: &text |
      def k(data: hls.BufferIn(hls.i32, 4), out: hls.StreamOut(hls.i32)):
          for i in range(4):
              assert data[i] != 0
              out.write(100 // data[i])
    binds: {data: fine, out: a}
  - name: bad
    source: *text
    binds: {data: zero, out: b}
  - {name: sa, role: sink, in: a, count: 4, total: ta}
  - {name: sb, role: sink, in: b, count: 4, total: tb}
""")
    compiled = compile_design(dsl.build_design(spec))
    good, bad = compiled.module("good"), compiled.module("bad")
    assert good.function is bad.function
    assert compile_program(good) is compile_program(bad)
    for executor in ("compiled", "interp"):
        with pytest.raises(SimulatedCrash, match="assertion failed") as exc:
            run_engine("omnisim", compiled, executor=executor)
        assert exc.value.module == "bad"


# ---------------------------------------------------------------------------
# build_design is linear in the spec

class _CountingList(list):
    """A list that counts how often it is iterated."""

    scans = 0

    def __iter__(self):
        self.scans += 1
        return super().__iter__()


def test_build_design_does_not_scan_declarations_per_module():
    spec = dsl.generate("D", modules=1000, seed=4, count=16)
    for field in ("fifos", "buffers", "scalars", "axi"):
        setattr(spec, field, _CountingList(getattr(spec, field)))
    design = dsl.build_design(spec)
    assert len(design.instances) == 1000
    # one pass to declare each list; not one per module or per port
    for field in ("fifos", "buffers", "scalars", "axi"):
        assert getattr(spec, field).scans <= 2, field


def test_auto_named_instances_stay_unique_without_rescanning():
    design = hls.Design("auto")
    kernel = kernel_from_source(_SCALE)
    streams = [design.stream(f"s{i}", hls.i32) for i in range(5)]
    design.instances = _CountingList()
    for i in range(4):
        design.add(kernel, inp=streams[i], n=2, out=streams[i + 1])
    assert [inst.name for inst in list.__iter__(design.instances)] == [
        "scale", "scale_2", "scale_3", "scale_4"]
    assert design.instances.scans == 0


# ---------------------------------------------------------------------------
# kernel_from_source parses once

def test_kernel_from_source_rejects_more_than_one_function():
    with pytest.raises(CompileError, match="exactly one function"):
        kernel_from_source(_SCALE + "\ndef other():\n    pass\n")
    with pytest.raises(CompileError, match="exactly one function"):
        kernel_from_source("x = 1\n")
    # a name selects among several
    picked = kernel_from_source(
        _SCALE + "\ndef other():\n    pass\n", name="scale")
    assert picked.name == "scale" and list(picked.ports) == [
        "inp", "n", "out"]


def test_kernel_from_source_parses_the_text_once(monkeypatch):
    import ast

    parses = []
    real = ast.parse
    monkeypatch.setattr(
        ast, "parse", lambda *a, **k: parses.append(a) or real(*a, **k))
    kernel = kernel_from_source(_SCALE, namespace={"unused": 1})
    assert len(parses) == 1
    assert kernel.fn.__globals__["unused"] == 1
    with pytest.raises(SyntaxError):
        kernel_from_source("def broken(:\n    pass\n")
