"""Shared runtime-state construction and executor selection for all
simulation engines."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import RequestError
from ..hls import ports as port_decls
from ..interp.compiled import CompiledModuleExecutor
from ..interp.interpreter import ModuleInterpreter
from ..interp.ops import as_python_number
from ..ir import types as ty
from ..runtime.axi import AxiPort
from ..runtime.fifo import FifoChannel

# ---------------------------------------------------------------------------
# executor selection seam
#
# Every engine builds its per-module Func Sim contexts through
# ``make_executor``: the generated executor is the default, the
# tree-walking interpreter stays available as the differential oracle
# (``executor="interp"``).

EXECUTORS = {
    "compiled": CompiledModuleExecutor,
    "interp": ModuleInterpreter,
}

DEFAULT_EXECUTOR = "compiled"


def resolve_executor(name: str | None) -> str:
    """Validate an ``executor=`` engine argument (None -> the default)."""
    if name is None:
        return DEFAULT_EXECUTOR
    if name not in EXECUTORS:
        known = ", ".join(sorted(EXECUTORS))
        raise RequestError(f"unknown executor {name!r}; known: {known}")
    return name


def make_executor(module, bindings: dict, executor: str | None = None,
                  **kwargs):
    """Instantiate the Func Sim context of one module.

    ``module`` is a :class:`~repro.compile.CompiledModule`; ``kwargs``
    (step_limit, trace_blocks, oob_mode) are forwarded unchanged — both
    executors share the :class:`~repro.interp.ModuleInterpreter`
    constructor signature and generator protocol.
    """
    return EXECUTORS[resolve_executor(executor)](module, bindings, **kwargs)


@dataclass
class RuntimeState:
    """Materialized design state: FIFOs, AXI ports, buffers, scalars."""

    fifos: dict = field(default_factory=dict)
    axis: dict = field(default_factory=dict)
    buffers: dict = field(default_factory=dict)
    scalars: dict = field(default_factory=dict)
    #: module name -> {param name -> runtime object or channel name}
    bindings: dict = field(default_factory=dict)


#: attribute used to memoize the initial images on a CompiledDesign
_IMAGES_ATTR = "_initial_images"


def _initial_value(element: ty.Type, raw):
    """Convert a user-provided init value into interpreter representation."""
    if isinstance(element, ty.FixedType):
        if isinstance(raw, float):
            return element.from_float(raw)
        return element.wrap_raw(int(raw) << max(element.frac_bits, 0))
    if isinstance(element, ty.FloatType):
        return element.wrap(float(raw))
    return element.wrap(int(raw))


def _initial_images(compiled) -> tuple:
    """(buffer name -> values, AXI port name -> memory) in interpreter
    representation.  Converted once per CompiledDesign and memoized on
    it; every run copies the images it mutates."""
    images = compiled.__dict__.get(_IMAGES_ATTR)
    if images is None:
        design = compiled.design
        buffers, memories = {}, {}
        for name, buffer in design.buffers.items():
            if buffer.init is not None:
                buffers[name] = [_initial_value(buffer.element, v)
                                 for v in buffer.init]
            else:
                buffers[name] = ([ty.default_value(buffer.element)]
                                 * buffer.size)
        for name, axi in design.axis.items():
            memory = [ty.default_value(axi.element)] * axi.size
            if axi.init is not None:
                for i, raw in enumerate(axi.init):
                    memory[i] = _initial_value(axi.element, raw)
            memories[name] = memory
        images = compiled.__dict__[_IMAGES_ATTR] = (buffers, memories)
    return images


def build_runtime_state(compiled, depths: dict | None = None,
                        infinite_fifos: bool = False) -> RuntimeState:
    """Instantiate FIFO/AXI/buffer/scalar state for one simulation run.

    ``depths`` overrides per-FIFO depths (incremental-simulation studies);
    ``infinite_fifos`` models the C-sim assumption that streams have
    unbounded capacity (paper section 2.1).
    """
    design = compiled.design
    state = RuntimeState()
    overrides = depths or {}

    for name, stream in design.streams.items():
        depth = overrides.get(name, stream.depth)
        if infinite_fifos:
            depth = 1 << 62
        state.fifos[name] = FifoChannel(name, depth)

    buffers, memories = _initial_images(compiled)
    for name, values in buffers.items():
        state.buffers[name] = values.copy()

    for name, scalar in design.scalars.items():
        state.scalars[name] = [ty.default_value(scalar.element)]

    for name, axi in design.axis.items():
        state.axis[name] = AxiPort(name, memories[name].copy(),
                                   axi.read_latency, axi.write_latency)

    for module in compiled.modules:
        instance = module.instance
        bindings = {}
        for pname, decl in instance.kernel.ports.items():
            if isinstance(decl, (port_decls.Const, port_decls.In)):
                continue
            bound = instance.bindings[pname]
            if isinstance(decl, (port_decls.StreamIn, port_decls.StreamOut)):
                bindings[pname] = bound.name
            elif isinstance(decl, port_decls.Buffer):
                bindings[pname] = state.buffers[bound.name]
            elif isinstance(decl, port_decls.ScalarOut):
                bindings[pname] = state.scalars[bound.name]
            elif isinstance(decl, port_decls.AxiMaster):
                bindings[pname] = bound.name
        state.bindings[instance.name] = bindings

    return state


def new_trace(compiled, executor: str, depths: dict) -> "TraceArtifact":
    """The empty recorder an engine appends to while it runs, labelled
    with what only the engine knows at capture time: design name, Func
    Sim executor, the run's base ``depths`` (every declared FIFO), the
    element widths and the AXI latencies."""
    # imported per run: the artifact module reads this package's result
    # types, so neither package may need the other at import time
    from ..trace.columnar import DEFAULT_FIFO_WIDTH, TraceArtifact

    design = compiled.design
    trace = TraceArtifact(compiled.name, executor)
    trace.depths = depths
    trace.widths = {
        name: getattr(stream.element, "width", DEFAULT_FIFO_WIDTH)
        for name, stream in design.streams.items()
    }
    for port, decl in design.axis.items():
        table = trace.axi_table(port)
        table.read_latency = decl.read_latency
        table.write_latency = decl.write_latency
    return trace


def collect_outputs(compiled, state: RuntimeState, result) -> None:
    """Populate result.scalars / result.buffers / result.axi_memories."""
    design = compiled.design
    for name, scalar in design.scalars.items():
        result.scalars[name] = as_python_number(state.scalars[name][0],
                                                scalar.element)
    for name, buffer in design.buffers.items():
        result.buffers[name] = [
            as_python_number(v, buffer.element)
            for v in state.buffers[name]
        ]
    for name, axi in design.axis.items():
        result.axi_memories[name] = [
            as_python_number(v, axi.element)
            for v in state.axis[name].memory
        ]
    for name, fifo in state.fifos.items():
        result.fifo_leftovers[name] = fifo.leftover()
