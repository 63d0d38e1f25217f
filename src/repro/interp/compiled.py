"""Generated Func Sim executor: the reproduction's AOT binary.

The tree-walking :class:`~repro.interp.interpreter.ModuleInterpreter`
re-dispatches every instruction through ``isinstance`` chains, dict-based
environments and schedule lookups on every execution.  This module is the
analogue of OmniSim's ahead-of-time *compiled, instrumented binary* (paper
section 6.1): once per module schedule — which every instance of one
(kernel, constant binding) shares — it emits the source of **one Python
generator function** that *is* the module —

* SSA values and scalar allocas are locals (``v12``, ``m3``); array
  allocas and bound buffers are local list references;
* every binop/cmp/unop/cast/select/load/store is one inlined statement
  with its two's-complement mask as a literal;
* every hardware event is ``yield Request(...)`` spelled at its site,
  with the stage offset and the segment fields passed positionally;
* control flow is an integer state loop over the blocks that have more
  than one predecessor; single-predecessor blocks are inlined at their
  predecessor's branch, and a transfer back to the enclosing state is a
  plain ``continue``;
* pipeline-frame bookkeeping is resolved statically wherever a forward
  data-flow pass over the CFG proves which pipelined loop (if any) is
  active at a block, and stays a one-compare check elsewhere.

The source is *shape-only*: module name, channel names, bound buffers,
constants, block labels and message strings are arguments of the
generated factory, never text.  Factories are cached in-process under
their source, so modules of one shape (the generated Type D families
have ~20 shapes per 1000 modules) share one ``compile()``; the source is
registered in :mod:`linecache` as ``<repro-codegen:DIGEST>`` so a
traceback through generated code shows the failing statement.

The executor exposes exactly the interpreter's generator protocol (yields
:class:`~repro.runtime.requests.Request` objects, ``send()`` delivers
responses) and the same timing-segment bookkeeping, so every engine can
swap it in through the executor-selection seam in
:mod:`repro.sim.context`.  The interpreter remains the differential
oracle: ``tests/test_compiled_executor.py`` asserts bit-for-bit identical
cycles, outputs, constraints and deadlock diagnoses.  When the step limit
falls *inside* a block the generated code hands that block to the oracle
itself (:meth:`CompiledModuleExecutor._replay_to_limit`), so the emitted
event prefix and the raise point cannot drift.

One deliberate semantic difference from the interpreter: a malformed
*operand* (not an instruction or a constant) fails at executor
construction rather than when — if ever — the instruction is reached.
The verifier-checked IR emitted by the frontend never trips it.
"""

from __future__ import annotations

import hashlib
import linecache
import math
from dataclasses import dataclass

from ..errors import SimulatedCrash, SimulationError
from ..ir import instructions as ins
from ..ir import types as ty
from ..ir.values import Argument, Constant
from ..runtime import requests as req
from . import ops
from .interpreter import (
    _NO_VALUE,
    DEFAULT_STEP_LIMIT,
    ModuleInterpreter,
    step_limit_error,
)

#: source text -> factory function; bounded so a long-lived process that
#: keeps meeting new shapes (``repro serve``, fuzz campaigns) cannot grow
#: it without limit
_FACTORIES: dict = {}
_FACTORY_CACHE_LIMIT = 1024

#: single-predecessor blocks are inlined under their predecessor's
#: branch; this bounds the resulting ``if`` nesting (CPython refuses
#: more than 100 indentation levels)
_MAX_INLINE_DEPTH = 40

_INDENT = tuple("    " * depth for depth in range(100))


def _oob_crash(what: str, label: str, index, size: int,
               module: str) -> SimulatedCrash:
    return SimulatedCrash(
        f"out-of-bounds {what}: {label}[{index}] (size {size})",
        module=module,
    )


#: globals of every generated factory
_GLOBALS = {
    "SimulationError": SimulationError,
    "SimulatedCrash": SimulatedCrash,
    "oob_crash": _oob_crash,
    "cdiv": ops._cdiv,
    "crem": ops._crem,
    "f32": ty.f32.wrap,
    "floor": math.floor,
    **{cls.__name__: cls for cls in req.ALL_REQUEST_TYPES},
}

_INT_EXPR = {
    "add": "{a} + {b}", "sub": "{a} - {b}", "mul": "{a} * {b}",
    "and": "{a} & {b}", "or": "{a} | {b}", "xor": "{a} ^ {b}",
    "shl": "{a} << ({b} % {w})",
    "lshr": "({a} & {m:#x}) >> ({b} % {w})",
    "ashr": "{a} >> ({b} % {w})",
    "div": "cdiv({a}, {b})", "rem": "crem({a}, {b})",
}
_FLOAT_EXPR = {"add": "{a} + {b}", "sub": "{a} - {b}", "mul": "{a} * {b}",
               "div": "{a} / {b}"}
_CMP_EXPR = {"eq": "==", "ne": "!=", "lt": "<", "le": "<=", "gt": ">",
             "ge": ">="}

_EVENT_CLASS = {
    ins.FifoRead: "FifoRead", ins.FifoWrite: "FifoWrite",
    ins.FifoNbRead: "FifoNbRead", ins.FifoNbWrite: "FifoNbWrite",
    ins.FifoCanRead: "FifoCanRead", ins.FifoCanWrite: "FifoCanWrite",
    ins.AxiReadReq: "AxiReadReq", ins.AxiRead: "AxiRead",
    ins.AxiWriteReq: "AxiWriteReq", ins.AxiWrite: "AxiWrite",
    ins.AxiWriteResp: "AxiWriteResp",
}


def _wrap(expr: str, type_: ty.Type) -> str:
    """``type_.wrap(expr)`` (``wrap_raw`` for fixed point) as one
    branch-free expression; ``expr`` is int-valued unless ``type_`` is a
    float."""
    if isinstance(type_, ty.FloatType):
        return f"f32({expr})" if type_.width == 32 else f"float({expr})"
    mask = (1 << type_.width) - 1
    if not type_.signed:
        return f"({expr}) & {mask:#x}"
    half = 1 << (type_.width - 1)
    return f"(({expr}) + {half:#x} & {mask:#x}) - {half:#x}"


@dataclass(frozen=True, slots=True)
class ModuleProgram:
    """The compile-once artifact of one module schedule: the
    (shape-shared) factory plus the function's own values it is called
    with."""

    factory: object
    #: constant operand values, one per use site
    consts: tuple
    #: parameter names whose run-time bindings the factory receives
    arg_names: tuple
    #: block labels, crash labels and message strings
    extras: tuple

    @property
    def source(self) -> str:
        return self.factory.source


class _Generator:
    """Emits the factory source of one ModuleSchedule.  It is handed
    no instance, so nothing instance-specific can become program text."""

    def __init__(self, schedule, oob_mode: str, trace_blocks: bool):
        self.schedule = schedule
        self.function = schedule.function
        self.crash_oob = oob_mode == "crash"
        self.trace_blocks = trace_blocks
        self.consts: list = []
        #: referenced parameter name -> its local, in first-use order
        self.arg_locals: dict = {}
        self._sized_args: list = []
        self.extras: list = []
        #: instruction vid -> the local of its value: ``v<position in
        #: function order>`` (an alloca's storage is ``m<position>``);
        #: _replay_to_limit recomputes the same numbering
        self.local = {instr.vid: f"v{i}" for i, instr in
                      enumerate(self.function.iter_instructions())}
        #: appends one source line to the tree being emitted
        self.add = None

    # --- names ----------------------------------------------------------

    def _operand(self, value) -> str:
        local = self.local.get(value.vid)
        if local is not None:
            return local
        if isinstance(value, Constant):
            self.consts.append(value.value)
            return f"k{len(self.consts) - 1}"
        raise SimulationError(
            f"function {self.function.name}: cannot evaluate operand "
            f"{value!r}"
        )

    def _arg(self, arg) -> str:
        """Local holding the run-time binding of a parameter (a channel
        name or a buffer list)."""
        local = self.arg_locals.get(arg.name)
        if local is None:
            local = self.arg_locals[arg.name] = f"a{len(self.arg_locals)}"
        return local

    def _extra(self, value) -> str:
        self.extras.append(value)
        return f"x{len(self.extras) - 1}"

    def _slot(self, alloca) -> str:
        return "m" + self.local[alloca.vid][1:]

    def _storage(self, target) -> tuple:
        """(list local, size expression) of an array storage operand."""
        if isinstance(target, Argument):
            local = self._arg(target)
            if local not in self._sized_args:
                self._sized_args.append(local)
            return local, "n" + local
        if isinstance(target, ins.Alloca):
            return self._slot(target), str(target.allocated.size)
        raise SimulationError(f"bad storage operand {target!r}")

    def _raise_simulation_error(self, ind: str, message: str) -> None:
        """The oracle fails lazily, when the instruction executes."""
        self.add(f"{ind}raise SimulationError({self._extra(message)})")

    # --- frame analysis ---------------------------------------------------

    def _analyze(self) -> None:
        """Forward data-flow over the CFG: which pipelined loop can be
        the active pipeline frame when a block is entered.

        Frame sets are bit masks: bit 0 = no frame, bit ``f`` = the
        ``f``-th pipelined loop.  Mirrors the interpreter's block-entry
        rules: the frame is dropped on entering a block outside its loop
        and (re)set on entering the header of a pipelined loop.  Fills,
        per reachable block, ``entry_frames`` = (frames dropped on
        entry, frames possible after the drop), ``frames_out`` and
        ``edges_in``."""
        innermost = ModuleInterpreter._innermost_pipelined
        blocks = self.function.blocks
        self.loops: list = [None]   # pipelined loops, indexed by frame id
        loop_ids: dict = {}
        self.header_of: dict = {}   # block -> frame id it (re)issues
        self.headed: dict = {}      # block -> frames whose loop it heads
        for block in blocks:
            loop = block.loop
            while loop is not None:
                if loop.pipelined and id(loop) not in loop_ids:
                    loop_ids[id(loop)] = len(self.loops)
                    self.loops.append(loop)
                    self.headed[loop.header] = (
                        self.headed.get(loop.header, 0)
                        | 1 << loop_ids[id(loop)])
                loop = loop.parent
            pipelined = innermost(block.loop)
            if (block.is_loop_header and pipelined is not None
                    and block is pipelined.header):
                self.header_of[block] = loop_ids[id(pipelined)]

        entry = self.function.entry
        frames_in = {entry: 1}
        self.entry_frames: dict = {}
        self.frames_out: dict = {}
        work = [entry]
        while work:
            block = work.pop()
            frames = frames_in[block]
            inside = 1
            for frame in range(1, len(self.loops)):
                if block in self.loops[frame].blocks:
                    inside |= 1 << frame
            dropped = frames & ~inside
            kept = frames & inside | (1 if dropped else 0)
            self.entry_frames[block] = (dropped, kept)
            header = self.header_of.get(block)
            out = self.frames_out[block] = (
                kept if header is None else 1 << header)
            for succ in block.successors():
                known = frames_in.get(succ)
                if known is None or out & ~known:
                    frames_in[succ] = out | (known or 0)
                    work.append(succ)
        self.edges_in: dict = {}
        for block in self.entry_frames:
            for succ in block.successors():
                self.edges_in[succ] = self.edges_in.get(succ, 0) + 1

    @staticmethod
    def _frame_test(frames: int, negate: bool = False) -> str:
        ids = [f for f in range(frames.bit_length()) if frames >> f & 1]
        if ids == [0]:
            return "fl" if negate else "not fl"
        if len(ids) == 1:
            return f"fl {'!=' if negate else '=='} {ids[0]}"
        return f"fl {'not in' if negate else 'in'} {tuple(ids)}"

    # --- whole module -----------------------------------------------------

    def generate(self) -> str:
        self._analyze()
        entry = self.function.entry
        self.block_index = {block: i for i, block in
                            enumerate(self.function.blocks)}
        # A state per block that is entered from more than one place;
        # the entry block comes first in function order, so it is 0.
        self.roots = roots = [
            b for b in self.function.blocks if b in self.entry_frames
            and (b is entry or self.edges_in.get(b, 0) != 1)]
        self.root_ids = {block: i for i, block in enumerate(roots)}
        trees = []
        for root in roots:        # depth-capped inlining appends roots
            tree = ["while True:"]
            self.add = tree.append
            self._emit_tree(root, _INDENT[1], root, 0)
            trees.append(tree)

        out = ["def factory(ex, K, A, X):",
               "    name = ex.name",
               "    limit = ex.step_limit"]
        for prefix, count, source in (("k", len(self.consts), "K"),
                                      ("a", len(self.arg_locals), "A"),
                                      ("x", len(self.extras), "X")):
            if count:
                names = ", ".join([f"{prefix}{i}" for i in range(count)])
                out.append(f"    {names}, = {source}")
        for local in self._sized_args:
            out.append(f"    n{local} = len({local})")
        out += ["    def run():",
                "        steps = seg = base = t = fl = fi = state = 0",
                "        seq = 1",
                "        pip = False",
                "        try:",
                "            yield StartTask(name, 1, 0)",
                "            while True:"]
        self._dispatch(out, trees, 0, len(trees), 4)
        out += ["        except SimulationError as exc:",
                "            if exc.module is None:",
                "                exc.module = name",
                "            raise",
                "    return run",
                ""]
        return "\n".join(out)

    def _dispatch(self, out: list, trees: list, lo: int, hi: int,
                  depth: int) -> None:
        """Binary decision tree over ``state`` down to one root each."""
        ind = _INDENT[depth]
        if hi - lo == 1:
            out += [ind + line for line in trees[lo]]
            return
        mid = (lo + hi) // 2
        out.append(f"{ind}if state < {mid}:")
        self._dispatch(out, trees, lo, mid, depth + 1)
        out.append(f"{ind}else:")
        self._dispatch(out, trees, mid, hi, depth + 1)

    # --- blocks -----------------------------------------------------------

    def _emit_tree(self, block, ind: str, root, nesting: int) -> None:
        """``block`` and everything inlined after it: jump targets at the
        same indentation, branch arms one level deeper."""
        while block is not None:
            block = self._emit_block(block, ind, root, nesting)

    def _emit_block(self, block, ind: str, root, nesting: int):
        """One block; returns the block to inline right after it (its
        single-predecessor jump target), if any."""
        add = self.add
        deeper = ind + "    "
        # pipeline frame management on block entry
        dropped, kept = self.entry_frames[block]
        if dropped:
            inner = ind
            if kept != 1:      # some entries keep their frame
                add(f"{ind}if {self._frame_test(dropped)}:")
                inner = deeper
            add(f"{inner}fl = 0")
            add(f"{inner}seg += 1; base = t; pip = False")
        header = self.header_of.get(block)
        if header is not None:
            ii = self.loops[header].ii
            if kept == 1 << header:
                add(f"{ind}fi += {ii}; t = fi")
            elif not kept >> header & 1:
                add(f"{ind}fl = {header}; fi = t")
            else:
                # back edge: the next iteration issues II cycles later
                add(f"{ind}if fl == {header}:")
                add(f"{deeper}fi += {ii}; t = fi")
                add(f"{ind}else:")
                add(f"{deeper}fl = {header}; fi = t")
            add(f"{ind}seg += 1; base = t; pip = True")

        if self.trace_blocks:
            add(f"{ind}seq += 1")
            add(f"{ind}yield TraceBlock(name, seq, t, seg, base, pip, "
                f"{self._extra(block.label)})")

        instructions = block.instructions
        add(f"{ind}steps += {len(instructions)}")
        add(f"{ind}if steps > limit: yield from ex._replay_to_limit("
            f"{self.block_index[block]}, locals())")

        block_schedule = self.schedule.for_block(block)
        stages = block_schedule.stages
        latency = block_schedule.latency
        for instr in instructions:
            kind = type(instr)
            if kind in _EVENT_CLASS:
                stage = stages.get(instr.vid, 0)
                self._emit_event(instr, ind,
                                 f"t + {stage}" if stage else "t")
            elif kind in _EMITTERS:
                _EMITTERS[kind](self, instr, ind)
            elif instr.is_terminator:
                break
            else:
                add(f"{ind}raise SimulationError('module ' + name + "
                    f"{self._extra(f': cannot execute {instr.opname}')})")

        term = block.terminator
        if isinstance(term, ins.Jump):
            return self._emit_goto(block, term.target, latency, ind, root,
                                   nesting)
        if isinstance(term, ins.Branch):
            for keyword, target in ((f"if {self._operand(term.cond)}:",
                                     term.if_true), ("else:", term.if_false)):
                add(ind + keyword)
                self._emit_tree(
                    self._emit_goto(block, target, latency, deeper, root,
                                    nesting + 1),
                    deeper, root, nesting + 1)
        else:  # Ret, or an unterminated block (treated as return)
            frames = self.frames_out[block]
            add(f"{ind}t += {latency}")
            if frames != 1:
                # Returning from inside a pipelined loop (break/ret):
                # the end event belongs to post-loop straight-line time.
                inner = ind
                if frames & 1:
                    add(f"{ind}if fl:")
                    inner = deeper
                add(f"{inner}seg += 1; base = t; pip = False")
            add(f"{ind}seq += 1")
            add(f"{ind}ex.steps = steps; ex.seq = seq; ex.end_nominal = t")
            add(f"{ind}yield EndTask(name, seq, t, seg, base, pip)")
            add(f"{ind}return")
        return None

    def _emit_goto(self, block, target, latency: int, ind: str, root,
                   nesting: int):
        """Control transfer ``block -> target``: advance time, then loop
        back to the enclosing root or leave through the state dispatch —
        or return ``target`` for the caller to inline here."""
        # A back edge into the active pipelined loop's header takes no
        # time here: the header entry sets ``t`` to the next issue slot.
        frames = self.frames_out[block]
        skips = frames & self.headed.get(target, 0)
        if not skips:
            self.add(f"{ind}t += {latency}")
        elif skips != frames:
            self.add(f"{ind}if {self._frame_test(skips, negate=True)}: "
                     f"t += {latency}")
        if target is root:
            self.add(f"{ind}continue")
            return None
        if target not in self.root_ids:
            if nesting < _MAX_INLINE_DEPTH:
                return target
            self.root_ids[target] = len(self.roots)
            self.roots.append(target)
        self.add(f"{ind}state = {self.root_ids[target]}; break")
        return None

    # --- hardware events --------------------------------------------------

    def _emit_event(self, instr, ind: str, nominal: str) -> None:
        fields = self._arg(instr.operands[0])
        for operand in instr.operands[1:]:   # value | offset, length
            fields += ", " + self._operand(operand)
        request = (f"{_EVENT_CLASS[type(instr)]}(name, seq, {nominal}, "
                   f"seg, base, pip, {fields})")
        dst = self.local[instr.vid]
        add = self.add
        add(f"{ind}seq += 1")
        if isinstance(instr, (ins.FifoRead, ins.AxiRead)):
            add(f"{ind}{dst} = yield {request}")
        elif isinstance(instr, ins.FifoNbRead):
            default = ty.default_value(instr.type.elements[1])
            add(f"{ind}ok, value = yield {request}")
            add(f"{ind}{dst} = (int(ok), {default!r} if value is None "
                "else value)")
        elif isinstance(instr, (ins.FifoNbWrite, ins.FifoCanRead,
                                ins.FifoCanWrite)):
            add(f"{ind}{dst} = int((yield {request}))")
        else:
            add(f"{ind}yield {request}")

    # --- pure ops ---------------------------------------------------------

    def _emit_alloca(self, instr, ind: str) -> None:
        allocated = instr.allocated
        if isinstance(allocated, ty.ArrayType):
            default = ty.default_value(allocated.element)
            self.add(f"{ind}{self._slot(instr)} = [{default!r}] * "
                     f"{allocated.size}")
        else:
            self.add(f"{ind}{self._slot(instr)} = "
                     f"{ty.default_value(allocated)!r}")

    def _emit_load(self, instr, ind: str) -> None:
        dst = self.local[instr.vid]
        operands = instr.operands
        if len(operands) == 1:  # scalar alloca
            self.add(f"{ind}{dst} = {self._slot(operands[0])}")
            return
        index = self._operand(operands[1])
        storage, size = self._storage(operands[0])
        self._emit_access(operands[0], "read", ind, index, size,
                          f"{dst} = {storage}[%s]")

    def _emit_store(self, instr, ind: str) -> None:
        operands = instr.operands
        value = self._operand(operands[1])
        if len(operands) == 2:  # scalar alloca
            self.add(f"{ind}{self._slot(operands[0])} = {value}")
            return
        index = self._operand(operands[2])
        storage, size = self._storage(operands[0])
        self._emit_access(operands[0], "write", ind, index, size,
                          f"{storage}[%s] = {value}")

    def _emit_access(self, target, what: str, ind: str, index: str,
                     size: str, access: str) -> None:
        add = self.add
        if self.crash_oob:
            label = self._extra(target.name or target.short())
            add(f"{ind}if not 0 <= {index} < {size}:")
            add(f"{ind}    raise oob_crash({what!r}, {label}, {index}, "
                f"{size}, name)")
            add(ind + access % index)
            return
        # Hardware semantics: the address truncates to the storage size.
        # list[i] already equals list[i % size] for -size <= i < size.
        add(f"{ind}try:")
        add(f"{ind}    {access % index}")
        add(f"{ind}except IndexError:")
        add(f"{ind}    {access % f'{index} % {size}'}")

    def _emit_binop(self, instr, ind: str) -> None:
        a = self._operand(instr.operands[0])
        b = self._operand(instr.operands[1])
        type_, op = instr.type, instr.op
        if isinstance(type_, ty.IntType):
            template, zero, what = _INT_EXPR[op], "0", "integer"
        elif isinstance(type_, ty.FixedType):
            frac = type_.frac_bits
            template, zero, what = _INT_EXPR[op], "0", "fixed-point"
            if op == "mul":
                template = f"({{a}} * {{b}}) >> {frac}"
            elif op == "div":
                template = f"cdiv({{a}} << {frac}, {{b}})"
            elif op == "rem":
                what = "integer"
        elif isinstance(type_, ty.FloatType):
            template, zero, what = _FLOAT_EXPR.get(op), "0.0", "floating-point"
            if template is None:
                self._raise_simulation_error(
                    ind, f"float op {op} not supported")
                return
        else:
            self._raise_simulation_error(
                ind, f"binop on non-scalar type {type_}")
            return
        if op in ("div", "rem"):
            noun = "remainder" if op == "rem" else "division"
            self.add(f"{ind}if {b} == {zero}:")
            self.add(f"{ind}    raise SimulationError("
                     f"'{what} {noun} by zero')")
        expr = template.format(a=a, b=b, w=type_.width,
                               m=(1 << type_.width) - 1)
        self.add(f"{ind}{self.local[instr.vid]} = {_wrap(expr, type_)}")

    def _emit_cmp(self, instr, ind: str) -> None:
        a = self._operand(instr.operands[0])
        b = self._operand(instr.operands[1])
        self.add(f"{ind}{self.local[instr.vid]} = "
                 f"1 if {a} {_CMP_EXPR[instr.op]} {b} else 0")

    def _emit_unop(self, instr, ind: str) -> None:
        a = self._operand(instr.operands[0])
        type_, op = instr.operands[0].type, instr.op
        dst = self.local[instr.vid]
        if op == "lnot":
            self.add(f"{ind}{dst} = 0 if {a} else 1")
        elif op == "not" and not isinstance(type_, ty.IntType):
            self._raise_simulation_error(ind, "bitwise not on non-integer")
        else:
            sign = "-" if op == "neg" else "~"
            self.add(f"{ind}{dst} = {_wrap(sign + a, type_)}")

    def _emit_cast(self, instr, ind: str) -> None:
        a = self._operand(instr.operands[0])
        src, to = instr.operands[0].type, instr.type
        if src == to:
            expr = a
        else:
            # mirror ops.convert_scalar: through the "real" value
            real = (f"{a} / {src.scale}" if isinstance(src, ty.FixedType)
                    else a)
            if isinstance(to, ty.IntType):
                expr = _wrap(real if isinstance(src, ty.IntType)
                             else f"int({real})", to)
            elif isinstance(to, ty.FixedType):
                if isinstance(src, ty.IntType):
                    expr = _wrap(f"{a} << {max(to.frac_bits, 0)}", to)
                else:
                    expr = _wrap(f"floor(float({real}) * {to.scale})", to)
            elif isinstance(to, ty.FloatType):
                expr = _wrap(f"float({real})", to)
            else:
                self._raise_simulation_error(
                    ind, f"cannot convert {src} to {to}")
                return
        self.add(f"{ind}{self.local[instr.vid]} = {expr}")

    def _emit_select(self, instr, ind: str) -> None:
        cond, a, b = [self._operand(o) for o in instr.operands]
        self.add(f"{ind}{self.local[instr.vid]} = {a} if {cond} else {b}")

    def _emit_tupleget(self, instr, ind: str) -> None:
        agg = self._operand(instr.operands[0])
        self.add(f"{ind}{self.local[instr.vid]} = {agg}[{instr.index}]")

    def _emit_assert(self, instr, ind: str) -> None:
        cond = self._operand(instr.operands[0])
        message = self._extra(f"assertion failed: {instr.message}")
        self.add(f"{ind}if not {cond}:")
        self.add(f"{ind}    raise SimulatedCrash({message}, module=name)")


_EMITTERS = {
    ins.Alloca: _Generator._emit_alloca,
    ins.Load: _Generator._emit_load,
    ins.Store: _Generator._emit_store,
    ins.BinOp: _Generator._emit_binop,
    ins.Cmp: _Generator._emit_cmp,
    ins.UnOp: _Generator._emit_unop,
    ins.Cast: _Generator._emit_cast,
    ins.Select: _Generator._emit_select,
    ins.TupleGet: _Generator._emit_tupleget,
    ins.Assert: _Generator._emit_assert,
}


def source_digest(source: str) -> str:
    return hashlib.sha256(source.encode()).hexdigest()[:16]


def _factory_for(source: str):
    """The factory function of one generated source (kept on it as
    ``factory.source``), compiled at most once per process and
    registered with :mod:`linecache`."""
    factory = _FACTORIES.get(source)
    if factory is None:
        filename = f"<repro-codegen:{source_digest(source)}>"
        namespace: dict = {}
        exec(compile(source, filename, "exec"), _GLOBALS, namespace)
        factory = namespace["factory"]
        factory.source = source
        linecache.cache[filename] = (len(source), None,
                                     source.splitlines(True), filename)
        if len(_FACTORIES) >= _FACTORY_CACHE_LIMIT:
            for stale in list(_FACTORIES.values()):
                linecache.cache.pop(stale.__code__.co_filename, None)
            _FACTORIES.clear()
        _FACTORIES[source] = factory
    return factory


def compile_program(compiled_module, oob_mode: str = "wrap",
                    trace_blocks: bool = False) -> ModuleProgram:
    """Return the generated program of one compiled module, generated
    once per schedule and kept on it.

    Nothing run- or instance-specific is baked in: the module name,
    channel names and bound buffers reach the factory as arguments at
    :meth:`CompiledModuleExecutor.run`, so one program serves every run
    of every instance that shares the schedule."""
    schedule = compiled_module.schedule
    cache = schedule.programs
    key = (oob_mode, trace_blocks)
    program = cache.get(key)
    if program is None:
        generator = _Generator(schedule, oob_mode, trace_blocks)
        factory = _factory_for(generator.generate())
        program = cache[key] = ModuleProgram(
            factory, tuple(generator.consts), tuple(generator.arg_locals),
            tuple(generator.extras))
    return program


class CompiledModuleExecutor:
    """Drop-in replacement for :class:`ModuleInterpreter` running the
    generated program.  Constructor, attributes and generator protocol
    are identical — see DESIGN.md for the architecture."""

    OOB_MODES = ("wrap", "crash")

    def __init__(self, compiled_module, bindings: dict,
                 step_limit: int = DEFAULT_STEP_LIMIT,
                 trace_blocks: bool = False,
                 oob_mode: str = "wrap"):
        if oob_mode not in self.OOB_MODES:
            raise ValueError(f"bad oob_mode {oob_mode!r}")
        self.oob_mode = oob_mode
        self.module = compiled_module
        self.name = compiled_module.name
        self.function = compiled_module.function
        self.schedule = compiled_module.schedule
        self.bindings = bindings
        self.step_limit = step_limit
        self.trace_blocks = trace_blocks
        self.program = compile_program(compiled_module, oob_mode,
                                       trace_blocks)
        self.seq = 0
        self.steps = 0
        self.end_nominal: int | None = None

    def run(self):
        """Generator protocol: yields Requests; ``send()`` responses back."""
        program = self.program
        bindings = self.bindings
        return program.factory(
            self, program.consts,
            tuple(bindings[name] for name in program.arg_names),
            program.extras)()

    def _replay_to_limit(self, block_index: int, frame: dict):
        """Finish the run in the oracle: called by generated code on
        entering the block in which the step limit falls, with its
        ``locals()``.  Executes that block with the interpreter's
        per-instruction step accounting and always raises the step-limit
        error, so the emitted event prefix and the raise point are the
        oracle's own."""
        oracle = ModuleInterpreter(self.module, self.bindings,
                                   self.step_limit, oob_mode=self.oob_mode)
        block = self.function.blocks[block_index]
        oracle.seq = frame["seq"]
        oracle.steps = frame["steps"] - len(block.instructions)
        oracle._segment = frame["seg"]
        oracle._seg_base = frame["base"]
        oracle._seg_pipelined = frame["pip"]
        env, memory = {}, {}
        for i, instr in enumerate(self.function.iter_instructions()):
            if f"v{i}" in frame:
                env[instr.vid] = frame[f"v{i}"]
            if f"m{i}" in frame:
                memory[instr.vid] = frame[f"m{i}"]
        stages = self.schedule.for_block(block).stages
        time = frame["t"]
        try:
            for instr in block.instructions:
                oracle.steps += 1
                if oracle.steps > self.step_limit:
                    raise step_limit_error(self.name, self.step_limit)
                if isinstance(instr, ins.EVENT_OPS):
                    result = yield from oracle._run_event(
                        instr, env, time + stages.get(instr.vid, 0), None)
                    if result is not _NO_VALUE:
                        env[instr.vid] = result
                else:
                    oracle._run_pure(instr, env, memory)
        finally:
            self.seq, self.steps = oracle.seq, oracle.steps
        # unreachable: the limit falls inside this block
        raise step_limit_error(self.name, self.step_limit)  # pragma: no cover
