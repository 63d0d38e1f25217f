"""Operation latency / chaining model used by the list scheduler.

This plays the role of the HLS tool's technology library: every IR
operation gets a latency in cycles, and zero-latency (combinational)
operations may be chained within a single FSM stage up to a depth limit
(a crude clock-period model).

Latencies are loosely modelled on Vitis HLS defaults at ~300 MHz on
UltraScale+: cheap integer ops chain combinationally, multiplies take a
couple of cycles through DSP registers, divides iterate, floating point
goes through multi-cycle cores, BRAM reads take one cycle, and FIFO reads
register their output.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..ir import instructions as ins
from ..ir import types as ty


@dataclass(frozen=True)
class ResourceModel:
    """Latency table; override fields to model different targets."""

    int_mul: int = 2
    int_div: int = 8
    float_add: int = 4
    float_mul: int = 3
    float_div: int = 10
    float_cast: int = 2
    array_load: int = 1
    fifo_read: int = 1
    axi_read: int = 1
    #: Maximum number of chained combinational ops per stage.
    chain_limit: int = 6

    def latency(self, instr: ins.Instruction) -> int:
        """Latency in cycles of ``instr`` (0 = combinational)."""
        if isinstance(instr, ins.BinOp):
            return self._binop_latency(instr)
        if isinstance(instr, ins.Cast):
            src = instr.operands[0].type
            if isinstance(src, ty.FloatType) or isinstance(instr.type,
                                                           ty.FloatType):
                return self.float_cast
            return 0
        if isinstance(instr, ins.Load):
            target = instr.pointer
            if isinstance(target.type, ty.ArrayType) and _is_array_storage(
                    target):
                return self.array_load
            return 0
        if isinstance(instr, (ins.FifoRead, ins.FifoNbRead)):
            return self.fifo_read
        if isinstance(instr, ins.AxiRead):
            return self.axi_read
        return 0

    def _binop_latency(self, instr: ins.BinOp) -> int:
        type_ = instr.type
        if isinstance(type_, ty.FloatType):
            if instr.op in ("add", "sub"):
                return self.float_add
            if instr.op == "mul":
                return self.float_mul
            if instr.op in ("div", "rem"):
                return self.float_div
            return self.float_add
        # Integer and fixed-point share integer datapaths.
        if instr.op == "mul":
            return self.int_mul
        if instr.op in ("div", "rem"):
            return self.int_div
        return 0


def _is_array_storage(value) -> bool:
    """True for BRAM-like storage (array allocas and buffer ports)."""
    from ..ir.values import Argument

    if isinstance(value, Argument):
        return value.kind in ("buffer", "scalar_out")
    if isinstance(value, ins.Alloca):
        return isinstance(value.allocated, ty.ArrayType)
    return False


@dataclass(frozen=True)
class SynthesisConfig:
    """Knobs for the C-synthesis stage."""

    resources: ResourceModel = field(default_factory=ResourceModel)


DEFAULT_CONFIG = SynthesisConfig()
