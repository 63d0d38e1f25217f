"""Static operation scheduling: the reproduction's "C synthesis" stage.

For every basic block, assigns each instruction a start *stage* (cycle
offset within the block's FSM state sequence) honoring:

* data dependencies (an op starts when its operands are done);
* combinational chaining limits (a crude clock-period model);
* program order among side-effecting operations (FIFO/AXI accesses keep
  their source order, like Vitis does for accesses it cannot prove
  independent);
* memory dependencies on the same storage (conservative: any two accesses
  to the same alloca/buffer where at least one is a store stay ordered).

The result (:class:`ModuleSchedule`) is the "HW static schedule" of the
paper's Fig. 1: the input that LightningSim and OmniSim both require to
convert an execution trace into hardware cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..ir import instructions as ins
from ..ir.function import BasicBlock, Function
from .resources import DEFAULT_CONFIG, SynthesisConfig


@dataclass
class BlockSchedule:
    """Stage assignment for one basic block."""

    block: BasicBlock
    #: instruction vid -> start stage
    stages: dict = field(default_factory=dict)
    #: total cycles for one execution of the block (>= 1)
    latency: int = 1

    def stage_of(self, instr: ins.Instruction) -> int:
        return self.stages[instr.vid]


@dataclass
class ModuleSchedule:
    """Static schedule for a whole module function.

    One per (function, config), shared by every instance and read-only
    once :func:`schedule_function` returns it; it owns what is derived
    from it alone.
    """

    function: Function
    blocks: dict = field(default_factory=dict)  # label -> BlockSchedule
    #: filled and answered by :func:`estimate_function_latency`
    static_latency: "StaticLatency | None" = field(
        default=None, repr=False, compare=False)
    #: (oob_mode, trace_blocks) -> generated ModuleProgram; filled and
    #: answered by :func:`repro.interp.compiled.compile_program`
    programs: dict = field(default_factory=dict, repr=False, compare=False)

    def for_block(self, block: BasicBlock) -> BlockSchedule:
        return self.blocks[block.label]

    @property
    def total_static_states(self) -> int:
        """Number of FSM states (sum of block latencies): a rough size
        proxy reported by the synthesis report."""
        return sum(bs.latency for bs in self.blocks.values())


def schedule_function(function: Function,
                      config: SynthesisConfig = DEFAULT_CONFIG
                      ) -> ModuleSchedule:
    """The static schedule of every block of ``function``, computed
    once per ``config`` and kept on the function."""
    module_schedule = function.schedules.get(config)
    if module_schedule is None:
        module_schedule = ModuleSchedule(function)
        for block in function.blocks:
            module_schedule.blocks[block.label] = _schedule_block(
                block, config)
        function.schedules[config] = module_schedule
    return module_schedule


def _schedule_block(block: BasicBlock,
                    config: SynthesisConfig) -> BlockSchedule:
    resources = config.resources
    schedule = BlockSchedule(block)
    # (stage, chain_depth) per scheduled instruction
    position: dict[int, tuple[int, int]] = {}
    last_side_effect: tuple[int, int] | None = None
    #: storage vid -> (stage, chain) of the last access that must order
    #: subsequent accesses (conservative same-storage dependence)
    last_store: dict[int, tuple[int, int]] = {}
    last_access: dict[int, tuple[int, int]] = {}
    #: fifo/axi port vid -> stage of the last access (one port, one access
    #: per cycle: same-port accesses get strictly increasing stages)
    last_port_stage: dict[int, int] = {}
    #: (storage vid, stage) -> number of accesses (dual-port BRAM limit)
    port_usage: dict[tuple[int, int], int] = {}
    max_end = 0

    for instr in block.instructions:
        stage, chain = 0, 0
        # Data dependencies.
        for op in instr.operands:
            pos = position.get(op.vid)
            if pos is None:
                continue  # constant, argument, or defined in another block
            op_stage, op_chain = pos
            op_latency = resources.latency(op)
            if op_latency > 0:
                cand = (op_stage + op_latency, 0)
            else:
                cand = (op_stage, op_chain + 1)
            stage, chain = max((stage, chain), cand)
        # Program order among side effects.
        if instr.has_side_effect and not instr.is_terminator:
            if last_side_effect is not None:
                stage, chain = max((stage, chain), last_side_effect)
        # Memory dependencies.
        storage = _accessed_storage(instr)
        if storage is not None:
            is_store = isinstance(instr, ins.Store)
            prior = last_store.get(storage)
            if prior is not None:
                stage, chain = max((stage, chain), prior)
            if is_store:
                prior_any = last_access.get(storage)
                if prior_any is not None:
                    stage, chain = max((stage, chain), prior_any)
        # Same-port exclusivity: one FIFO/AXI access per port per cycle.
        if isinstance(instr, (ins.FifoOp, ins.AxiOp)):
            port_vid = instr.operands[0].vid
            prior_stage = last_port_stage.get(port_vid)
            if prior_stage is not None and stage <= prior_stage:
                stage, chain = prior_stage + 1, 0
        # Dual-port BRAM limit: at most two array accesses per stage.
        if storage is not None and _is_bram(instr):
            while port_usage.get((storage, stage), 0) >= 2:
                stage, chain = stage + 1, 0
            port_usage[(storage, stage)] = (
                port_usage.get((storage, stage), 0) + 1
            )
        # Chain limit: too many combinational ops in one stage -> next stage.
        if chain > resources.chain_limit:
            stage, chain = stage + 1, 0

        position[instr.vid] = (stage, chain)
        schedule.stages[instr.vid] = stage
        latency = resources.latency(instr)
        max_end = max(max_end, stage + latency)

        if instr.has_side_effect and not instr.is_terminator:
            last_side_effect = max(
                last_side_effect or (0, 0), (stage, chain)
            )
        if isinstance(instr, (ins.FifoOp, ins.AxiOp)):
            last_port_stage[instr.operands[0].vid] = stage
        if storage is not None:
            point = (stage, chain)
            last_access[storage] = max(last_access.get(storage, (0, 0)),
                                       point)
            if isinstance(instr, ins.Store):
                last_store[storage] = max(last_store.get(storage, (0, 0)),
                                          point)

    # A block whose ops all finish inside stage 0 still takes one FSM state.
    schedule.latency = max(1, max_end)
    return schedule


def _accessed_storage(instr: ins.Instruction):
    """vid of the memory storage accessed by a load/store, else None."""
    if isinstance(instr, (ins.Load, ins.Store)):
        return instr.pointer.vid
    return None


def _is_bram(instr: ins.Instruction) -> bool:
    """True for accesses to array storage (subject to the port limit);
    scalar allocas are registers with unlimited read ports."""
    if isinstance(instr, (ins.Load, ins.Store)):
        return (instr.index is not None)
    return False
