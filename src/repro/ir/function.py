"""Functions, basic blocks, and structured-loop metadata.

Because the front-end lowers structured Python source (no ``goto``), every
loop in the CFG is known at construction time and is recorded as a
:class:`LoopMeta`.  The scheduler and interpreter rely on this metadata to
implement loop pipelining without rediscovering loops from the CFG.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .instructions import Branch, Instruction, Jump

_block_counter = itertools.count()


class BasicBlock:
    """Straight-line instruction sequence ending in a terminator."""

    def __init__(self, label: str = ""):
        # Labels must be unique per function (schedules are keyed by them);
        # a global counter keeps user-provided hints readable and distinct.
        serial = next(_block_counter)
        self.label = f"{label}{serial}" if label else f"bb{serial}"
        self.instructions: list[Instruction] = []
        self.function: "Function | None" = None
        #: Innermost loop this block belongs to (or None).
        self.loop: "LoopMeta | None" = None
        #: True if this block is its loop's header.
        self.is_loop_header = False

    def append(self, instr: Instruction) -> Instruction:
        if self.is_terminated:
            raise RuntimeError(f"appending to terminated block {self.label}")
        instr.block = self
        self.instructions.append(instr)
        return instr

    @property
    def terminator(self) -> Instruction | None:
        if self.instructions and self.instructions[-1].is_terminator:
            return self.instructions[-1]
        return None

    @property
    def is_terminated(self) -> bool:
        return self.terminator is not None

    def successors(self):
        term = self.terminator
        if term is None:
            return []
        if isinstance(term, Jump):
            return [term.target]
        if isinstance(term, Branch):
            return [term.if_true, term.if_false]
        return []

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<BasicBlock {self.label} ({len(self.instructions)} instrs)>"


@dataclass
class LoopMeta:
    """Structured-loop record attached by the front-end.

    ``header`` is evaluated once per iteration (condition); ``blocks`` is the
    set of all member blocks including header and latch; ``exit`` is the
    unique block control reaches after the loop.
    """

    header: BasicBlock
    latch: BasicBlock | None = None
    exit: BasicBlock | None = None
    blocks: set = field(default_factory=set)
    parent: "LoopMeta | None" = None
    pipelined: bool = False
    ii: int = 1
    #: Optional static trip-count hint (for the C-synthesis report).
    trip_hint: int | None = None
    name: str = ""

    @property
    def depth(self) -> int:
        d, p = 0, self.parent
        while p is not None:
            d, p = d + 1, p.parent
        return d


class Function:
    """A compiled hardware module body.

    Immutable once the front-end returns it (every pass has run by
    then): all instances of one (kernel, constant binding) share it, and
    it owns what is derived from it alone.
    """

    def __init__(self, name: str, params):
        self.name = name
        self.params = list(params)
        self.blocks: list[BasicBlock] = []
        self.loops: list[LoopMeta] = []
        #: SynthesisConfig -> ModuleSchedule; filled and answered by
        #: :func:`repro.synthesis.schedule_function`
        self.schedules: dict = {}
        #: Names of dataflow sub-task functions launched by this function
        #: (top-level dataflow regions only; populated by the Design layer).
        self.attributes: dict = {}

    @property
    def entry(self) -> BasicBlock:
        if not self.blocks:
            raise RuntimeError(f"function {self.name} has no blocks")
        return self.blocks[0]

    def add_block(self, block: BasicBlock) -> BasicBlock:
        block.function = self
        self.blocks.append(block)
        return block

    def param(self, name: str):
        for p in self.params:
            if p.name == name:
                return p
        raise KeyError(f"{self.name} has no parameter {name!r}")

    def iter_instructions(self):
        for block in self.blocks:
            yield from block.instructions

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Function {self.name} ({len(self.blocks)} blocks)>"
