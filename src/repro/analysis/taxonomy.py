"""Automatic dataflow-design classification (paper section 3, Fig. 3/4).

Classifies a design as Type A, B, or C from its IR and wiring:

* **Type A** — blocking-only accesses and an acyclic module graph: both
  functionality and performance can be simulated decoupled (L1/L1).
* **Type B** — non-blocking accesses, infinite loops, or cyclic
  dependencies, but only one program behaviour per access (L2/L3).
* **Type C** — the outcome of a non-blocking access feeds control flow or
  state, so functionality itself is cycle-dependent (L3/L3).

The B-vs-C distinction is undecidable in general (it asks whether the two
branches of an NB outcome are observationally equivalent), so the analysis
is conservative: an NB result that influences branches, stored values, or
written data makes the design Type C unless the only influence is the
standard retry idiom.  The registry's hand-labelled types (matching the
paper's Table 4) are reported alongside for comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..ir import instructions as ins


@dataclass
class Classification:
    """Result of classifying one design."""

    design_type: str                  # "A" | "B" | "C"
    func_sim_level: int               # 1, 2 or 3  (paper Fig. 4 top row)
    perf_sim_level: int
    cyclic: bool
    has_nonblocking: bool
    has_infinite_loop: bool
    reasons: list = field(default_factory=list)


def _nb_result_influences_behavior(function) -> bool:
    """Conservative def-use walk: does any NB/status result reach a branch,
    select, store, or FIFO payload?"""
    nb_results = set()
    for instr in function.iter_instructions():
        if isinstance(instr, ins.FifoNbWrite):
            # Whether it succeeds decides whether the value reaches the
            # reader at all: an unchecked write_nb drops data when full
            # (fig4_ex4a), with no def-use edge to show for it.
            return True
        if isinstance(instr, (ins.FifoNbRead,
                              ins.FifoCanRead, ins.FifoCanWrite)):
            nb_results.add(instr.vid)
    if not nb_results:
        return False
    # Propagate taint through pure dataflow.
    tainted = set(nb_results)
    changed = True
    while changed:
        changed = False
        for instr in function.iter_instructions():
            if instr.vid in tainted:
                continue
            if any(op.vid in tainted for op in instr.operands):
                tainted.add(instr.vid)
                changed = True
    for instr in function.iter_instructions():
        if isinstance(instr, (ins.Branch, ins.Select)):
            if any(op.vid in tainted for op in instr.operands):
                return True
        if isinstance(instr, ins.Store):
            if instr.value.vid in tainted:
                return True
        if isinstance(instr, ins.FifoWrite):
            if instr.value.vid in tainted:
                return True
    return False


def _has_infinite_loop(function) -> bool:
    """A loop whose header unconditionally enters the body (while True)."""
    for loop in function.loops:
        terminator = loop.header.terminator
        if isinstance(terminator, ins.Jump):
            if terminator.target in loop.blocks:
                return True
    return False


def classify(compiled) -> Classification:
    """Classify a compiled design per the paper's taxonomy."""
    has_nb = False
    nb_influences = False
    infinite = False
    reasons = []
    for module in compiled.modules:
        for instr in module.function.iter_instructions():
            if isinstance(instr, ins.FIFO_QUERY_OPS):
                has_nb = True
        if _has_infinite_loop(module.function):
            infinite = True
        if _nb_result_influences_behavior(module.function):
            nb_influences = True
            reasons.append(
                f"module '{module.name}': NB outcome reaches control flow "
                "or data"
            )
    cyclic = compiled.design.is_cyclic()
    if cyclic:
        reasons.append("module dependency graph is cyclic")
    if infinite:
        reasons.append("contains an infinite (while True) loop")
    if has_nb and not nb_influences:
        reasons.append("non-blocking accesses with invariant behaviour")

    if not has_nb and not cyclic and not infinite:
        return Classification("A", 1, 1, cyclic, has_nb, infinite, reasons)
    if has_nb and nb_influences:
        return Classification("C", 3, 3, cyclic, has_nb, infinite, reasons)
    return Classification("B", 2, 3, cyclic, has_nb, infinite, reasons)
