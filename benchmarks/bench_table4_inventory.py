"""Paper Table 4: the Type B/C design inventory, with automatic taxonomy.

Prints each design's module/FIFO counts, access mix, cyclicity, and what
the conservative Type A/B/C classifier (paper Fig. 3/4) says about it.
The paper counts the top-level dataflow wrapper as a module; our counts
exclude it (paper = ours + 1).
"""

from __future__ import annotations

try:
    from benchmarks.conftest import TABLE3_PARAMS, render_rows
except ImportError:  # executed directly: conftest sits alongside
    from conftest import TABLE3_PARAMS, render_rows
from repro import compile_design, designs
from repro.analysis import classify
from repro.ir import instructions as ins


def access_mix(compiled) -> str:
    has_nb = any(
        isinstance(instr, ins.FIFO_QUERY_OPS)
        for module in compiled.modules
        for instr in module.function.iter_instructions()
    )
    return "NB" if has_nb else "B"


def rows() -> list:
    """One dict per Table 4 design, keyed by column header."""
    table = []
    for spec in designs.table4_specs():
        compiled = compile_design(
            spec.make(**TABLE3_PARAMS.get(spec.name, {}))
        )
        table.append({
            "design": spec.name,
            "type (paper)": spec.design_type,
            "type (auto)": classify(compiled).design_type,
            "#mod": len(compiled.modules),
            "#fifo": len(compiled.design.streams),
            "B/NB": access_mix(compiled),
            "cyclic": "Yes" if compiled.design.is_cyclic() else "No",
            "description": spec.description,
        })
    return table


def render(table) -> str:
    return render_rows(
        table, "Table 4: evaluated Type B and Type C designs\n"
               "(#mod excludes the top-level wrapper the paper counts)")


def main() -> None:
    print(render(rows()))


if __name__ == "__main__":
    main()
