"""Paper Table 3: functionality simulation across C-sim / Co-sim / OmniSim.

Regenerates the table showing that C-sim fails on every Type B/C design
(SIGSEGV, spurious warnings, silently wrong sums) while OmniSim matches
the co-simulation oracle exactly.  Run directly to print the table;
``tests/test_paper_tables.py`` checks its ``match`` column in tier-1.
"""

from __future__ import annotations

try:
    from benchmarks.conftest import (
        TABLE3_PARAMS,
        render_rows,
        table3_compiled,
    )
except ImportError:  # executed directly: conftest sits alongside
    from conftest import TABLE3_PARAMS, render_rows, table3_compiled
from repro import designs
from repro.errors import DeadlockError
from repro.sim import get_engine

CoSimulator = get_engine("cosim").cls
CSimulator = get_engine("csim").cls
OmniSimulator = get_engine("omnisim").cls

TABLE3_NAMES = [spec.name for spec in designs.table4_specs()]


def describe(result, error=None) -> str:
    if error is not None:
        return f"DEADLOCK detected at cycle {error.cycle}"
    if result.failure:
        return result.failure
    parts = [f"{k}={v}" for k, v in sorted(result.scalars.items())]
    empty_reads = sum("read while empty" in w for w in result.warnings)
    leftovers = sum("leftover" in w for w in result.warnings)
    if empty_reads:
        parts.append(f"WARNING1 (x{empty_reads})")
    if leftovers:
        parts.append(f"WARNING2 (x{leftovers})")
    return "; ".join(parts)


def run_design(name: str):
    compiled = table3_compiled(name)
    row = {}
    row["csim"] = describe(CSimulator(compiled).run())
    for label, sim_class in (("cosim", CoSimulator),
                             ("omnisim", OmniSimulator)):
        try:
            row[label] = describe(sim_class(compiled).run())
        except DeadlockError as exc:
            row[label] = describe(None, error=exc)
    return row


def rows() -> list:
    """One dict per Table 3 design, keyed by column header."""
    table = []
    for name in TABLE3_NAMES:
        outputs = run_design(name)
        table.append({
            "design": name,
            "C-sim": outputs["csim"],
            "Co-sim": outputs["cosim"],
            "OmniSim": outputs["omnisim"],
            "match": ("YES" if outputs["omnisim"] == outputs["cosim"]
                      else "NO!"),
        })
    return table


def render(table) -> str:
    return render_rows(
        table, "Table 3: Func Sim comparison (C-sim vs Co-sim vs OmniSim)\n"
               f"(instance sizes: {TABLE3_PARAMS})")


def main() -> None:
    print(render(rows()))


if __name__ == "__main__":
    main()
