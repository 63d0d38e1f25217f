"""Paper Table 3: functionality simulation across C-sim / Co-sim / OmniSim.

Regenerates the table showing that C-sim fails on every Type B/C design
(SIGSEGV, spurious warnings, silently wrong sums) while OmniSim matches
the co-simulation oracle exactly.  Run directly to print the table;
``pytest --benchmark-only`` times OmniSim on each design.
"""

from __future__ import annotations

import pytest

try:
    from benchmarks.conftest import TABLE3_PARAMS, table3_compiled
except ImportError:  # executed directly: conftest sits alongside
    from conftest import TABLE3_PARAMS, table3_compiled
from repro import designs
from repro.analysis import render_table
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


@pytest.mark.parametrize("name", [n for n in TABLE3_NAMES
                                  if n != "deadlock"])
def test_omnisim_functionality(name, benchmark):
    """Benchmark OmniSim on each Table 3 design (and assert it matches
    the co-simulation oracle)."""
    compiled = table3_compiled(name)
    reference = CoSimulator(compiled).run()
    result = benchmark.pedantic(
        lambda: OmniSimulator(compiled).run(), rounds=1, iterations=1
    )
    assert result.scalars == reference.scalars
    assert result.cycles == reference.cycles


def main() -> None:
    rows = []
    for name in TABLE3_NAMES:
        outputs = run_design(name)
        match = "YES" if outputs["omnisim"] == outputs["cosim"] else "NO!"
        rows.append((name, outputs["csim"], outputs["cosim"],
                     outputs["omnisim"], match))
    print(render_table(
        ["design", "C-sim", "Co-sim", "OmniSim", "match"],
        rows,
        title="Table 3: Func Sim comparison (C-sim vs Co-sim vs OmniSim)\n"
              f"(instance sizes: {TABLE3_PARAMS})",
    ))


if __name__ == "__main__":
    main()
