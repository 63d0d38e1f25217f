"""Paper Table 5: OmniSim vs LightningSimV2 on the 35-design Type A suite.

For every Type A design both simulators run end-to-end; the table reports
total time, OmniSim's front-end (FE) vs multi-threaded-execution (MT)
split, and the speedup.  The paper's shape to reproduce: parity (within
noise) on small designs, growing OmniSim advantage on the large dataflow
designs (FlowGNN / INR-Arch / SkyNet), because LightningSim pays for
separate trace, graph-construction and longest-path passes while OmniSim
resolves timing in a single coupled pass.  ``tests/test_paper_tables.py``
checks the two cycle columns against each other in tier-1.
"""

from __future__ import annotations

try:
    from benchmarks.conftest import compiled_design, render_rows
except ImportError:  # executed directly: conftest sits alongside
    from conftest import compiled_design, render_rows
from repro import designs
from repro.analysis import fmt_seconds, geomean
from repro.sim import get_engine

LightningSimulator = get_engine("lightningsim").cls
OmniSimulator = get_engine("omnisim").cls

TABLE5_NAMES = [spec.name for spec in designs.table5_specs()]


def rows() -> list:
    """One dict per Type A design, keyed by column header (``speedup``
    is the raw ratio)."""
    table = []
    for name in TABLE5_NAMES:
        compiled = compiled_design(name)
        lightning = LightningSimulator(compiled).run()
        omni = OmniSimulator(compiled).run()
        table.append({
            "benchmark": name,
            "LSv2 total": fmt_seconds(lightning.execute_seconds),
            "OmniSim MT": fmt_seconds(omni.execute_seconds),
            "OmniSim FE": fmt_seconds(omni.frontend_seconds),
            "OmniSim exec": fmt_seconds(omni.execute_seconds),
            "speedup": lightning.execute_seconds / omni.execute_seconds,
            "LSv2 cycles": lightning.cycles,
            "cycles": omni.cycles,
        })
    return table


def render(table) -> str:
    agree = sum(row["LSv2 cycles"] == row["cycles"] for row in table)
    speedups = [row["speedup"] for row in table]
    return render_rows(
        [{**row, "speedup": f"{row['speedup']:.2f}x"} for row in table],
        f"Table 5: OmniSim vs LightningSimV2 (identical cycle counts "
        f"on {agree}/{len(table)} designs; geomean speedup "
        f"{geomean(speedups):.2f}x)")


def main() -> None:
    print(render(rows()))


if __name__ == "__main__":
    main()
