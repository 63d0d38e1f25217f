"""Paper Table 5: OmniSim vs LightningSimV2 on the 35-design Type A suite.

For every Type A design both simulators run end-to-end; the table reports
total time, OmniSim's front-end (FE) vs multi-threaded-execution (MT)
split, and the speedup.  The paper's shape to reproduce: parity (within
noise) on small designs, growing OmniSim advantage on the large dataflow
designs (FlowGNN / INR-Arch / SkyNet), because LightningSim pays for
separate trace, graph-construction and longest-path passes while OmniSim
resolves timing in a single coupled pass.  ``tests/test_paper_tables.py``
checks the two cycle columns against each other in tier-1.

Timing: each engine makes one warm-up call per design (a first call
pays one-time setup the other engine would then reuse), then
:data:`CALLS` timed calls, the two engines alternating which runs first
(per design and per round).  A time column is the median of those calls
and its IQR as a share of the median; ``speedup`` is the ratio of the
medians.
"""

from __future__ import annotations

import statistics

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

#: timed calls per engine and design, after one warm-up call each
CALLS = 5


def _median_iqr(seconds: list) -> tuple:
    """``(median, IQR / median)`` of one engine's timed calls."""
    q1, median, q3 = statistics.quantiles(seconds, n=4, method="inclusive")
    return median, (q3 - q1) / median


def _cell(seconds: list) -> str:
    median, spread = _median_iqr(seconds)
    return f"{fmt_seconds(median)} ±{spread:.0%}"


def rows() -> list:
    """One dict per Type A design, keyed by column header (``speedup``
    is the raw ratio of the median times)."""
    table = []
    for index, name in enumerate(TABLE5_NAMES):
        compiled = compiled_design(name)
        engines = [LightningSimulator, OmniSimulator]
        seconds = {cls: [] for cls in engines}
        last = {}
        for call in range(CALLS + 1):       # call 0 is the warm-up
            order = engines if (index + call) % 2 else engines[::-1]
            for cls in order:
                last[cls] = cls(compiled).run()
                if call:
                    seconds[cls].append(last[cls].execute_seconds)
        lightning, omni = last[LightningSimulator], last[OmniSimulator]
        table.append({
            "benchmark": name,
            "LSv2 total": _cell(seconds[LightningSimulator]),
            "OmniSim FE": fmt_seconds(omni.frontend_seconds),
            "OmniSim MT": _cell(seconds[OmniSimulator]),
            "speedup": (_median_iqr(seconds[LightningSimulator])[0]
                        / _median_iqr(seconds[OmniSimulator])[0]),
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
        f"{geomean(speedups):.2f}x; median of {CALLS} warm calls ±IQR)")


def main() -> None:
    print(render(rows()))


if __name__ == "__main__":
    main()
