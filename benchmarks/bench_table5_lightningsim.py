"""Paper Table 5: OmniSim vs LightningSimV2 on the 35-design Type A suite.

For every Type A design both simulators run end-to-end; the table reports
total time, OmniSim's front-end (FE) vs multi-threaded-execution (MT)
split, and the speedup.  The paper's shape to reproduce: parity (within
noise) on small designs, growing OmniSim advantage on the large dataflow
designs (FlowGNN / INR-Arch / SkyNet), because LightningSim pays for
separate trace, graph-construction and longest-path passes while OmniSim
resolves timing in a single coupled pass.
"""

from __future__ import annotations

import pytest

try:
    from benchmarks.conftest import compiled_design
except ImportError:  # executed directly: conftest sits alongside
    from conftest import compiled_design
from repro import designs
from repro.analysis import fmt_seconds, geomean, render_table
from repro.sim import get_engine

LightningSimulator = get_engine("lightningsim").cls
OmniSimulator = get_engine("omnisim").cls

TABLE5_NAMES = [spec.name for spec in designs.table5_specs()]
LARGE = {"flowgnn_gin", "flowgnn_gcn", "flowgnn_gat", "flowgnn_pna",
         "flowgnn_dgn", "inr_arch", "skynet"}


@pytest.mark.parametrize("name", TABLE5_NAMES)
def test_lightningsim(name, benchmark):
    compiled = compiled_design(name)
    benchmark.pedantic(lambda: LightningSimulator(compiled).run(),
                       rounds=1, iterations=1)


@pytest.mark.parametrize("name", TABLE5_NAMES)
def test_omnisim(name, benchmark):
    compiled = compiled_design(name)
    benchmark.pedantic(lambda: OmniSimulator(compiled).run(),
                       rounds=1, iterations=1)


def main() -> None:
    rows = []
    speedups = []
    for name in TABLE5_NAMES:
        compiled = compiled_design(name)
        lightning = LightningSimulator(compiled).run()
        omni = OmniSimulator(compiled).run()
        assert omni.cycles == lightning.cycles, name
        ls_total = lightning.execute_seconds
        omni_total = omni.execute_seconds
        speedup = ls_total / omni_total
        speedups.append(speedup)
        rows.append((
            name,
            fmt_seconds(ls_total),
            fmt_seconds(omni_total),
            fmt_seconds(omni.frontend_seconds),
            fmt_seconds(omni.execute_seconds),
            f"{speedup:.2f}x",
            omni.cycles,
        ))
    print(render_table(
        ["benchmark", "LSv2 total", "OmniSim MT", "OmniSim FE",
         "OmniSim exec", "speedup", "cycles"],
        rows,
        title="Table 5: OmniSim vs LightningSimV2 (identical cycle counts "
              f"on all designs; geomean speedup {geomean(speedups):.2f}x)",
    ))


if __name__ == "__main__":
    main()
