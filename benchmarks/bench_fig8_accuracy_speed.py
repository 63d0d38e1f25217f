"""Paper Fig. 8: OmniSim vs co-simulation on the Type B/C designs.

(a) cycle accuracy — our OmniSim matches the cycle-stepped oracle exactly
    (the paper reports <= 0.2% error against XSIM);
(b) runtime — the speedup of event-driven OmniSim over clock-stepped
    co-simulation (paper geomean: 30.7x);
(c) runtime breakdown — front-end compilation vs core execution
    (compilation dominates for small designs, as in the paper).
"""

from __future__ import annotations

import pytest

try:
    from benchmarks.conftest import table3_compiled
except ImportError:  # executed directly: conftest sits alongside
    from conftest import table3_compiled
from repro import designs
from repro.analysis import AccuracyRow, fmt_seconds, geomean, render_table
from repro.errors import DeadlockError
from repro.sim import get_engine

CoSimulator = get_engine("cosim").cls
OmniSimulator = get_engine("omnisim").cls

FIG8_NAMES = [spec.name for spec in designs.table4_specs()
              if spec.name != "deadlock"]


@pytest.mark.parametrize("name", FIG8_NAMES)
def test_cosim_runtime(name, benchmark):
    compiled = table3_compiled(name)
    benchmark.pedantic(lambda: CoSimulator(compiled).run(),
                       rounds=1, iterations=1)


@pytest.mark.parametrize("name", FIG8_NAMES)
def test_omnisim_runtime(name, benchmark):
    compiled = table3_compiled(name)
    benchmark.pedantic(lambda: OmniSimulator(compiled).run(),
                       rounds=1, iterations=1)


def main() -> None:
    accuracy_rows = []
    runtime_rows = []
    breakdown_rows = []
    speedups = []
    for name in FIG8_NAMES + ["deadlock"]:
        compiled = table3_compiled(name)
        try:
            cosim = CoSimulator(compiled).run()
            omni = OmniSimulator(compiled).run()
        except DeadlockError:
            accuracy_rows.append((name, "deadlock", "deadlock",
                                  "detected by both"))
            continue
        acc = AccuracyRow(name, cosim.cycles, omni.cycles)
        accuracy_rows.append((name, cosim.cycles, omni.cycles,
                              acc.describe()))
        speedup = cosim.execute_seconds / omni.execute_seconds
        speedups.append(speedup)
        runtime_rows.append((
            name, fmt_seconds(cosim.execute_seconds),
            fmt_seconds(omni.execute_seconds), f"{speedup:.1f}x",
        ))
        breakdown_rows.append((
            name, fmt_seconds(omni.frontend_seconds),
            fmt_seconds(omni.execute_seconds),
            f"{omni.frontend_seconds / omni.total_seconds:.0%}",
        ))
    print(render_table(
        ["design", "co-sim cycles", "OmniSim cycles", "accuracy"],
        accuracy_rows, title="Fig 8(a): cycle accuracy vs co-simulation",
    ))
    print()
    print(render_table(
        ["design", "co-sim time", "OmniSim time", "speedup"],
        runtime_rows,
        title=f"Fig 8(b): runtime vs co-simulation "
              f"(geomean speedup {geomean(speedups):.1f}x)",
    ))
    print()
    print(render_table(
        ["design", "front-end compile", "core execution", "FE share"],
        breakdown_rows, title="Fig 8(c): OmniSim runtime breakdown",
    ))


if __name__ == "__main__":
    main()
