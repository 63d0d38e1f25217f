"""Paper Fig. 8: OmniSim vs co-simulation on the Type B/C designs.

(a) cycle accuracy — our OmniSim matches the cycle-stepped oracle exactly
    (the paper reports <= 0.2% error against XSIM);
(b) runtime — the speedup of event-driven OmniSim over clock-stepped
    co-simulation (paper geomean: 30.7x);
(c) runtime breakdown — front-end compilation vs core execution
    (compilation dominates for small designs, as in the paper).

``tests/test_paper_tables.py`` checks panel (a)'s accuracy column in tier-1.
"""

from __future__ import annotations

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


def _run_or_deadlock(sim_class, compiled):
    try:
        return sim_class(compiled).run()
    except DeadlockError:
        return None


def rows() -> dict:
    """The three panels, each a list of tuples in print order, plus the
    raw co-sim/OmniSim ``speedups`` behind panel (b)'s geomean."""
    accuracy, runtime, breakdown, speedups = [], [], [], []
    for name in FIG8_NAMES + ["deadlock"]:
        compiled = table3_compiled(name)
        cosim = _run_or_deadlock(CoSimulator, compiled)
        omni = _run_or_deadlock(OmniSimulator, compiled)
        if cosim is None or omni is None:
            accuracy.append((
                name,
                "deadlock" if cosim is None else cosim.cycles,
                "deadlock" if omni is None else omni.cycles,
                ("detected by both" if cosim is None and omni is None
                 else "detected by one!"),
            ))
            continue
        acc = AccuracyRow(name, cosim.cycles, omni.cycles)
        accuracy.append((name, cosim.cycles, omni.cycles, acc.describe()))
        speedup = cosim.execute_seconds / omni.execute_seconds
        speedups.append(speedup)
        runtime.append((
            name, fmt_seconds(cosim.execute_seconds),
            fmt_seconds(omni.execute_seconds), f"{speedup:.1f}x",
        ))
        breakdown.append((
            name, fmt_seconds(omni.frontend_seconds),
            fmt_seconds(omni.execute_seconds),
            f"{omni.frontend_seconds / omni.total_seconds:.0%}",
        ))
    return {"accuracy": accuracy, "runtime": runtime,
            "breakdown": breakdown, "speedups": speedups}


def render(data) -> str:
    return "\n\n".join([
        render_table(
            ["design", "co-sim cycles", "OmniSim cycles", "accuracy"],
            data["accuracy"],
            title="Fig 8(a): cycle accuracy vs co-simulation",
        ),
        render_table(
            ["design", "co-sim time", "OmniSim time", "speedup"],
            data["runtime"],
            title=f"Fig 8(b): runtime vs co-simulation "
                  f"(geomean speedup {geomean(data['speedups']):.1f}x)",
        ),
        render_table(
            ["design", "front-end compile", "core execution", "FE share"],
            data["breakdown"], title="Fig 8(c): OmniSim runtime breakdown",
        ),
    ])


def main() -> None:
    print(render(rows()))


if __name__ == "__main__":
    main()
