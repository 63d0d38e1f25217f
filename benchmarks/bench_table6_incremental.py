"""Paper Table 6: incremental re-simulation of fig4_ex5 under new depths.

The two rows to reproduce:

* growing the *uncongested* FIFO (fifo2, the slow processor's queue,
  which never fills in the base run) leaves every query outcome intact:
  incremental re-simulation succeeds in micro/milliseconds;
* growing the *hot* FIFO (fifo1) would let previously failed NB writes
  succeed: constraints are violated and a full re-simulation is required
  (still cheaper than recompiling: the front-end result is reused).

The ``(2, 100)`` row's check time and speedup are a steady replay's
(the median of 20 at those depths); the first replay of the capture,
which also builds the static edges and the iteration view, and a replay
forced through the relaxation sweep are printed beside it.
``tests/test_paper_tables.py`` checks the ``incr. OK?`` and ``cycles``
columns and the depth sweep in tier-1.
"""

from __future__ import annotations

import statistics
import time

try:
    from benchmarks.conftest import compiled_design, render_rows
except ImportError:  # executed directly: conftest sits alongside
    from conftest import compiled_design, render_rows
from repro.analysis import fmt_seconds
from repro.errors import ConstraintViolation
from repro.sim import get_engine

OmniSimulator = get_engine("omnisim").cls

EX5_N = 800
SWEEP_DEPTHS = range(3, 35)
#: replays of (2, 100) after the first two; the steady cost is their median
STEADY_REPLAYS = 20


def base_result():
    compiled = compiled_design("fig4_ex5", n=EX5_N)
    return compiled, OmniSimulator(compiled).run()


def rows() -> dict:
    """``table``: the three Table 6 rows keyed by column header;
    ``base``: the recorded run; ``sweep_cycles`` / ``sweep_seconds``:
    one incremental re-simulation per ``SWEEP_DEPTHS`` of fifo2 (which
    never congests, so each must retime to the recorded latency)."""
    compiled, result = base_result()
    table = [{
        "run": "initial run", "depths": "(2, 2)", "incr. check": "-",
        "incr. OK?": "-",
        "FE": fmt_seconds(compiled.frontend_seconds),
        "MT": fmt_seconds(result.execute_seconds),
        "total": fmt_seconds(compiled.frontend_seconds
                             + result.execute_seconds),
        "speedup vs full": "-", "cycles": result.cycles,
    }]

    # The first replay of a capture also builds its static edges and
    # the iteration view, and the second the replay anchor; a steady one
    # is what a later depth change costs.  The sweep's cost is what a
    # replay the certificate cannot serve pays.
    art = result.trace
    incremental = art.resimulate({"fifo2": 100})
    art.resimulate({"fifo2": 100})
    steady = statistics.median(art.resimulate({"fifo2": 100}).seconds
                               for _ in range(STEADY_REPLAYS))
    swept = statistics.median(
        art._resimulate({"fifo2": 100}, certify=False).seconds
        for _ in range(5))
    speedup = result.execute_seconds / steady
    table.append({
        "run": "incremental", "depths": "(2, 100)",
        "incr. check": fmt_seconds(steady), "incr. OK?": "yes",
        "FE": "-", "MT": "-", "total": fmt_seconds(steady),
        "speedup vs full": f"{speedup:.0f}x", "cycles": incremental.cycles,
    })

    t0 = time.perf_counter()
    violated = False
    try:
        result.trace.resimulate({"fifo1": 100})
    except ConstraintViolation:
        violated = True
    check_seconds = time.perf_counter() - t0
    fresh = OmniSimulator(compiled, depths={"fifo1": 100}).run()
    total = check_seconds + fresh.execute_seconds
    speedup_full = (compiled.frontend_seconds + fresh.execute_seconds) \
        / total
    table.append({
        "run": "non-incremental", "depths": "(100, 2)",
        "incr. check": fmt_seconds(check_seconds),
        "incr. OK?": "no (violated)" if violated else "yes!", "FE": "-",
        "MT": fmt_seconds(fresh.execute_seconds),
        "total": fmt_seconds(total),
        "speedup vs full": f"{speedup_full:.2f}x", "cycles": fresh.cycles,
    })

    t0 = time.perf_counter()
    sweep_cycles = [result.trace.resimulate({"fifo2": depth}).cycles
                    for depth in SWEEP_DEPTHS]
    return {"table": table, "base": result, "sweep_cycles": sweep_cycles,
            "sweep_seconds": time.perf_counter() - t0,
            "first_seconds": incremental.seconds, "steady_seconds": steady,
            "swept_seconds": swept}


def render(data) -> str:
    table, result = data["table"], data["base"]
    configs = len(data["sweep_cycles"])
    return "\n".join([
        render_rows(table, f"Table 6: fig4_ex5 (n={EX5_N}) under "
                           f"different FIFO depths"),
        f"\nbase run: P1={result.scalars['processed_by_P1']}, "
        f"P2={result.scalars['processed_by_P2']}, "
        f"cycles={result.cycles}, "
        f"constraints recorded={len(result.trace.c_node)}",
        f"(2, 100) replay: first {fmt_seconds(data['first_seconds'])} "
        f"(static edges, view, sweep), steady "
        f"{fmt_seconds(data['steady_seconds'])} (median of "
        f"{STEADY_REPLAYS}, certified), by the sweep "
        f"{fmt_seconds(data['swept_seconds'])}",
        f"\ndepth sweep over fifo2={SWEEP_DEPTHS[0]}..{SWEEP_DEPTHS[-1]} "
        f"({configs} configurations):",
        f"  incremental re-simulations : "
        f"{configs / data['sweep_seconds']:,.0f} configs/s "
        f"({1 / data['sweep_seconds']:,.1f} full sweeps/s)",
    ])


def main() -> None:
    print(render(rows()))


if __name__ == "__main__":
    main()
