"""Ablations of OmniSim's design choices (paper sections 6.2, 7.3).

* **executor backend** — coroutine vs real OS threads: identical results,
  different cost (the paper's architecture runs on threads; the timing
  logic is scheduling-independent either way);
* **dead FIFO-check elimination** (7.3.2) — compiling with the pass off
  forces the engine to resolve queries nobody reads;
* **incremental vs full** re-simulation across a depth sweep (7.2).

``tests/test_paper_tables.py`` checks each ablation's invariant (same
cycles, fewer queries, incremental == full) in tier-1.
"""

from __future__ import annotations

import time

from repro import compile_design, designs
from repro.analysis import fmt_seconds, render_table
from repro.frontend import compiler as frontend_compiler
from repro.sim import get_engine

OmniSimulator = get_engine("omnisim").cls
ThreadedOmniSimulator = get_engine("omnisim-threads").cls


def _dead_check_design(optimize: bool):
    """producer -> consumer where the consumer probes empty() and ignores
    the answer before every blocking read."""
    from repro import hls
    from repro.hls.kernel import kernel_from_source

    producer = kernel_from_source("""
def p(n: hls.Const(), out: hls.StreamOut(hls.i32)):
    for i in range(n):
        hls.pipeline(ii=1)
        out.write(i)
""")
    consumer = kernel_from_source("""
def c(inp: hls.StreamIn(hls.i32), n: hls.Const(),
      total: hls.ScalarOut(hls.i32)):
    acc = 0
    for i in range(n):
        inp.empty()          # result discarded
        acc += inp.read()
    total.set(acc)
""")
    d = hls.Design("dead_check_ablation")
    s = d.stream("s", hls.i32, depth=2)
    total = d.scalar("total", hls.i32)
    d.add(producer, n=600, out=s)
    d.add(consumer, inp=s, n=600, total=total)
    previous = frontend_compiler.ENABLE_DEAD_CHECK_ELIMINATION
    frontend_compiler.ENABLE_DEAD_CHECK_ELIMINATION = optimize
    try:
        return compile_design(d)
    finally:
        frontend_compiler.ENABLE_DEAD_CHECK_ELIMINATION = previous


SWEEP_DEPTHS = (1, 2, 4, 8, 16, 32)


def rows() -> dict:
    """The raw outcome of each ablation: the two executor back ends'
    results, the two dead-check results, and the depth sweep's cycles
    and wall time down the incremental and the full path."""
    compiled = compile_design(designs.get("fig2_timer").make(n=300))
    data = {
        "coroutine": OmniSimulator(compiled).run(),
        "threaded": ThreadedOmniSimulator(compiled).run(),
        # A consumer that calls empty() and discards the result every
        # iteration (a common debugging left-over) creates pure query
        # traffic when the pass is off.
        "dead_check_on": OmniSimulator(_dead_check_design(True)).run(),
        "dead_check_off": OmniSimulator(_dead_check_design(False)).run(),
    }

    compiled = compile_design(designs.get("fig4_ex1").make(n=800))
    base = OmniSimulator(compiled).run()
    t0 = time.perf_counter()
    data["incremental_cycles"] = [
        base.trace.resimulate({"fifo": depth}).cycles
        for depth in SWEEP_DEPTHS]
    data["incremental_seconds"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    data["full_cycles"] = [
        OmniSimulator(compiled, depths={"fifo": depth}).run().cycles
        for depth in SWEEP_DEPTHS]
    data["full_seconds"] = time.perf_counter() - t0
    return data


def render(data) -> str:
    coroutine, threaded = data["coroutine"], data["threaded"]
    on, off = data["dead_check_on"], data["dead_check_off"]
    same = "identical" if threaded.cycles == coroutine.cycles else "DIFFER"
    points = len(SWEEP_DEPTHS)
    speedup = data["full_seconds"] / data["incremental_seconds"]
    return render_table(["configuration", "time", "notes"], [
        ("executor: coroutines (default)",
         fmt_seconds(coroutine.execute_seconds),
         f"cycles={coroutine.cycles}"),
        ("executor: OS threads (paper arch)",
         fmt_seconds(threaded.execute_seconds),
         f"cycles={threaded.cycles} ({same})"),
        ("dead-check elimination: on", fmt_seconds(on.execute_seconds),
         f"queries={on.stats.queries}"),
        ("dead-check elimination: off", fmt_seconds(off.execute_seconds),
         f"queries={off.stats.queries}"),
        (f"{points}-point depth sweep: incremental",
         fmt_seconds(data["incremental_seconds"]), f"{speedup:.0f}x faster"),
        (f"{points}-point depth sweep: full re-sim",
         fmt_seconds(data["full_seconds"]), "-"),
    ], title="Ablations of OmniSim design choices")


def main() -> None:
    print(render(rows()))


if __name__ == "__main__":
    main()
