"""Ablations of OmniSim's design choices (paper sections 6.2, 7.3).

* **executor backend** — coroutine vs real OS threads: identical results,
  different cost (the paper's architecture runs on threads; the timing
  logic is scheduling-independent either way);
* **dead FIFO-check elimination** (7.3.2) — compiling with the pass off
  forces the engine to resolve queries nobody reads;
* **incremental vs full** re-simulation across a depth sweep (7.2).
"""

from __future__ import annotations

import pytest

from repro import compile_design, designs
from repro.analysis import fmt_seconds, render_table
from repro.frontend import compiler as frontend_compiler
from repro.sim import get_engine, resimulate

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


def fresh_compiled(name: str, optimize: bool = True, **params):
    """Compile without the kernel cache so front-end flags apply."""
    spec = designs.get(name)
    design = spec.make(**params)
    previous = frontend_compiler.ENABLE_DEAD_CHECK_ELIMINATION
    frontend_compiler.ENABLE_DEAD_CHECK_ELIMINATION = optimize
    try:
        for instance in design.instances:
            instance.kernel._compiled.clear()
        compiled = compile_design(design)
    finally:
        frontend_compiler.ENABLE_DEAD_CHECK_ELIMINATION = previous
        for instance in design.instances:
            instance.kernel._compiled.clear()
    return compiled


def test_executor_backends_agree(benchmark):
    compiled = compile_design(designs.get("fig2_timer").make(n=300))
    coroutine = OmniSimulator(compiled).run()
    threaded = benchmark.pedantic(
        lambda: ThreadedOmniSimulator(compiled).run(),
        rounds=1, iterations=1,
    )
    assert threaded.cycles == coroutine.cycles
    assert threaded.scalars == coroutine.scalars


def test_incremental_sweep(benchmark):
    compiled = compile_design(designs.get("fig4_ex1").make(n=800))
    result = OmniSimulator(compiled).run()

    def sweep():
        return [resimulate(result, {"fifo": d}).cycles
                for d in (1, 2, 4, 8, 16, 32)]

    cycles = benchmark.pedantic(sweep, rounds=1, iterations=1)
    assert sorted(cycles, reverse=True) == cycles  # deeper is never slower


def main() -> None:
    rows = []

    # Executor backend ablation.
    compiled = compile_design(designs.get("fig2_timer").make(n=300))
    coroutine = OmniSimulator(compiled).run()
    threaded = ThreadedOmniSimulator(compiled).run()
    rows.append(("executor: coroutines (default)",
                 fmt_seconds(coroutine.execute_seconds),
                 f"cycles={coroutine.cycles}"))
    rows.append(("executor: OS threads (paper arch)",
                 fmt_seconds(threaded.execute_seconds),
                 f"cycles={threaded.cycles} (identical)"))

    # Dead-check elimination ablation: a consumer that calls empty() and
    # discards the result every iteration (a common debugging left-over)
    # creates pure query traffic when the pass is off.
    with_pass = _dead_check_design(optimize=True)
    without_pass = _dead_check_design(optimize=False)
    result_on = OmniSimulator(with_pass).run()
    result_off = OmniSimulator(without_pass).run()
    rows.append(("dead-check elimination: on",
                 fmt_seconds(result_on.execute_seconds),
                 f"queries={result_on.stats.queries}"))
    rows.append(("dead-check elimination: off",
                 fmt_seconds(result_off.execute_seconds),
                 f"queries={result_off.stats.queries}"))

    # Incremental vs full sweep.
    compiled = compile_design(designs.get("fig4_ex1").make(n=800))
    base = OmniSimulator(compiled).run()
    import time

    t0 = time.perf_counter()
    for depth in (1, 2, 4, 8, 16, 32):
        resimulate(base, {"fifo": depth})
    incremental_time = time.perf_counter() - t0
    t0 = time.perf_counter()
    for depth in (1, 2, 4, 8, 16, 32):
        OmniSimulator(compiled, depths={"fifo": depth}).run()
    full_time = time.perf_counter() - t0
    rows.append(("6-point depth sweep: incremental",
                 fmt_seconds(incremental_time),
                 f"{full_time / incremental_time:.0f}x faster"))
    rows.append(("6-point depth sweep: full re-sim",
                 fmt_seconds(full_time), "-"))

    print(render_table(["configuration", "time", "notes"], rows,
                       title="Ablations of OmniSim design choices"))


if __name__ == "__main__":
    main()
