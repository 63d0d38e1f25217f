"""The paper's Fig. 2 demonstration: hardware timing vs thread scheduling.

A timer module counts cycles until a compute pipeline finishes.  The true
hardware count is ~3 cycles per element (the pipeline's II).  This script
runs the design under:

* naive multi-threading (no orchestration): the count reflects whatever
  the OS scheduler did — meaningless and run-to-run unstable;
* C simulation: modules run sequentially, the timer sees the done signal
  immediately and counts 0;
* OmniSim with real OS threads: the orchestrated FIFO tables make the
  result exact and deterministic regardless of scheduling;
* OmniSim (coroutines) and cycle-stepped co-simulation: same exact count.

Run:  python examples/timer_demo.py
"""

from repro import compile_design, designs
from repro.sim import run_engine

N = 500


def main() -> None:
    compiled = compile_design(designs.get("fig2_timer").make(n=N))
    print(f"fig2_timer with n={N}: the compute pipeline runs at II=3, so "
          f"the true count is ~{3 * N} cycles.\n")

    naive_counts = []
    for attempt in range(3):
        naive = run_engine("naive", compiled, poll_yield=1e-6)
        naive_counts.append(naive.scalars["cycles"])
    print(f"naive threads   : counts across 3 runs = {naive_counts}")
    print("                  (OS-scheduling noise, not hardware cycles)")

    csim = run_engine("csim", compiled)
    print(f"C simulation    : count = {csim.scalars['cycles']} "
          "(sequential execution: the timer never waits)")

    cosim = run_engine("cosim", compiled)
    print(f"co-simulation   : count = {cosim.scalars['cycles']} "
          f"(oracle, {cosim.execute_seconds * 1e3:.0f} ms)")

    omni = run_engine("omnisim", compiled)
    print(f"OmniSim         : count = {omni.scalars['cycles']} "
          f"({omni.execute_seconds * 1e3:.0f} ms)")

    threaded = run_engine("omnisim-threads", compiled)
    print(f"OmniSim/threads : count = {threaded.scalars['cycles']} "
          "(real OS threads + orchestration: still exact)")

    assert omni.scalars["cycles"] == cosim.scalars["cycles"]
    assert threaded.scalars["cycles"] == omni.scalars["cycles"]
    assert csim.scalars["cycles"] == 0
    print("\nOrchestrated simulation is scheduling-independent; the naive")
    print("and C-level results are the two failure modes of Fig. 2.")


if __name__ == "__main__":
    main()
