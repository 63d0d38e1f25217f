"""Congestion-aware packet router: dynamic dispatch on FIFO backpressure.

The paper's other motivating example (sections 1 and 2.2.1): a router
sends packets to a fast path, overflowing to a slow path only when the
fast path's queue is full — behaviour that *cannot* be validated by C
simulation because the routing decision depends on exact hardware timing
of every queue.  This is fig4_ex5's pattern with an explorable twist: we
sweep the fast queue's depth and watch traffic shift between paths.

Run:  python examples/network_router.py
"""

from repro import compile_design, hls
from repro.sim import run_engine

PACKETS = 500


@hls.kernel
def router(packets: hls.BufferIn(hls.i32, PACKETS), n: hls.Const(),
           fast: hls.StreamOut(hls.i32), slow: hls.StreamOut(hls.i32),
           via_fast: hls.ScalarOut(hls.i32),
           via_slow: hls.ScalarOut(hls.i32)):
    i = 0
    fast_count = 0
    slow_count = 0
    while i < n:
        if fast.write_nb(packets[i]):
            fast_count += 1
            i += 1
        elif slow.write_nb(packets[i]):
            slow_count += 1
            i += 1
    fast.write(0 - 1)
    slow.write(0 - 1)
    via_fast.set(fast_count)
    via_slow.set(slow_count)


@hls.kernel
def path(inp: hls.StreamIn(hls.i32), ii: hls.Const(),
         delivered: hls.ScalarOut(hls.i32)):
    count = 0
    while True:
        hls.pipeline(ii=6)
        packet = inp.read()
        if packet < 0:
            break
        count += 1
    delivered.set(count)


@hls.kernel
def slow_path(inp: hls.StreamIn(hls.i32),
              delivered: hls.ScalarOut(hls.i32)):
    count = 0
    while True:
        hls.pipeline(ii=12)
        packet = inp.read()
        if packet < 0:
            break
        count += 1
    delivered.set(count)


def build(fast_depth: int, slow_depth: int = 2) -> hls.Design:
    design = hls.Design("network_router")
    fast = design.stream("fast", hls.i32, depth=fast_depth)
    slow = design.stream("slow", hls.i32, depth=slow_depth)
    packets = design.buffer("packets", hls.i32, PACKETS,
                            init=[(i * 17) % 1000 for i in range(PACKETS)])
    via_fast = design.scalar("via_fast", hls.i32)
    via_slow = design.scalar("via_slow", hls.i32)
    d_fast = design.scalar("delivered_fast", hls.i32)
    d_slow = design.scalar("delivered_slow", hls.i32)
    design.add(router, packets=packets, n=PACKETS, fast=fast, slow=slow,
               via_fast=via_fast, via_slow=via_slow)
    design.add(path, instance_name="fast_path", inp=fast, ii=6,
               delivered=d_fast)
    design.add(slow_path, instance_name="slow_path", inp=slow,
               delivered=d_slow)
    return design


def main() -> None:
    compiled = compile_design(build(fast_depth=2))
    csim = run_engine("csim", compiled)
    print("C-sim thinks every packet takes the fast path "
          f"(via_fast={csim.scalars['via_fast']}, "
          f"via_slow={csim.scalars['via_slow']}) - write_nb never fails "
          "with infinite queues.\n")

    print("OmniSim: routing split vs fast-queue depth")
    print(f"{'depth':>6} {'via fast':>9} {'via slow':>9} {'cycles':>8} "
          f"{'throughput':>11}")
    for depth in (1, 2, 4, 8, 16, 32, 64):
        result = run_engine("omnisim", compile_design(build(depth)))
        throughput = PACKETS / result.cycles
        print(f"{depth:>6} {result.scalars['via_fast']:>9} "
              f"{result.scalars['via_slow']:>9} {result.cycles:>8} "
              f"{throughput:>10.3f}p/c")
        total = result.scalars["via_fast"] + result.scalars["via_slow"]
        assert total == PACKETS
        assert result.scalars["delivered_fast"] == result.scalars["via_fast"]
        assert result.scalars["delivered_slow"] == result.scalars["via_slow"]

    print("\nDeeper fast queues absorb bursts, starving the slow path;")
    print("past the service-rate crossover the split stops improving -")
    print("exactly the design-space exploration co-simulation is too")
    print("slow to support interactively.")


if __name__ == "__main__":
    main()
