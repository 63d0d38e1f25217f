"""Quickstart: write an HLS design, compile it, simulate it three ways.

Run:  python examples/quickstart.py
"""

from repro import compile_design, hls
from repro.sim import run_engine

N = 256


# 1. Describe hardware tasks in the Python-embedded HLS dialect.  Each
#    @hls.kernel becomes one dataflow module; streams are FIFO channels.

@hls.kernel
def loader(data: hls.BufferIn(hls.i32, N), n: hls.Const(),
           out: hls.StreamOut(hls.i32)):
    for i in range(n):
        hls.pipeline(ii=1)           # issue one element per cycle
        out.write(data[i])


@hls.kernel
def accumulate(inp: hls.StreamIn(hls.i32), n: hls.Const(),
               total: hls.ScalarOut(hls.i64)):
    acc = hls.cast(hls.i64, 0)
    for i in range(n):
        hls.pipeline(ii=1)
        acc += inp.read()
    total.set(acc)


def main() -> None:
    # 2. Wire the design: buffers carry testbench data, streams connect
    #    modules (with hardware FIFO depths), scalars collect outputs.
    design = hls.Design("quickstart")
    fifo = design.stream("fifo", hls.i32, depth=4)
    data = design.buffer("data", hls.i32, N, init=[3 * i for i in range(N)])
    total = design.scalar("total", hls.i64)
    design.add(loader, data=data, n=N, out=fifo)
    design.add(accumulate, inp=fifo, n=N, total=total)

    # 3. Compile: front-end lowering + static scheduling (the "C synthesis"
    #    information every trace-based simulator needs).
    compiled = compile_design(design)
    for module in compiled.modules:
        print(f"module {module.name}: static latency estimate = "
              f"{module.static_latency}")

    # 4. Simulate.  OmniSim gives cycle-accurate performance at near-C
    #    speed; the cycle-stepped co-simulator is the slow oracle; C-sim
    #    checks functionality only.
    expected = sum(3 * i for i in range(N))
    for engine in ("omnisim", "cosim", "lightningsim", "csim"):
        result = run_engine(engine, compiled)
        cycles = result.cycles if result.cycles else "n/a"
        assert result.scalars["total"] == expected
        print(f"{result.simulator:>14}: total={result.scalars['total']}"
              f"  cycles={cycles}"
              f"  wall={result.execute_seconds * 1e3:.1f} ms")

    print("\nAll four engines agree on functionality; the three")
    print("performance-capable engines agree exactly on cycles.")


if __name__ == "__main__":
    main()
