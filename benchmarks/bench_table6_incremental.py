"""Paper Table 6: incremental re-simulation of fig4_ex5 under new depths.

The two rows to reproduce:

* growing the *uncongested* FIFO (fifo2, the slow processor's queue,
  which never fills in the base run) leaves every query outcome intact:
  incremental re-simulation succeeds in micro/milliseconds;
* growing the *hot* FIFO (fifo1) would let previously failed NB writes
  succeed: constraints are violated and a full re-simulation is required
  (still cheaper than recompiling: the front-end result is reused).
"""

from __future__ import annotations

import pytest

try:
    from benchmarks.conftest import compiled_design
except ImportError:  # executed directly: conftest sits alongside
    from conftest import compiled_design
from repro.analysis import fmt_seconds, render_table
from repro.errors import ConstraintViolation
from repro.sim import get_engine, resimulate

OmniSimulator = get_engine("omnisim").cls

EX5_N = 800


def base_result():
    compiled = compiled_design("fig4_ex5", n=EX5_N)
    return compiled, OmniSimulator(compiled).run()


def test_incremental_resimulation(benchmark):
    _compiled, result = base_result()
    outcome = benchmark(lambda: resimulate(result, {"fifo2": 100}))
    assert outcome.cycles > 0


def test_depth_sweep_cached_edges(benchmark):
    """A whole depth sweep per benchmark round: the static-edge cache
    makes each configuration pay only the WAR overlay + relaxation."""
    _compiled, result = base_result()
    depths = list(range(3, 35))

    def sweep():
        return [resimulate(result, {"fifo2": d}).cycles for d in depths]

    cycles = benchmark(sweep)
    # fifo2 never congests, so every configuration must retime to
    # exactly the recorded run's latency — a cache regression that
    # mis-times any node breaks the equality.
    assert cycles == [result.cycles] * len(depths)


def test_full_resimulation_after_violation(benchmark):
    compiled, result = base_result()
    with pytest.raises(ConstraintViolation):
        resimulate(result, {"fifo1": 100})
    fresh = benchmark.pedantic(
        lambda: OmniSimulator(compiled, depths={"fifo1": 100}).run(),
        rounds=1, iterations=1,
    )
    assert fresh.cycles > 0


def main() -> None:
    compiled, result = base_result()
    rows = [(
        "initial run", "(2, 2)", "-", "-",
        fmt_seconds(compiled.frontend_seconds),
        fmt_seconds(result.execute_seconds),
        fmt_seconds(compiled.frontend_seconds + result.execute_seconds),
        "-",
    )]

    incremental = resimulate(result, {"fifo2": 100})
    speedup = result.execute_seconds / incremental.seconds
    rows.append((
        "incremental", "(2, 100)", fmt_seconds(incremental.seconds),
        "yes", "-", "-", fmt_seconds(incremental.seconds),
        f"{speedup:.0f}x",
    ))

    import time

    t0 = time.perf_counter()
    violated = False
    try:
        resimulate(result, {"fifo1": 100})
    except ConstraintViolation:
        violated = True
    check_seconds = time.perf_counter() - t0
    fresh = OmniSimulator(compiled, depths={"fifo1": 100}).run()
    total = check_seconds + fresh.execute_seconds
    speedup_full = (compiled.frontend_seconds + fresh.execute_seconds) \
        / total
    rows.append((
        "non-incremental", "(100, 2)", fmt_seconds(check_seconds),
        "no (violated)" if violated else "yes!", "-",
        fmt_seconds(fresh.execute_seconds), fmt_seconds(total),
        f"{speedup_full:.2f}x",
    ))
    print(render_table(
        ["run", "depths", "incr. check", "incr. OK?", "FE", "MT",
         "total", "speedup vs full"],
        rows,
        title=f"Table 6: fig4_ex5 (n={EX5_N}) under different FIFO depths",
    ))
    print(f"\nbase run: P1={result.scalars['processed_by_P1']}, "
          f"P2={result.scalars['processed_by_P2']}, "
          f"cycles={result.cycles}, "
          f"constraints recorded={len(result.trace.c_node)}")

    from repro.bench import bench_retime

    sweep = bench_retime("fig4_ex5", {"n": EX5_N}, "fifo2", range(3, 35))
    print(f"\ndepth sweep over fifo2=3..34 "
          f"({sweep['configs']} configurations):")
    print(f"  incremental re-simulations : "
          f"{sweep['resimulations_per_sec']:,.0f} configs/s "
          f"({sweep['sweeps_per_sec']:,.1f} full sweeps/s)")


if __name__ == "__main__":
    main()
