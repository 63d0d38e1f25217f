"""Depth-space exploration at sweep scale (paper section 7.2, Table 6).

LightningSimV2 frames FIFO-depth design-space exploration as the killer
app of graph-compiled incremental simulation; this harness measures our
``repro.dse`` engine doing exactly that:

* a Type A sweep (``vector_add_stream``) where every configuration is
  served by the incremental path;
* a Type C sweep (``fig4_ex5``) whose hot FIFO flips recorded query
  outcomes, exercising the full-simulation fallback + graph re-capture.

Run ``python benchmarks/bench_dse_sweep.py`` for a printed report, or via
pytest-benchmark for timed rounds.
"""

from __future__ import annotations

from repro.analysis import render_table
from repro.dse import explore
from repro.sim import get_engine

OmniSimulator = get_engine("omnisim").cls

VADD_SPECS = ["sc=1:16"]
EX5_PARAMS = {"n": 200}
EX5_SPECS = ["fifo1=1:6", "fifo2=2,8"]


def test_typea_sweep_all_incremental(benchmark):
    sweep = benchmark(lambda: explore("vector_add_stream", VADD_SPECS))
    assert sweep.incremental_fraction == 1.0
    assert sweep.pareto()


def test_typec_sweep_with_fallback(benchmark):
    sweep = benchmark(
        lambda: explore("fig4_ex5", EX5_SPECS, params=EX5_PARAMS)
    )
    assert sweep.full_count > 0          # the hot FIFO forces fallbacks
    assert sweep.incremental_count > 0   # re-capture restores the fast path
    assert sweep.pareto()


def test_sweep_matches_fresh_runs(benchmark):
    """Differential guard: every swept point equals a from-scratch run."""
    sweep = benchmark.pedantic(
        lambda: explore("fig4_ex5", EX5_SPECS, params=EX5_PARAMS),
        rounds=1, iterations=1,
    )
    from repro import compile_design, designs

    compiled = compile_design(designs.get("fig4_ex5").make(**EX5_PARAMS))
    for point in sweep.points:
        if not point.ok:
            continue
        fresh = OmniSimulator(compiled, depths=point.depths).run()
        assert fresh.cycles == point.cycles, point.depths


def main() -> None:
    for name, params, specs in [
        ("vector_add_stream", {}, VADD_SPECS),
        ("fig4_ex5", EX5_PARAMS, EX5_SPECS),
    ]:
        sweep = explore(name, specs, params=params)
        rows = [
            (",".join(f"{k}={v}" for k, v in sorted(p.depths.items())),
             p.cycles if p.ok else "deadlock", p.buffer_bits, p.source)
            for p in sweep.pareto()
        ]
        print(render_table(
            ["depths", "cycles", "buffer bits", "via"], rows,
            title=(f"{name}: {sweep.evaluated} configurations, "
                   f"{100 * sweep.incremental_fraction:.0f}% incremental, "
                   f"{sweep.configs_per_sec:,.1f} configs/s"),
        ))
        print()


if __name__ == "__main__":
    main()
