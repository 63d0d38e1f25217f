"""The paper's tables, built by the scripts that print them.

Each ``benchmarks/bench_*.py`` is ``rows()`` (run the simulators) +
``render(data)``; this runs both and asserts the fidelity column —
agreement with co-simulation / LightningSim / a full run.  Timing
columns are rendered, never asserted.
"""

from __future__ import annotations

import importlib

import pytest

from repro import designs


def check_table3(table):
    assert len(table) == 11
    for row in table:
        assert row["match"] == "YES", row
        # every Table 3 design is Type B/C: C-sim must get it wrong
        assert row["C-sim"] != row["Co-sim"], row


def check_table4(table):
    assert ([row["design"] for row in table]
            == [spec.name for spec in designs.table4_specs()])
    order = {"A": 0, "B": 1, "C": 2}
    for row in table:
        spec = designs.get(row["design"])
        assert row["type (paper)"] == spec.design_type
        assert row["B/NB"] == ("NB" if "NB" in spec.blocking else "B"), row
        # The conservative classifier may promote B -> C (retry idioms);
        # it must never demote below the registry label.
        assert order[row["type (auto)"]] >= order[spec.design_type], row


def check_table5(table):
    assert len(table) == 35
    for row in table:
        assert row["cycles"] == row["LSv2 cycles"] > 0, row


def check_table6(data):
    initial, incremental, violated = data["table"]
    base = data["base"].cycles
    assert initial["cycles"] == base > 0
    assert incremental["depths"] == "(2, 100)"
    assert incremental["incr. OK?"] == "yes"
    assert incremental["cycles"] == base
    assert violated["depths"] == "(100, 2)"
    assert violated["incr. OK?"] == "no (violated)"
    assert violated["cycles"] > 0
    assert data["sweep_cycles"] == [base] * 32


def check_fig8(data):
    accuracy = {name: verdict for name, *_cycles, verdict
                in data["accuracy"]}
    assert len(accuracy) == 11
    assert accuracy.pop("deadlock") == "detected by both"
    assert set(accuracy.values()) == {"Exact"}, accuracy
    assert len(data["runtime"]) == len(data["breakdown"]) == 10


def check_ablations(data):
    assert data["threaded"].cycles == data["coroutine"].cycles > 0
    assert data["threaded"].scalars == data["coroutine"].scalars
    assert (data["dead_check_on"].stats.queries
            < data["dead_check_off"].stats.queries)
    assert data["dead_check_on"].scalars == data["dead_check_off"].scalars
    assert data["incremental_cycles"] == data["full_cycles"]
    # deeper is never slower on the blocking-only fig4_ex1
    assert (sorted(data["full_cycles"], reverse=True)
            == data["full_cycles"])


CHECKS = {
    "bench_table3_functionality": check_table3,
    "bench_table4_inventory": check_table4,
    "bench_table5_lightningsim": check_table5,
    "bench_table6_incremental": check_table6,
    "bench_fig8_accuracy_speed": check_fig8,
    "bench_ablations": check_ablations,
}


@pytest.mark.parametrize("script", sorted(CHECKS))
def test_paper_table(script):
    module = importlib.import_module(f"benchmarks.{script}")
    data = module.rows()
    CHECKS[script](data)
    assert module.render(data).count("\n") >= 3
