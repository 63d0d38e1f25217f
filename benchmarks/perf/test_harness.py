"""Arithmetic of the perf harness on synthetic data (fast; tier-1
collects it): percentiles, quartile summaries, verdicts, span self
time, the end-to-end reduction, and the manifest/result schemas."""

from __future__ import annotations

import json
import re
import statistics
from pathlib import Path

import pytest

import compare
import harness
import spec
import stats
import tracer


def test_percentile_nearest_rank():
    values = [5, 1, 4, 2, 3]
    assert stats.percentile(values, 0.0) == 1
    assert stats.percentile(values, 0.5) == 3
    assert stats.percentile(values, 0.95) == 5
    assert stats.percentile([7], 0.99) == 7
    with pytest.raises(ValueError):
        stats.percentile([], 0.5)


def test_summary_uses_the_drivers_quartiles():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 50.0]
    s = stats.summary(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert (s["n"], s["median"], s["min"], s["max"]) == (10, 14.5, 10.0, 50.0)
    assert (s["q1"], s["q3"]) == (q1, q3)
    assert stats.spread(s) == pytest.approx((q3 - q1) / 14.5)
    single = stats.summary([3.0])
    assert single["q1"] == single["q3"] == 3.0 and stats.spread(single) == 0


def test_worsening_is_signed_by_direction_with_a_as_base():
    assert stats.worsening(100, 110, "lower") == pytest.approx(0.10)
    assert stats.worsening(100, 110, "higher") == pytest.approx(-0.10)
    assert stats.worsening(200, 150, "higher") == pytest.approx(0.25)
    with pytest.raises(ValueError):
        stats.worsening(1, 2, "sideways")


def _summary(median, iqr=0.0):
    return {"n": 10, "median": median, "q1": median - iqr / 2,
            "q3": median + iqr / 2, "min": median - iqr, "max": median + iqr}


@pytest.mark.parametrize("a, b, better, bound, expected", [
    (_summary(100, 2), _summary(101, 2), "lower", 0.10, "unchanged"),
    (_summary(100, 2), _summary(112, 2), "lower", 0.10, "regressed"),
    (_summary(100, 2), _summary(95, 2), "lower", 0.10, "improved"),
    (_summary(100, 2), _summary(99, 2), "lower", 0.10, "unchanged"),
    (_summary(100, 30), _summary(150, 2), "lower", 0.10, "unresolved"),
    (_summary(100, 2), _summary(88, 2), "higher", 0.10, "regressed"),
    (_summary(100, 2), _summary(110, 2), "higher", 0.10, "improved"),
])
def test_verdict(a, b, better, bound, expected):
    assert stats.verdict(a, b, better, bound) == expected


def test_covered_ns_is_the_union():
    assert tracer.covered_ns([]) == 0
    assert tracer.covered_ns([(0, 10), (5, 15), (20, 30)]) == 25
    assert tracer.covered_ns([(0, 10), (2, 3)]) == 10


def test_self_time_subtracts_child_covered_interval():
    spans = [
        [0, None, "op", "outer", 0, 100, 1.0],
        [1, 0, "op", "child", 10, 40, 1.0],
        [2, 0, "op", "child", 30, 60, 2.0],     # overlaps the first child
        [3, 1, "op", "grandchild", 15, 20, 1.0],
    ]
    own = tracer.self_times(spans)
    assert own == {0: 50, 1: 25, 2: 30, 3: 5}
    by_name = tracer.seconds_by_name(spans)
    assert by_name["child"] == [25e-9, 15e-9]   # second one at slowdown 2
    assert tracer.seconds_by_name(spans, self_only=False)["outer"] == [100e-9]


def test_tracer_nests_tags_ops_and_round_trips(tmp_path):
    tr = tracer.Tracer()
    with tr.op("op-1"), tr.span("outer"):
        with tr.span("inner"):
            tr.count("events", 42)
    with tr.span("untagged"):
        pass
    outer, inner, untagged = tr.spans
    assert (outer[1], inner[1], untagged[1]) == (None, outer[0], None)
    assert (outer[2], inner[2], untagged[2]) == ("op-1", "op-1", None)
    assert outer[4] <= inner[4] <= inner[5] <= outer[5]
    assert tr.counters == [[inner[0], "op-1", "events", 42]]
    path = tmp_path / "trace.jsonl"
    with tr.bracket(), tr.span("bracketed") as bracketed:
        pass
    assert bracketed[6] == tr.slowdowns[-1] > 0 and untagged[6] == 1.0
    assert tr.seconds(bracketed) == pytest.approx(
        (bracketed[5] - bracketed[4]) / 1e9 / bracketed[6])
    tr.write(path)
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert [d["kind"] for d in lines] == ["span"] * 4 + ["counter"]
    assert lines[1]["parent"] == lines[0]["id"]
    assert lines[3]["slowdown"] == bracketed[6]


class _Workload:
    throughput_kinds = ["a", "b"]
    primary_kinds = ["a", "b", "c"]
    cold_kind = "cold"


def test_end_to_end_reduction():
    check = harness.Checker()
    rec = harness.Recorder(check)
    # three passes; the 9.0 outlier in pass 2 must not move anything
    for a, b, c, cold in [(1.0, 2.0, 0.5, 4.0), (9.0, 2.2, 0.5, 4.4),
                          (1.2, 1.8, 0.7, 4.2)]:
        rec.add("a", a, work=100)
        rec.add("b", b, work=300)
        rec.add("c", c, work=1)
        rec.add("c", c, work=1)          # two ops of one kind per pass
        rec.add("cold", cold, work=1)
        rec.pass_walls.append(a + b + 2 * c + cold)
    assert rec.samples() == {"a": 3, "b": 3, "c": 6, "cold": 3}
    values = harness.end_to_end(rec, _Workload, setup_s=1.5)
    assert values["setup_s"] == 1.5
    assert values["work_per_s"] == pytest.approx(400 / (1.2 + 2.0))
    # a kind counts as often as a pass runs it: c twice per pass
    assert rec.pass_totals(["c"]) == (2, pytest.approx(1.0))
    assert values["call_p50_ms"] == pytest.approx(1200.0)   # of a, b, c
    assert values["cold_call_ms"] == pytest.approx(4200.0)
    assert values["peak_rss_mb"] > 0
    assert check.attempted == 15 and check.failed == 0


def test_checker_counts_failures_and_cycle_error():
    check = harness.Checker()
    assert check.cycles("exact", 100, 100)
    assert not check.cycles("off by three", 103, 100)
    assert check.cycles("both deadlock", None, None)
    assert not check.cycles("one deadlocks", None, 7)
    assert not check.ok("flag", False, "why")
    assert (check.attempted, check.failed, check.cycle_err_max) == (5, 3, 3)
    assert check.failed_share == pytest.approx(0.6) and not check.correct


def test_recorder_flags_changed_exact_counts_and_raising_ops():
    check = harness.Checker()
    rec = harness.Recorder(check)
    rec.expect_same("k", (1, 2))
    rec.expect_same("k", (1, 2))
    assert check.failed == 0
    rec.expect_same("k", (1, 3))
    assert check.failed == 1
    with rec.op("boom"):
        raise RuntimeError("op failed")
    assert check.failed == 2 and "boom" not in rec.walls


def _result(metrics: dict, units: dict) -> dict:
    return {"correct": True, "attempted": 3, "failed": 0,
            "metrics": {n: {"value": v, "unit": units[n]}
                        for n, v in metrics.items()}}


def test_result_schema():
    e2e = _result({n: 1.5 for n in spec.END_TO_END_UNITS},
                  spec.END_TO_END_UNITS)
    assert spec.result_problems(e2e, trace=False) == []
    layers = _result({n: 0 for n in spec.PER_LAYER_UNITS},
                     spec.PER_LAYER_UNITS)
    assert spec.result_problems(layers, trace=True) == []
    assert spec.result_problems(layers, trace=False)      # wrong metric set
    e2e["metrics"]["setup_s"]["value"] = 0
    assert any("never 0" in p for p in spec.result_problems(e2e, False))
    e2e["metrics"]["setup_s"] = {"value": float("nan"), "unit": "s"}
    assert any("finite" in p for p in spec.result_problems(e2e, False))
    assert spec.result_problems({"correct": True}, False)
    bad = dict(e2e, attempted=0)
    assert any("at least 1" in p for p in spec.result_problems(bad, False))


NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def test_manifest_matches_benchmark_json_and_the_contract():
    manifest = spec.manifest()
    on_disk = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    assert on_disk == manifest, "run.py --write-manifest to regenerate"
    assert set(manifest) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert 2 <= len(manifest["workloads"]) <= 8
    assert 1 <= len(manifest["end_to_end"]) <= 16
    assert 1 <= len(manifest["per_layer"]) <= 128
    assert isinstance(manifest["run_seconds"], int)
    assert 1 <= manifest["run_seconds"] <= 60
    names = ([w["name"] for w in manifest["workloads"]]
             + [m["name"] for m in manifest["end_to_end"]]
             + [m["name"] for m in manifest["per_layer"]])
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for workload in manifest["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in manifest["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in manifest["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in manifest["end_to_end"] + manifest["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    setup = next(m for m in manifest["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in manifest["end_to_end"])
    for path in manifest["paths"]:
        assert (harness.ROOT / path).is_dir()
    assert Path(manifest["command"][1]).parts[:2] == ("benchmarks", "perf")


def test_compare_rows_on_synthetic_documents():
    def document(scale: float) -> dict:
        run = lambda i: {"correct": True, "failed": 0, "metrics": {  # noqa: E731
            name: {"value": (100 + i) * (scale if name == "call_p50_ms"
                                         else 1.0), "unit": unit}
            for name, unit in spec.END_TO_END_UNITS.items()}}
        return {"runs": {w: [run(i) for i in range(10)]
                         for w in spec.WORKLOADS}}

    a, b = document(1.0), document(1.5)
    verdicts = {(w, m): v for w, m, _sa, _sb, _worse, _bound, v
                in compare.rows(a, b)}
    assert len(verdicts) == len(spec.WORKLOADS) * len(spec.END_TO_END)
    assert verdicts[("run_cold", "call_p50_ms")] == "regressed"
    assert verdicts[("run_cold", "setup_s")] == "unchanged"
    assert compare.failed_ops(a) == 0
    a["runs"]["run_cold"][0]["failed"] = 2
    assert compare.failed_ops(a) == 2


def test_recorder_divides_by_the_slowdown():
    rec = harness.Recorder(harness.Checker())
    rec.add("k", 3.0, work=1, slowdown=1.5)
    assert rec.walls["k"] == [[2.0]] and rec.slowdowns == [1.5]
