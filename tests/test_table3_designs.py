"""Integration tests reproducing the paper's Table 3 and Table 4.

For every Type B/C design: OmniSim must match the co-simulation oracle
exactly (functionality and cycles), C-sim must fail in the specific way
the paper reports, and LightningSim must refuse the design.
"""

import pytest

from repro import compile_design, designs
from repro.errors import DeadlockError, UnsupportedDesignError
from repro.sim import get_engine

CoSimulator = get_engine("cosim").cls
CSimulator = get_engine("csim").cls
LightningSimulator = get_engine("lightningsim").cls
OmniSimulator = get_engine("omnisim").cls

#: Smaller instances keep the full-suite runtime reasonable; behaviour
#: classes are size-independent.
SMALL = {"fig4_ex2": {"n": 200}, "fig4_ex3": {"n": 200},
         "fig4_ex4a": {"n": 200}, "fig4_ex4b": {"n": 200},
         "fig4_ex4a_d": {"polls": 300}, "fig4_ex4b_d": {"polls": 300},
         "fig4_ex5": {"n": 200}, "fig2_timer": {"n": 200},
         "deadlock": {"n": 50}, "branch": {"n": 400},
         "multicore": {"n": 120}}


def run_both(name):
    spec = designs.get(name)
    compiled = compile_design(spec.make(**SMALL.get(name, {})))
    omni = OmniSimulator(compiled).run()
    cosim = CoSimulator(compiled).run()
    return compiled, omni, cosim


@pytest.mark.parametrize("name", [
    "fig4_ex2", "fig4_ex3", "fig4_ex4a", "fig4_ex4a_d",
    "fig4_ex4b", "fig4_ex4b_d", "fig4_ex5", "fig2_timer",
    "branch", "multicore",
])
def test_omnisim_matches_cosim(name):
    _compiled, omni, cosim = run_both(name)
    assert omni.scalars == cosim.scalars
    assert omni.cycles == cosim.cycles
    assert omni.module_end_times == cosim.module_end_times


@pytest.mark.parametrize("name", designs.names())
def test_lightningsim_capability_matrix(name):
    """LightningSim accepts exactly the Type A designs (paper Fig. 3)."""
    spec = designs.get(name)
    compiled = compile_design(spec.make(**SMALL.get(name, {})))
    sim = LightningSimulator(compiled)
    if spec.design_type == "A":
        sim._check_supported()  # must not raise
    else:
        with pytest.raises(UnsupportedDesignError):
            sim.run()


class TestExactPaperValues:
    """Outputs that are timing-independent match Table 3 exactly."""

    def test_ex2_full_sum(self):
        _c, omni, _cosim = run_both("fig4_ex2")
        n = SMALL["fig4_ex2"]["n"]
        assert omni.scalars["sum_out"] == n * (n + 1) // 2

    def test_ex2_paper_scale_sum(self):
        # At the paper's N=2025 the sum is exactly 2 051 325.
        compiled = compile_design(designs.get("fig4_ex2").make())
        result = OmniSimulator(compiled).run()
        assert result.scalars["sum_out"] == 2051325

    def test_ex3_paper_scale_sum(self):
        # Paper Table 3: co-sim reports sum = 4 098 600 for Ex. 3.
        compiled = compile_design(designs.get("fig4_ex3").make())
        result = OmniSimulator(compiled).run()
        assert result.scalars["sum"] == 4098600

    def test_ex4_drops_reduce_sum(self):
        _c, omni, _cosim = run_both("fig4_ex4b")
        n = SMALL["fig4_ex4b"]["n"]
        assert omni.scalars["Dropped"] > 0
        assert omni.scalars["sum_out"] < n * (n + 1) // 2

    def test_ex5_congestion_split(self):
        _c, omni, _cosim = run_both("fig4_ex5")
        p1 = omni.scalars["processed_by_P1"]
        p2 = omni.scalars["processed_by_P2"]
        assert p1 + p2 == SMALL["fig4_ex5"]["n"]
        assert p2 > 0, "slow path must receive overflow traffic"
        assert p1 > p2, "fast path must take the majority"

    def test_timer_counts_hardware_cycles(self):
        _c, omni, _cosim = run_both("fig2_timer")
        n = SMALL["fig2_timer"]["n"]
        # The compute pipeline runs at II=3: the timer must count ~3n.
        assert omni.scalars["cycles"] == pytest.approx(3 * n, rel=0.05)

    def test_branch_truncates_wrong_paths(self):
        _c, omni, _cosim = run_both("branch")
        n = SMALL["branch"]["n"]
        assert 0 < omni.scalars["fetched"] < n
        assert omni.scalars["executed"] > 0


class TestCsimFailureModes:
    """The C-sim column of Table 3, failure mode by failure mode."""

    def csim(self, name):
        spec = designs.get(name)
        compiled = compile_design(spec.make(**SMALL.get(name, {})))
        return CSimulator(compiled).run()

    @pytest.mark.parametrize("name", ["fig4_ex2", "fig4_ex4a_d",
                                      "fig4_ex4b_d"])
    def test_sigsegv_rows(self, name):
        result = self.csim(name)
        assert result.failure == "Simulation failed: SIGSEGV."

    def test_ex3_warnings_and_zero_sum(self):
        result = self.csim("fig4_ex3")
        n = SMALL["fig4_ex3"]["n"]
        empty_reads = [w for w in result.warnings if "read while empty" in w]
        leftovers = [w for w in result.warnings if "leftover" in w]
        assert len(empty_reads) == n
        assert len(leftovers) == 1
        assert result.scalars["sum"] == 0

    def test_ex4a_silently_wrong(self):
        result = self.csim("fig4_ex4a")
        n = SMALL["fig4_ex4a"]["n"]
        assert result.failure is None
        assert result.scalars["sum_out"] == n * (n + 1) // 2  # no drops!

    def test_ex4b_zero_drop_count(self):
        result = self.csim("fig4_ex4b")
        assert result.scalars["Dropped"] == 0

    def test_timer_counts_zero(self):
        result = self.csim("fig2_timer")
        assert result.scalars["cycles"] == 0
        assert any("read while empty" in w for w in result.warnings)

    def test_deadlock_not_detected_by_csim(self):
        result = self.csim("deadlock")
        assert result.failure is None
        assert result.scalars["sum"] == 0
        assert any("read while empty" in w for w in result.warnings)

    def test_branch_fetches_everything(self):
        result = self.csim("branch")
        assert result.scalars["fetched"] == SMALL["branch"]["n"]


class TestDeadlockDesign:
    def test_both_engines_report_same_cycle(self):
        spec = designs.get("deadlock")
        compiled = compile_design(spec.make(**SMALL["deadlock"]))
        with pytest.raises(DeadlockError) as omni:
            OmniSimulator(compiled).run()
        with pytest.raises(DeadlockError) as cosim:
            CoSimulator(compiled).run()
        assert omni.value.cycle == cosim.value.cycle
        assert omni.value.blocked.keys() == cosim.value.blocked.keys()


class TestTable4Inventory:
    def test_eleven_designs_registered(self):
        specs = designs.table4_specs()
        assert len(specs) == 11
        assert [s.name for s in specs][:2] == ["fig4_ex2", "fig4_ex3"]

    def test_type_labels_match_paper(self):
        labels = {s.name: s.design_type for s in designs.table4_specs()}
        assert labels["fig4_ex2"] == "B"
        assert labels["fig4_ex3"] == "B"
        assert labels["deadlock"] == "B"
        for name in ("fig4_ex4a", "fig4_ex4a_d", "fig4_ex4b",
                     "fig4_ex4b_d", "fig4_ex5", "fig2_timer",
                     "branch", "multicore"):
            assert labels[name] == "C"

    def test_cyclicity_labels(self):
        for spec in designs.table4_specs():
            design = spec.make(**SMALL.get(spec.name, {}))
            assert design.is_cyclic() == spec.cyclic, spec.name
