"""Unit + property tests for the simulation graph and retiming.

The hand-built graphs here are unit tests of the one scalar retiming
kernel (``TraceArtifact.retime``), reached through the recorder's
``SimulationGraph.retime`` delegation.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import compile_design, designs
from repro.errors import SimulationError
from repro.sim import OmniSimulator
from repro.sim.graph import K_READ, K_WRITE, SimulationGraph
from repro.runtime.requests import StartTask
from repro.trace import TraceArtifact
from tests.conftest import make_pipeline_design


def _request(nominal, segment=0, base=0):
    request = StartTask("m", 1, nominal)
    request.segment = segment
    request.seg_base = base
    return request


class TestGraphConstruction:
    def test_node_metadata(self):
        graph = SimulationGraph()
        node = graph.add_node("m", _request(7), 9, K_WRITE)
        assert graph.nominal[node] == 7
        assert graph.time[node] == 9
        assert graph.kind[node] == K_WRITE
        assert graph.node_count == 1

    def test_module_chains(self):
        graph = SimulationGraph()
        a = graph.add_node("m1", _request(0), 0)
        b = graph.add_node("m2", _request(0), 0)
        c = graph.add_node("m1", _request(3), 3)
        assert graph.module_nodes[graph.module_id("m1")] == [a, c]
        assert graph.module_nodes[graph.module_id("m2")] == [b]

    def test_retime_sequential_chain(self):
        graph = SimulationGraph()
        graph.add_node("m", _request(0), 0)
        graph.add_node("m", _request(5), 5)
        times = graph.retime({})
        assert times == [0, 5]

    def test_retime_raw_edge(self):
        graph = SimulationGraph()
        writer = graph.add_node("p", _request(4), 4, K_WRITE)
        reader = graph.add_node("c", _request(0), 4, K_READ)
        table = graph.fifo_table("f")
        table.write_nodes.append(writer)
        table.read_nodes.append(reader)
        times = graph.retime({"f": 2})
        assert times[reader] == times[writer] + 1

    def test_retime_war_edge_depends_on_depth(self):
        graph = SimulationGraph()
        table = graph.fifo_table("f")
        # Producer: writes at nominal 0, 1; consumer reads at nominal 10+.
        w1 = graph.add_node("p", _request(0), 0, K_WRITE)
        w2 = graph.add_node("p", _request(1), 1, K_WRITE)
        r1 = graph.add_node("c", _request(10), 10, K_READ)
        r2 = graph.add_node("c", _request(11), 12, K_READ)
        table.write_nodes.extend([w1, w2])
        table.read_nodes.extend([r1, r2])
        deep = graph.retime({"f": 2})
        assert deep[w2] == 1  # depth 2: no WAR stall
        shallow = graph.retime({"f": 1})
        assert shallow[w2] == shallow[r1] + 1  # depth 1: WAR stall

    def test_retime_detects_cycle(self):
        graph = SimulationGraph()
        table = graph.fifo_table("f")
        # Craft a read that must precede its own write via WAR at depth 1
        # while RAW demands the opposite: a cyclic constraint system.
        w2_req = _request(0)
        r1 = graph.add_node("c", _request(0), 5, K_READ)
        w1 = graph.add_node("p", _request(4), 4, K_WRITE)
        w2 = graph.add_node("p", _request(6), 6, K_WRITE)
        table.write_nodes.extend([w1, w2])
        table.read_nodes.append(r1)
        graph2 = SimulationGraph()
        t2 = graph2.fifo_table("a")
        t3 = graph2.fifo_table("b")
        # module X: read a (idx1) then write b (idx1)
        xr = graph2.add_node("x", _request(0), 0, K_READ)
        xw = graph2.add_node("x", _request(1), 1, K_WRITE)
        # module Y: read b (idx1) then write a (idx1)
        yr = graph2.add_node("y", _request(0), 0, K_READ)
        yw = graph2.add_node("y", _request(1), 1, K_WRITE)
        t2.read_nodes.append(xr)
        t2.write_nodes.append(yw)
        t3.write_nodes.append(xw)
        t3.read_nodes.append(yr)
        with pytest.raises(SimulationError):
            graph2.retime({"a": 2, "b": 2})


class TestRetimeInvariant:
    """retime(original depths) must equal the live engine's times."""

    @pytest.mark.parametrize("name", ["fig4_ex1", "fig4_ex2", "fig4_ex5",
                                      "fig2_timer", "branch"])
    def test_on_benchmark_designs(self, name):
        compiled = compile_design(designs.get(name).make(n=100))
        result = OmniSimulator(compiled).run()
        depths = {n: ch.depth for n, ch in result.fifo_channels.items()}
        assert result.graph.retime(depths) == result.graph.time

    @settings(max_examples=15, deadline=None)
    @given(d1=st.integers(min_value=1, max_value=8),
           d2=st.integers(min_value=1, max_value=8))
    def test_on_pipeline_depths(self, d1, d2):
        compiled = compile_design(make_pipeline_design())
        result = OmniSimulator(compiled,
                               depths={"s1": d1, "s2": d2}).run()
        depths = {"s1": d1, "s2": d2}
        assert result.graph.retime(depths) == result.graph.time

    def test_axi_design_retime(self):
        compiled = compile_design(designs.get("vector_add_stream").make())
        result = OmniSimulator(compiled).run()
        depths = {n: ch.depth for n, ch in result.fifo_channels.items()}
        assert result.graph.retime(depths) == result.graph.time


class TestRetimeDelegation:
    """``SimulationGraph.retime`` is a view onto the one scalar kernel
    (``TraceArtifact.retime``), rebuilt when the graph grows."""

    def _captured(self):
        compiled = compile_design(make_pipeline_design())
        result = OmniSimulator(compiled).run()
        depths = {n: ch.depth for n, ch in result.fifo_channels.items()}
        return result.graph, depths

    def test_add_node_invalidates_the_delegated_view(self):
        graph, depths = self._captured()
        graph.retime(depths)
        view = graph._retime_view
        assert view.node_count == graph.node_count
        graph.retime({"s1": 9, "s2": 1})
        assert graph._retime_view is view, "unchanged graph reuses it"

        # Appending a node must invalidate: a stale view would retime
        # with the new node missing from every edge class.
        last = graph.node_count - 1
        request = _request(graph.nominal[last] + 7,
                           segment=graph.seg_serial[last],
                           base=graph.seg_base[last])
        graph.add_node("late_module", request, graph.time[last] + 7)
        times = graph.retime(depths)
        assert graph._retime_view is not view
        assert len(times) == graph.node_count
        assert times == TraceArtifact.from_graph(graph).retime(depths)

    def test_pickled_graph_retimes_identically(self):
        graph, depths = self._captured()
        graph.retime(depths)  # pickles with a live view attached
        clone = pickle.loads(pickle.dumps(graph))
        shallow = {"s1": 1, "s2": 1}
        assert clone.retime(shallow) == graph.retime(shallow)
        assert clone.fifo_widths == graph.fifo_widths

    def test_retime_calls_the_artifact_kernel(self, monkeypatch):
        graph, depths = self._captured()
        calls = []
        real = TraceArtifact.retime
        monkeypatch.setattr(
            TraceArtifact, "retime",
            lambda self, d: calls.append(d) or real(self, d))
        assert graph.retime(depths) == graph.time
        assert calls == [depths]


class TestRetimeDepthValidation:
    """Invalid depth maps are typed errors, not IndexError/KeyError or
    a misleading "became cyclic"."""

    def _graph(self):
        graph = SimulationGraph()
        table = graph.fifo_table("f")
        writes = [graph.add_node("p", _request(i), i, K_WRITE)
                  for i in range(3)]
        reads = [graph.add_node("c", _request(10 + i), 10 + i, K_READ)
                 for i in range(3)]
        table.write_nodes.extend(writes)
        table.read_nodes.extend(reads)
        return graph

    def test_negative_depth(self):
        with pytest.raises(SimulationError, match="depth must be >= 1"):
            self._graph().retime({"f": -2})

    def test_zero_depth(self):
        with pytest.raises(SimulationError, match="depth must be >= 1"):
            self._graph().retime({"f": 0})

    def test_missing_fifo(self):
        with pytest.raises(SimulationError, match=r"no depth given.*'f'"):
            self._graph().retime({})

    def test_artifact_retime_raises_the_same(self):
        art = TraceArtifact.from_graph(self._graph())
        for bad in ({"f": -2}, {"f": 0}, {}):
            with pytest.raises(SimulationError):
                art.retime(bad)


class TestGraphHelpers:
    def test_buffer_bits_uses_recorded_widths(self):
        compiled = compile_design(make_pipeline_design())
        graph = OmniSimulator(compiled).run().graph
        assert graph.fifo_widths == {"s1": 32, "s2": 32}
        assert graph.buffer_bits({"s1": 4, "s2": 2}) == 4 * 32 + 2 * 32

    def test_buffer_bits_default_width_for_handbuilt_graphs(self):
        graph = SimulationGraph()
        assert graph.buffer_bits({"f": 3}) == 3 * 32
        assert graph.buffer_bits({"f": 3}, default_width=8) == 24

    def test_end_times_follow_retime(self):
        compiled = compile_design(make_pipeline_design())
        result = OmniSimulator(compiled).run()
        graph = result.graph
        assert graph.end_times() == result.module_end_times
        times = graph.retime({"s1": 1, "s2": 1})
        ends = graph.end_times(times)
        assert set(ends) == set(result.module_end_times)
        assert max(ends.values()) == graph.total_cycles(times)


class TestGraphScaling:
    def test_node_count_tracks_events(self):
        compiled = compile_design(make_pipeline_design())
        result = OmniSimulator(compiled).run()
        assert result.graph.node_count == result.stats.events

    def test_monotone_depth_sweep(self):
        compiled = compile_design(make_pipeline_design())
        result = OmniSimulator(compiled).run()
        totals = []
        for depth in (1, 2, 4, 8, 16):
            times = result.graph.retime({"s1": depth, "s2": depth})
            totals.append(result.graph.total_cycles(times))
        assert totals == sorted(totals, reverse=True)
