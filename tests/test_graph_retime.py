"""Unit + property tests for the simulation graph and retiming.

The hand-built graphs here are unit tests of the one scalar retiming
kernel (``TraceArtifact.retime``), built through the same append API
the engines record with.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import compile_design, designs
from repro.errors import SimulationError
from repro.sim import get_engine
from repro.runtime.requests import StartTask
from repro.trace import TraceArtifact
from repro.trace.columnar import K_READ, K_WRITE
from tests.conftest import make_pipeline_design

OmniSimulator = get_engine("omnisim").cls


def _request(nominal):
    return StartTask("m", 1, nominal)


class TestGraphConstruction:
    def test_node_metadata(self):
        graph = TraceArtifact()
        node = graph.add_node("m", _request(7), 9, K_WRITE)
        assert graph.nominal[node] == 7
        assert graph.time[node] == 9
        assert graph.kind[node] == K_WRITE
        assert graph.node_count == 1

    def test_module_chains(self):
        graph = TraceArtifact()
        a = graph.add_node("m1", _request(0), 0)
        b = graph.add_node("m2", _request(0), 0)
        c = graph.add_node("m1", _request(3), 3)
        graph.ensure_static()  # derives the per-module CSR
        ptr, nodes = graph.mod_ptr, graph.mod_nodes
        m1, m2 = graph.module_id("m1"), graph.module_id("m2")
        assert nodes[ptr[m1]:ptr[m1 + 1]] == [a, c]
        assert nodes[ptr[m2]:ptr[m2 + 1]] == [b]

    def test_retime_sequential_chain(self):
        graph = TraceArtifact()
        graph.add_node("m", _request(0), 0)
        graph.add_node("m", _request(5), 5)
        times = graph.retime({})
        assert times == [0, 5]

    def test_retime_raw_edge(self):
        graph = TraceArtifact()
        writer = graph.add_node("p", _request(4), 4, K_WRITE)
        reader = graph.add_node("c", _request(0), 4, K_READ)
        table = graph.fifo_table("f")
        table.add_write(writer)
        table.add_read(reader)
        times = graph.retime({"f": 2})
        assert times[reader] == times[writer] + 1

    def test_retime_war_edge_depends_on_depth(self):
        graph = TraceArtifact()
        table = graph.fifo_table("f")
        # Producer: writes at nominal 0, 1; consumer reads at nominal 10+.
        w1 = graph.add_node("p", _request(0), 0, K_WRITE)
        w2 = graph.add_node("p", _request(1), 1, K_WRITE)
        r1 = graph.add_node("c", _request(10), 10, K_READ)
        r2 = graph.add_node("c", _request(11), 12, K_READ)
        for node in (w1, w2):
            table.add_write(node)
        for node in (r1, r2):
            table.add_read(node)
        deep = graph.retime({"f": 2})
        assert deep[w2] == 1  # depth 2: no WAR stall
        shallow = graph.retime({"f": 1})
        assert shallow[w2] == shallow[r1] + 1  # depth 1: WAR stall

    def test_three_segment_module_is_one_nominal_chain(self):
        """Hand-computed: a pipelined consumer (II = 2, read at offset
        5 / 5 / 3 of iterations 0 / 1 / 2) behind a producer that is
        slow in the middle.  The static graph is one chain per module
        weighted by nominal distance — negative across the overlapped
        iteration boundaries — and retimes to what the ledger computes:
        ``cycle = E + offset; E = max(E, cycle - offset); E += II``."""
        graph = TraceArtifact()
        table = graph.fifo_table("f")
        w1 = graph.add_node("p", _request(4), 4, K_WRITE)
        w2 = graph.add_node("p", _request(14), 14, K_WRITE)
        w3 = graph.add_node("p", _request(15), 15, K_WRITE)
        # nominal = segment base (0 / 2 / 4) + offset
        a = graph.add_node("c", _request(0), 0)
        b = graph.add_node("c", _request(5), 5, K_READ)
        c = graph.add_node("c", _request(2), 2)
        d = graph.add_node("c", _request(7), 15, K_READ)
        e = graph.add_node("c", _request(4), 12)
        g = graph.add_node("c", _request(7), 16, K_READ)
        for node in (w1, w2, w3):
            table.add_write(node)
        for node in (b, d, g):
            table.add_read(node)
        graph.ensure_static()
        assert len(graph.s_base) == graph.node_count == 9
        ptr, succ, weight = (graph.s_succ_ptr, graph.s_succ_node,
                             graph.s_succ_weight)
        edges = sorted((u, succ[k], weight[k]) for u in range(9)
                       for k in range(ptr[u], ptr[u + 1]))
        assert edges == sorted([
            (a, b, 5), (b, c, -3), (c, d, 5), (d, e, -3), (e, g, 3),
            (w1, w2, 10), (w2, w3, 1),          # module chains
            (w1, b, 1), (w2, d, 1), (w3, g, 1),  # RAW
            (w1, w2, 1), (w2, w3, 1), (b, d, 1), (d, g, 1),  # ports
        ])
        assert list(graph.s_base) == [4, 0, 0, 0, 0, 0, 0, 0, 0]
        # depth 2: d waits for w2 (15), e issues II after d's effective
        # start (15 - 5 + 2 = 12), g waits for w3 (16)
        assert graph.retime({"f": 2}) == [4, 14, 15, 0, 5, 2, 15, 12, 16]
        # depth 1: w3 also waits for read d (WAR), and drags g with it
        assert graph.retime({"f": 1}) == [4, 14, 16, 0, 5, 2, 15, 12, 17]

    def test_retime_detects_cycle(self):
        # Each module reads the other's output before producing its
        # own: RAW demands both reads wait on writes that come after
        # them in program order — a cyclic constraint system.
        graph = TraceArtifact()
        t2 = graph.fifo_table("a")
        t3 = graph.fifo_table("b")
        # module X: read a (idx1) then write b (idx1)
        xr = graph.add_node("x", _request(0), 0, K_READ)
        xw = graph.add_node("x", _request(1), 1, K_WRITE)
        # module Y: read b (idx1) then write a (idx1)
        yr = graph.add_node("y", _request(0), 0, K_READ)
        yw = graph.add_node("y", _request(1), 1, K_WRITE)
        t2.add_read(xr)
        t2.add_write(yw)
        t3.add_write(xw)
        t3.add_read(yr)
        with pytest.raises(SimulationError):
            graph.retime({"a": 2, "b": 2})


class TestRetimeInvariant:
    """retime(original depths) must equal the live engine's times."""

    @pytest.mark.parametrize("name", ["fig4_ex1", "fig4_ex2", "fig4_ex5",
                                      "fig2_timer", "branch"])
    def test_on_benchmark_designs(self, name):
        compiled = compile_design(designs.get(name).make(n=100))
        trace = OmniSimulator(compiled).run().trace
        assert trace.retime(trace.depths) == trace.time

    @settings(max_examples=15, deadline=None)
    @given(d1=st.integers(min_value=1, max_value=8),
           d2=st.integers(min_value=1, max_value=8))
    def test_on_pipeline_depths(self, d1, d2):
        compiled = compile_design(make_pipeline_design())
        trace = OmniSimulator(compiled,
                              depths={"s1": d1, "s2": d2}).run().trace
        assert trace.depths == {"s1": d1, "s2": d2}
        assert trace.retime(trace.depths) == trace.time

    def test_axi_design_retime(self):
        compiled = compile_design(designs.get("vector_add_stream").make())
        trace = OmniSimulator(compiled).run().trace
        assert trace.retime(trace.depths) == trace.time


class TestRecorderIsTheKernelInput:
    """The artifact an engine recorded is retimed in place: no view to
    go stale, and what crosses a pickle retimes the same."""

    def _captured(self):
        compiled = compile_design(make_pipeline_design())
        trace = OmniSimulator(compiled).run().trace
        return trace, trace.depths

    def test_late_node_is_seen_by_the_next_retime(self):
        graph, depths = self._captured()
        before = graph.retime(depths)
        assert len(before) == graph.node_count

        # A node appended after a retime must invalidate everything
        # derived (CSR, static edges, iteration view): a stale build
        # would retime with it missing from every edge class.
        last = graph.node_count - 1
        late = graph.add_node(graph.module_names[graph.module_of[last]],
                              _request(graph.nominal[last] + 7),
                              graph.time[last] + 7)
        times = graph.retime(depths)
        assert len(times) == graph.node_count
        assert times[:late] == before
        assert times[late] == times[last] + 7, "chained in its segment"

    def test_pickled_artifact_retimes_identically(self):
        graph, depths = self._captured()
        graph.retime(depths)  # pickles with a live view attached
        clone = pickle.loads(pickle.dumps(graph))
        shallow = {"s1": 1, "s2": 1}
        assert clone.retime(shallow) == graph.retime(shallow)
        assert clone.widths == graph.widths
        assert clone.resimulate(shallow).cycles == \
            graph.resimulate(shallow).cycles


class TestReplayCertificate:
    """``retime`` returns the capture's own times where a certificate
    proves they still hold at the new depths, and runs the sweep
    otherwise; either way it answers what the forced sweep answers."""

    def _graph(self, depth, writes, reads):
        """Producer ``p`` writes at nominal ``writes``, consumer ``c``
        reads at nominal ``reads``, through FIFO ``f`` captured at
        ``depth``."""
        graph = TraceArtifact()
        table = graph.fifo_table("f")
        for nominal in writes:
            table.add_write(graph.add_node("p", _request(nominal), nominal,
                                           K_WRITE))
        for nominal in reads:
            table.add_read(graph.add_node("c", _request(nominal), nominal,
                                          K_READ))
        graph.depths = {"f": depth}
        return graph, table

    def _certified(self, graph, depths) -> bool:
        times, rows = graph._retime(depths)
        assert times == graph._retime(depths, certify=False)[0]
        return rows is not None

    def test_slack_edges_certify_both_ways(self):
        # a slow producer never waits on the fast consumer
        graph, table = self._graph(2, [0, 10, 20], [1, 2, 3])
        anchor = graph.retime({"f": 2})
        for depth in (1, 3, 64):
            assert self._certified(graph, {"f": depth}), depth
            assert graph.retime({"f": depth}) == anchor

    def test_tie_on_an_increase_falls_back(self):
        # depth 1: write #2 waits on read #1, and that edge alone sets
        # its time (a tie); at depth 2 the write moves up
        graph, table = self._graph(1, [0, 1], [10, 11])
        w2, r1 = table.write_nodes[1], table.read_nodes[0]
        anchor = graph.retime({"f": 1})
        assert anchor[w2] == anchor[r1] + 1
        assert not self._certified(graph, {"f": 2})
        assert graph.retime({"f": 2})[w2] == 1 != anchor[w2]

    def test_decrease_breaking_a_new_war_edge_falls_back(self):
        graph, table = self._graph(2, [0, 1], [10, 11])
        w2, r1 = table.write_nodes[1], table.read_nodes[0]
        anchor = graph.retime({"f": 2})
        assert anchor[w2] == 1
        assert not self._certified(graph, {"f": 1})
        assert graph.retime({"f": 1})[w2] == anchor[r1] + 1

    def test_certified_times_are_a_copy(self):
        graph, _table = self._graph(2, [0, 10, 20], [1, 2, 3])
        graph.retime({"f": 2})  # the first replay builds no anchor
        assert self._certified(graph, {"f": 3})
        times = graph.retime({"f": 3})
        times[0] = -1
        assert graph.retime({"f": 3})[0] == 0

    def test_a_one_shot_replay_builds_no_anchor(self, monkeypatch):
        builds = []

        def counted(self, view, _orig=TraceArtifact._build_anchor):
            builds.append(1)
            return _orig(self, view)

        monkeypatch.setattr(TraceArtifact, "_build_anchor", counted)
        graph, _table = self._graph(2, [0, 10, 20], [1, 2, 3])
        assert graph.resimulate({"f": 3}).cycles > 0
        assert builds == []
        assert self._certified(graph, {"f": 3})  # the second builds it
        graph.resimulate({"f": 4})
        assert builds == [1]

    def test_no_capture_depth_no_certificate(self):
        graph, _table = self._graph(2, [0, 10, 20], [1, 2, 3])
        graph.depths = {}
        assert not self._certified(graph, {"f": 3})


class TestRetimeDepthValidation:
    """Invalid depth maps are typed errors, not IndexError/KeyError or
    a misleading "became cyclic"."""

    def _graph(self):
        graph = TraceArtifact()
        table = graph.fifo_table("f")
        writes = [graph.add_node("p", _request(i), i, K_WRITE)
                  for i in range(3)]
        reads = [graph.add_node("c", _request(10 + i), 10 + i, K_READ)
                 for i in range(3)]
        for node in writes:
            table.add_write(node)
        for node in reads:
            table.add_read(node)
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

    def test_pickled_artifact_raises_the_same(self):
        art = pickle.loads(pickle.dumps(self._graph()))
        for bad in ({"f": -2}, {"f": 0}, {}):
            with pytest.raises(SimulationError):
                art.retime(bad)


class TestGraphHelpers:
    def test_buffer_bits_uses_recorded_widths(self):
        compiled = compile_design(make_pipeline_design())
        graph = OmniSimulator(compiled).run().trace
        assert graph.widths == {"s1": 32, "s2": 32}
        assert graph.buffer_bits({"s1": 4, "s2": 2}) == 4 * 32 + 2 * 32

    def test_buffer_bits_default_width_for_handbuilt_graphs(self):
        graph = TraceArtifact()
        assert graph.buffer_bits({"f": 3}) == 3 * 32
        assert graph.buffer_bits({"f": 3}, default_width=8) == 24

    def test_end_times_follow_retime(self):
        compiled = compile_design(make_pipeline_design())
        result = OmniSimulator(compiled).run()
        graph = result.trace
        assert graph.end_times() == result.module_end_times
        times = graph.retime({"s1": 1, "s2": 1})
        ends = graph.end_times(times)
        assert set(ends) == set(result.module_end_times)
        assert max(ends.values()) == graph.total_cycles(times)


class TestGraphScaling:
    def test_node_count_tracks_events(self):
        compiled = compile_design(make_pipeline_design())
        result = OmniSimulator(compiled).run()
        assert result.trace.node_count == result.stats.events

    def test_monotone_depth_sweep(self):
        compiled = compile_design(make_pipeline_design())
        trace = OmniSimulator(compiled).run().trace
        totals = []
        for depth in (1, 2, 4, 8, 16):
            times = trace.retime({"s1": depth, "s2": depth})
            totals.append(trace.total_cycles(times))
        assert totals == sorted(totals, reverse=True)
