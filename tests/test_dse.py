"""Depth-space exploration tests: space specs, Pareto, the explorer
engine (incremental-first + fallback + re-capture + sharding), and the
``repro dse`` CLI."""

from __future__ import annotations

import json

import pytest

from repro import compile_design, designs
from repro.api import Session
from repro.cli import main as cli_main
from repro.dse import (
    ENUMERATE_LIMIT,
    SOURCE_FULL,
    SOURCE_INCREMENTAL,
    DepthSpace,
    dominates,
    explore,
    frontier_distance,
    hypervolume,
    pareto_front,
    parse_axis,
    weakly_dominates,
)
from repro.errors import DseError
from repro.exec import replay
from repro.sim import get_engine
from tests.conftest import make_nb_design, make_pipeline_design

OmniSimulator = get_engine("omnisim").cls


class TestDepthSpace:
    def test_range_axis(self):
        axis = parse_axis("f=2:5")
        assert axis.fifo == "f"
        assert axis.values == (2, 3, 4, 5)

    def test_range_axis_with_step(self):
        assert parse_axis("f=1:16:4").values == (1, 5, 9, 13)

    def test_grid_axis(self):
        assert parse_axis("f=1,2,8").values == (1, 2, 8)

    def test_single_value_pins(self):
        assert parse_axis("f=7").values == (7,)

    def test_duplicate_grid_values_collapse(self):
        # A repeated value must not enumerate (and pay for) the same
        # configuration twice, nor inflate sweep metrics.
        assert parse_axis("f=4,4,2,4").values == (4, 2)
        assert DepthSpace.parse(["f=4,4"]).size == 1

    @pytest.mark.parametrize("spec", [
        "f", "=1:4", "f=", "f=abc", "f=1:2:3:4", "f=4:1", "f=1:8:0",
        "f=0:4", "f=0,2", "f=1,x",
    ])
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(DseError):
            parse_axis(spec)

    def test_cartesian_product(self):
        space = DepthSpace.parse(["a=1:2", "b=4,8"])
        assert space.size == 4
        configs = list(space.configurations())
        assert configs == [
            {"a": 1, "b": 4}, {"a": 1, "b": 8},
            {"a": 2, "b": 4}, {"a": 2, "b": 8},
        ]

    def test_duplicate_axis_rejected(self):
        with pytest.raises(DseError):
            DepthSpace.parse(["a=1:2", "a=3:4"])

    def test_empty_space_rejected(self):
        with pytest.raises(DseError):
            DepthSpace([])

    def test_validate_against(self):
        space = DepthSpace.parse(["a=1:2"])
        space.validate_against({"a", "b"})
        with pytest.raises(DseError):
            space.validate_against({"b"})

    def test_sample_is_seeded_and_distinct(self):
        space = DepthSpace.parse(["a=1:10", "b=1:10"])
        first = space.sample(12, seed=7)
        again = space.sample(12, seed=7)
        other = space.sample(12, seed=8)
        assert first == again
        assert first != other
        keys = [tuple(sorted(c.items())) for c in first]
        assert len(set(keys)) == 12

    def test_sample_covering_space_returns_all(self):
        space = DepthSpace.parse(["a=1:3"])
        assert space.sample(99) == list(space.configurations())

    def test_sample_rejects_nonpositive_count(self):
        space = DepthSpace.parse(["a=1:3"])
        with pytest.raises(DseError):
            space.sample(0)

    def test_config_at_mixed_radix_order(self):
        space = DepthSpace.parse(["a=1:2", "b=4,8"])
        assert [space.config_at(i) for i in range(space.size)] \
            == list(space.configurations())
        with pytest.raises(DseError):
            space.config_at(space.size)

    def test_huge_space_stays_lazy(self):
        # 16^20 configurations: size must be exact (python bigint, no
        # overflow), iteration must stream, and nothing may ever
        # materialize the product.
        space = DepthSpace.parse([f"f{i}=1:16" for i in range(20)])
        assert space.size == 16 ** 20
        first = next(iter(space.iter_configs()))
        assert first == {f"f{i}": 1 for i in range(20)}
        last = space.config_at(space.size - 1)
        assert last == {f"f{i}": 16 for i in range(20)}

    def test_huge_space_sampling_is_overflow_safe(self):
        # random.sample(range(n), k) raises OverflowError once n
        # exceeds ssize_t; the sampler must fall back gracefully and
        # stay seeded-deterministic.
        space = DepthSpace.parse([f"f{i}=1:16" for i in range(20)])
        ranks = space.sample_indices(8, seed=3)
        assert ranks == space.sample_indices(8, seed=3)
        assert ranks != space.sample_indices(8, seed=4)
        assert len(set(ranks)) == 8
        assert ranks == sorted(ranks)
        configs = space.sample(8, seed=3)
        assert configs == [space.config_at(r) for r in ranks]


class _Point:
    def __init__(self, cycles, buffer_bits):
        self.cycles = cycles
        self.buffer_bits = buffer_bits


class TestPareto:
    def test_dominance(self):
        assert dominates((1, 1), (2, 2))
        assert dominates((1, 2), (1, 3))
        assert not dominates((1, 1), (1, 1))
        assert not dominates((1, 3), (2, 1))

    def test_front_extraction(self):
        points = [_Point(10, 5), _Point(8, 7), _Point(12, 4),
                  _Point(9, 9), _Point(8, 8)]
        front = pareto_front(points)
        assert [(p.cycles, p.buffer_bits) for p in front] == [
            (8, 7), (10, 5), (12, 4)
        ]

    def test_front_skips_none_and_duplicates(self):
        points = [_Point(None, 1), _Point(5, 5), _Point(5, 5)]
        front = pareto_front(points)
        assert len(front) == 1
        assert front[0] is points[1]

    def test_weak_dominance_admits_equality(self):
        assert weakly_dominates((1, 2), (1, 2))
        assert weakly_dominates((1, 1), (2, 2))
        assert not weakly_dominates((1, 3), (2, 1))
        assert not dominates((1, 2), (1, 2))

    def test_hypervolume_hand_computed(self):
        # Staircase of three points against ref (4, 4):
        #   (1,3): (4-1)*(4-3) = 3
        #   (2,2): (4-2)*(3-2) = 2
        #   (3,1): (4-3)*(2-1) = 1
        assert hypervolume([(1, 3), (2, 2), (3, 1)], (4, 4)) == 6.0
        # A single point dominating the whole box:
        assert hypervolume([(0, 0)], (2, 3)) == 6.0
        assert hypervolume([], (4, 4)) == 0.0

    def test_hypervolume_clips_skips_and_dedups(self):
        # Beyond-ref and None-coordinate entries contribute nothing;
        # dominated and duplicate entries add no area.
        assert hypervolume([(1, 3), (5, 1), (1, 9)], (4, 4)) == 3.0
        assert hypervolume([(None, 1), (1, None)], (4, 4)) == 0.0
        assert hypervolume([(1, 3), (1, 3), (2, 3)], (4, 4)) == 3.0

    def test_frontier_distance_hand_computed(self):
        assert frontier_distance([(1, 2), (3, 1)],
                                 [(1, 2), (3, 1)]) == 0.0
        assert frontier_distance([(0, 0)], [(3, 4)]) == 5.0
        # Symmetric: the worst directed gap wins, whichever side it
        # is on — (6,8) is 10 away from its nearest point in b.
        assert frontier_distance([(0, 0), (6, 8)], [(0, 0)]) == 10.0
        assert frontier_distance([], []) == 0.0
        assert frontier_distance([(1, 1)], []) == float("inf")
        # None-containing vectors (deadlocked points) are ignored.
        assert frontier_distance([(1, 1), (None, 5)], [(1, 1)]) == 0.0


class TestExplorerTypeA:
    """Pipeline design: no queries, so every point must be incremental."""

    def test_all_incremental_and_matches_fresh(self):
        compiled = compile_design(make_pipeline_design())
        sweep = explore(Session(compiled), ["s1=1:6", "s2=1,4"])
        assert sweep.evaluated == 12
        assert sweep.incremental_fraction == 1.0
        for point in sweep.points:
            fresh = OmniSimulator(compiled, depths=point.depths).run()
            assert point.cycles == fresh.cycles, point.depths
            assert point.buffer_bits == sum(
                32 * d for d in point.depths.values()
            )

    def test_pareto_nonempty_and_nondominated(self):
        compiled = compile_design(make_pipeline_design())
        sweep = explore(Session(compiled), ["s1=1:6", "s2=1:6"])
        front = sweep.pareto()
        assert front
        vectors = [(p.cycles, p.buffer_bits) for p in front]
        for a in vectors:
            assert not any(dominates(b, a) for b in vectors if b != a)

    def test_samples_subset(self):
        compiled = compile_design(make_pipeline_design())
        sweep = explore(Session(compiled), ["s1=1:8", "s2=1:8"], samples=10, seed=3)
        assert sweep.evaluated == 10
        assert sweep.space_size == 64

    def test_uncapped_exhaustive_refuses_to_enumerate_huge_space(self):
        compiled = compile_design(make_pipeline_design())
        space = ["s1=1:2048", "s2=1:2048"]  # 4M configs > the guard
        with pytest.raises(DseError, match="max_evals"):
            explore(Session(compiled), space)
        # ... but a sampled sweep of the same space is fine: sampling
        # never materializes the product.
        sweep = explore(Session(compiled), space, samples=3, seed=1)
        assert sweep.evaluated == 3
        assert sweep.space_size == 2048 * 2048 > ENUMERATE_LIMIT


class TestExplorerFallback:
    """NB dropping producer: deepening s1 flips recorded NB outcomes, so
    the explorer must fall back to full simulation and re-capture."""

    def test_fallback_and_recapture(self, monkeypatch):
        # Shallow depths each drop a different number of NB writes (every
        # point but the declared depth 2, which replays the declared
        # capture, falls back), but once the FIFO saturates the
        # functional behaviour stops changing: the graph of the first
        # saturated run serves every deeper configuration incrementally,
        # each as its predecessor's neighbour.  Against the declared
        # depth-2 capture all of those would have violated — the tail of
        # incremental points IS the neighbour capture.
        compiled = compile_design(make_nb_design(depth=2))
        # one-row slices: every row a scalar replay, no kernel call
        monkeypatch.setattr(replay, "DEFAULT_BATCH_SIZE", 1)
        sweep = explore(Session(compiled), ["s1=1:32"])
        sources = [p.source for p in sweep.points]
        assert sources[:3] == [SOURCE_FULL, SOURCE_INCREMENTAL, SOURCE_FULL]
        last_full = len(sources) - 1 - sources[::-1].index(SOURCE_FULL)
        tail = sources[last_full + 1:]
        assert tail and all(s == SOURCE_INCREMENTAL for s in tail)

    def test_vectorized_default_matches_scalar_values(self, monkeypatch):
        # The kernel and the scalar path ask the same captures (declared,
        # then the predecessor's), so only `mode` may differ: every value
        # and every `source` is identical.
        compiled = compile_design(make_nb_design(depth=2))
        batched = explore(Session(compiled), ["s1=1:32"])
        monkeypatch.setattr(replay, "DEFAULT_BATCH_SIZE", 1)
        scalar = explore(Session(compiled), ["s1=1:32"])
        assert [(p.depths, p.cycles, p.buffer_bits, p.source)
                for p in batched.points] \
            == [(p.depths, p.cycles, p.buffer_bits, p.source)
                for p in scalar.points]
        assert all(p.source in (SOURCE_FULL, SOURCE_INCREMENTAL)
                   for p in batched.points)
        assert batched.mode_counts  # provenance recorded per point

    def test_every_point_matches_fresh_run(self):
        compiled = compile_design(make_nb_design(depth=2))
        sweep = explore(Session(compiled), ["s1=1:8"])
        for point in sweep.points:
            assert point.ok
            fresh = OmniSimulator(compiled, depths=point.depths).run()
            assert point.cycles == fresh.cycles, point.depths

    def test_fallback_detail_names_the_constraint(self):
        compiled = compile_design(make_nb_design(depth=2))
        sweep = explore(Session(compiled), ["s1=1:8"])
        details = [p.detail for p in sweep.points
                   if p.source == SOURCE_FULL]
        assert any(d and "s1" in d for d in details)

    def test_registry_design_by_name(self):
        sweep = explore(Session("fig4_ex5", n=100), ["fifo2=2:5"])
        assert sweep.design == "fig4_ex5"
        assert sweep.evaluated == 4
        assert sweep.incremental_fraction == 1.0  # fifo2 is uncongested

    def test_unknown_fifo_rejected(self):
        with pytest.raises(DseError):
            explore(Session("fig4_ex5", n=100), ["nope=1:4"])


class TestExplorerSharded:
    def test_jobs_match_serial_cycles(self):
        serial = explore(Session("fig4_ex5", n=100), ["fifo1=1:6"], jobs=1)
        sharded = explore(Session("fig4_ex5", n=100), ["fifo1=1:6"],
                          jobs=2)
        assert sharded.jobs == 2
        as_pairs = lambda sweep: [  # noqa: E731
            (tuple(sorted(p.depths.items())), p.cycles)
            for p in sweep.points
        ]
        assert as_pairs(serial) == as_pairs(sharded)

    def test_unpicklable_compiled_design_degrades_to_serial(self):
        # @hls.kernel-wrapped functions don't pickle, so an ad-hoc
        # compiled design can't cross a spawn-based process boundary:
        # the explorer must probe and fall back to in-process
        # evaluation (reporting jobs=1) instead of crashing on
        # platforms whose multiprocessing start method is not fork.
        compiled = compile_design(make_pipeline_design())
        sweep = explore(Session(compiled), ["s1=1:4"], jobs=2)
        assert sweep.jobs == 1
        assert sweep.evaluated == 4
        assert sweep.incremental_fraction == 1.0


class TestSweepResultJson:
    def test_round_trip_fields(self):
        compiled = compile_design(make_pipeline_design())
        sweep = explore(Session(compiled), ["s1=1:4"])
        blob = json.loads(json.dumps(sweep.to_json()))
        assert blob["evaluated"] == 4
        assert blob["incremental"] == 4
        assert blob["space_size"] == 4
        assert len(blob["points"]) == 4
        assert blob["pareto"]
        assert blob["points"][0]["depths"]["s1"] == 1


class TestDseCli:
    def test_dse_subcommand(self, capsys, tmp_path):
        out = tmp_path / "sweep.json"
        code = cli_main([
            "dse", "fig4_ex5", "--range", "fifo2=2:5",
            "--json", str(out),
        ])
        assert code == 0
        printed = capsys.readouterr().out
        assert "Pareto frontier" in printed
        assert "incremental" in printed
        blob = json.loads(out.read_text())
        assert blob["evaluated"] == 4

    def test_dse_group_alias(self, capsys):
        code = cli_main([
            "dse", "typea_large", "--range", "sc=1:4", "--samples", "2",
        ])
        assert code == 0
        assert "vector_add_stream" in capsys.readouterr().out

    def test_dse_requires_an_axis(self):
        with pytest.raises(SystemExit):
            cli_main(["dse", "fig4_ex5"])

    def test_dse_bad_spec_is_clean_error(self, capsys):
        code = cli_main(["dse", "fig4_ex5", "--range", "fifo2=abc"])
        assert code == 1
        assert "error:" in capsys.readouterr().err
