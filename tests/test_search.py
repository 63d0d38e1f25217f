"""Adaptive Pareto-guided search: strategy unit tests on synthetic
objectives, refine-vs-exhaustive frontier checks across the registry,
budget semantics, checkpoint/resume mid-refinement, and the CLI seam.

The refine strategy's pruning rule assumes cycles are monotone
non-increasing in depth.  The simulator is *almost* monotone — fig4_ex5
at n=400 is a real counterexample — so the frontier-identity tests here
cover both regimes: exactly-monotone synthetic objectives (where
pruning alone must recover the frontier) and the real non-monotone
design (where the frontier polish has to make up the difference).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.api import Session
from repro.cli import main as cli_main
from repro.dse import (
    STRATEGIES,
    DepthSpace,
    RandomStrategy,
    RefineStrategy,
    SearchStrategy,
    explore,
    make_strategy,
    pareto_vectors,
    parse_axis,
)
from repro.dse.explorer import _run_rounds
from repro.errors import CheckpointError, DseError
from tests.conftest import FIFO_DESIGNS, assert_cli_refuses


# ---------------------------------------------------------------------------
# synthetic objectives: drive the strategy protocol directly


class _Point:
    """Duck-typed SweepPoint: what ``SearchStrategy.observe`` reads."""

    def __init__(self, cycles, buffer_bits, source="incremental"):
        self.cycles = cycles
        self.buffer_bits = buffer_bits
        self.source = source


class Oracle:
    """A synthetic objective with an evaluation log (so tests can assert
    what a strategy did *not* evaluate, which is the whole point of
    pruning)."""

    WIDTH = 32

    def __init__(self, cycles_fn, deadlock_fn=None):
        self.cycles_fn = cycles_fn
        self.deadlock_fn = deadlock_fn or (lambda config: False)
        self.evaluated: list = []

    def __call__(self, config: dict) -> _Point:
        self.evaluated.append(dict(config))
        bits = self.WIDTH * sum(config.values())
        if self.deadlock_fn(config):
            return _Point(None, bits, source="deadlock")
        return _Point(self.cycles_fn(config), bits)

    def brute_frontier(self, space) -> list:
        points = [self(config) for config in space.iter_configs()]
        self.evaluated = self.evaluated[: len(self.evaluated)
                                        - space.size]
        return sorted(pareto_vectors(points))


def drive(strategy, oracle, budget=10 ** 9) -> int:
    """Run the propose/observe protocol to completion; returns evals."""
    spent = 0
    while spent < budget:
        batch = strategy.next_batch(budget - spent)[: budget - spent]
        if not batch:
            break
        spent += len(batch)
        strategy.observe([(c, oracle(c)) for c in batch])
    return spent


def frontier_of(strategy) -> list:
    return sorted(strategy._frontier)


class TestRefineSynthetic:
    def test_monotone_objective_exact_frontier_with_fewer_evals(self):
        space = DepthSpace.parse(["a=1:16", "b=1:16"])
        fn = lambda c: 300 - 9 * min(c["a"], 5) - 7 * min(c["b"], 4)
        truth = Oracle(fn).brute_frontier(space)
        oracle = Oracle(fn)
        strategy = RefineStrategy(space, seed=0)
        spent = drive(strategy, oracle)
        assert frontier_of(strategy) == truth
        assert spent < space.size // 2, "refine must beat enumeration"
        assert strategy.provenance()["pruned_regions"] > 0

    def test_pruned_configs_never_evaluated(self):
        space = DepthSpace.parse(["a=1:32"])
        # Strictly improving to a=4, flat plateau after: everything past
        # the knee is dominated and the deep half must be pruned whole.
        fn = lambda c: 100 - 10 * min(c["a"], 4)
        oracle = Oracle(fn)
        strategy = RefineStrategy(space, seed=0)
        drive(strategy, oracle)
        assert frontier_of(strategy) == Oracle(fn).brute_frontier(space)
        seen = {c["a"] for c in oracle.evaluated}
        stats = strategy.provenance()
        assert stats["pruned_configs"] > 0
        assert len(seen) < 32, "plateau tail should be pruned unseen"

    def test_polish_recovers_non_monotone_dip(self):
        # f(1)=100, f(2)=78, f(3)=77, f(a>=4)=80: the a=3 dip violates
        # monotonicity (the deep corner of any region containing it
        # reads 80, so dominated-region pruning discards it), but it
        # sits next to the frontier point a=2 — exactly what the
        # closing polish phase is for.
        space = DepthSpace.parse(["a=1:16"])
        fn = lambda c: {1: 100, 2: 78, 3: 77}.get(c["a"], 80)
        truth = Oracle(fn).brute_frontier(space)
        assert (77, 3 * Oracle.WIDTH) in truth
        strategy = RefineStrategy(space, seed=0)
        drive(strategy, Oracle(fn))
        assert frontier_of(strategy) == truth
        assert strategy.provenance()["polish_configs"] > 0

    def test_deadlocked_region_pruned_without_evaluation(self):
        space = DepthSpace.parse(["a=1:16"])
        oracle = Oracle(lambda c: 50,
                        deadlock_fn=lambda c: c["a"] <= 4)
        strategy = RefineStrategy(space, seed=0)
        drive(strategy, oracle)
        stats = strategy.provenance()
        assert stats["deadlock_pruned_regions"] > 0
        seen = {c["a"] for c in oracle.evaluated}
        # a=2 and a=3 live strictly inside the all-deadlocked region
        # whose deep corner (a=4) deadlocks: never evaluated.
        assert 2 not in seen and 3 not in seen

    def test_batch_respects_remaining(self):
        space = DepthSpace.parse(["a=1:64", "b=1:64"])
        strategy = RefineStrategy(space, seed=0)
        assert len(strategy.next_batch(4)[:4]) <= 4


class TestRandomSynthetic:
    def test_seeded_and_deterministic(self):
        space = DepthSpace.parse(["a=1:64", "b=1:64"])
        first = RandomStrategy(space, seed=5).next_batch(10)
        again = RandomStrategy(space, seed=5).next_batch(10)
        other = RandomStrategy(space, seed=6).next_batch(10)
        assert first == again
        assert first != other

    def test_patience_stops_stagnant_search(self):
        space = DepthSpace.parse(["a=1:64", "b=1:64"])
        oracle = Oracle(lambda c: 42)  # flat: one point ends the party
        strategy = RandomStrategy(space, seed=0, round_size=8,
                                  patience=2)
        drive(strategy, oracle)
        # round 1 sets the frontier; at most two stagnant rounds follow
        assert len(oracle.evaluated) <= 3 * 8
        assert strategy.next_batch(100) == []

    def test_exhausts_tiny_space_without_spinning(self):
        space = DepthSpace.parse(["a=1:4"])
        strategy = RandomStrategy(space, seed=0, round_size=16,
                                  patience=99)
        batch = strategy.next_batch(100)
        keys = {tuple(sorted(c.items())) for c in batch}
        assert len(keys) == 4
        strategy.observe([(c, _Point(10, 1)) for c in batch])
        assert strategy.next_batch(100) == []

    def test_make_strategy_builds_every_name_rejects_unknown(self):
        space = DepthSpace.parse(["a=1:4"])
        for name in STRATEGIES:
            assert make_strategy(name, space).name == name
        assert isinstance(make_strategy("refine", space), RefineStrategy)
        with pytest.raises(DseError):
            make_strategy("anneal", space)


# ---------------------------------------------------------------------------
# the round driver, against a stub executor


class _StubRun:
    """What ``_run_rounds`` needs of a ``JournaledRun``."""

    resumed = 0

    def __init__(self):
        self.units: list = []

    def run(self, units):
        self.units.extend(units)
        return [_Point(100 - sum(u.payload[0].values()), 1)
                for u in units], 0

    def mark(self, key, doc):
        pass


class _EchoStrategy(SearchStrategy):
    """Proposes the whole grid forwards then backwards in one round."""

    name = "echo"

    def next_batch(self, remaining):
        if self.done:
            return []
        self.done = True
        configs = list(self.space.configurations())
        return configs + configs[::-1]


class TestRoundDriver:
    def test_duplicates_within_a_round_evaluate_once(self):
        space = DepthSpace.parse(["a=1:40", "b=1:40"])
        run = _StubRun()
        points, search = _run_rounds(_EchoStrategy(space), run,
                                     space.size, None)
        assert len(points) == space.size == len(run.units)
        assert len({u.key for u in run.units}) == space.size
        assert [u.index for u in run.units] == list(range(space.size))
        assert search["rounds"][0]["proposed"] == space.size
        assert search["evals"]["spent"] == space.size

    def test_exhaustive_strategy_is_one_round_in_grid_order(self):
        space = DepthSpace.parse(["a=1:3", "b=2,5"])
        run = _StubRun()
        _points, search = _run_rounds(
            make_strategy("exhaustive", space), run, space.size, None)
        configs = list(space.configurations())
        # each payload is (config, the config before it in the request)
        assert [u.payload for u in run.units] == list(
            zip(configs, [None] + configs[:-1]))
        assert len(search["rounds"]) == 1
        assert (search["stopped"], search["converged"]) == (
            "complete", True)

    def test_each_request_follows_the_one_before_it_across_rounds(self):
        space = DepthSpace.parse(["a=1:16", "b=1:16"])
        run = _StubRun()
        _points, search = _run_rounds(make_strategy("refine", space), run,
                                      space.size, None)
        assert len(search["rounds"]) > 1
        afters = [u.payload[1] for u in run.units]
        assert afters == [None] + [u.payload[0] for u in run.units[:-1]]

    def test_capped_exhaustive_is_the_seeded_sample(self):
        space = DepthSpace.parse(["a=1:8", "b=1:8"])
        run = _StubRun()
        _run_rounds(make_strategy("exhaustive", space, seed=3, cap=5),
                    run, space.size, 5)
        assert [u.payload[0] for u in run.units] == space.sample(5, 3)


# ---------------------------------------------------------------------------
# explorer integration: real designs


def _frontier(sweep) -> list:
    return sorted(pareto_vectors(sweep.points))


class TestExploreAdaptive:
    def test_refine_matches_exhaustive_on_non_monotone_design(self):
        # fig4_ex5 at n=400 is the known monotonicity counterexample (a
        # deeper fifo1 costs a handful of cycles); identity here means
        # the polish earns its keep on a real design.
        session = Session.open("fig4_ex5", n=400)
        space = DepthSpace.parse(["fifo1=1:16", "fifo2=1:16"])
        exhaustive = session.sweep(space)
        refined = session.sweep(space, strategy="refine")
        assert _frontier(refined) == _frontier(exhaustive)
        assert refined.evaluated < exhaustive.evaluated // 4

    def test_budget_truncates_and_reports_stopped(self):
        session = Session.open("fig4_ex5", n=100)
        space = DepthSpace.parse(["fifo1=1:16", "fifo2=1:16"])
        sweep = session.sweep(space, strategy="refine", max_evals=5)
        assert sweep.evaluated <= 5
        assert sweep.search["stopped"] == "budget"
        assert not sweep.search["converged"]
        assert sweep.search["evals"]["budget"] == 5

    def test_search_provenance_shape(self):
        session = Session.open("fig4_ex5", n=100)
        sweep = session.sweep(DepthSpace.parse(["fifo2=1:8"]),
                              strategy="refine")
        search = sweep.search
        assert search["strategy"] == "refine"
        assert search["converged"] is True
        assert search["evals"]["spent"] == sweep.evaluated
        assert search["rounds"], "per-round provenance must be recorded"
        for round_doc in search["rounds"]:
            assert {"round", "proposed", "evaluated", "restored",
                    "frontier_size"} <= set(round_doc)
        for key in ("grid_configs", "pruned_regions", "splits",
                    "open_regions", "polish_rounds"):
            assert key in search
        assert search["open_regions"] == 0
        blob = json.loads(json.dumps(sweep.to_json()))
        assert blob["search"]["strategy"] == "refine"

    def test_exhaustive_without_budget_has_no_search_block(self):
        session = Session.open("fig4_ex5", n=100)
        sweep = session.sweep(DepthSpace.parse(["fifo2=1:4"]))
        assert sweep.search is None
        assert sweep.to_json()["search"] is None

    def test_exhaustive_with_budget_degrades_to_sample(self):
        session = Session.open("fig4_ex5", n=100)
        space = DepthSpace.parse(["fifo1=1:8", "fifo2=1:8"])
        sweep = session.sweep(space, max_evals=6)
        assert sweep.evaluated == 6
        assert sweep.search["strategy"] == "exhaustive"
        assert sweep.search["stopped"] == "complete"

    def test_random_strategy_respects_budget(self):
        session = Session.open("fig4_ex5", n=100)
        space = DepthSpace.parse(["fifo1=1:16", "fifo2=1:16"])
        sweep = session.sweep(space, strategy="random", max_evals=12)
        assert sweep.evaluated <= 12
        assert sweep.search["strategy"] == "random"
        assert "restarts" in sweep.search

    def test_samples_with_adaptive_strategy_rejected(self):
        session = Session.open("fig4_ex5", n=100)
        with pytest.raises(DseError, match="max_evals"):
            session.sweep(DepthSpace.parse(["fifo2=1:8"]),
                          strategy="refine", samples=4)

    def test_unknown_strategy_rejected(self):
        session = Session.open("fig4_ex5", n=100)
        with pytest.raises(DseError, match="strategy"):
            session.sweep(DepthSpace.parse(["fifo2=1:8"]),
                          strategy="anneal")

    def test_pool_never_wider_than_the_round(self, monkeypatch):
        # refine on fifo2=1:6 opens with a 3-config grid and follows
        # with smaller rounds: jobs=8 must not spawn 8 workers that
        # each load the baseline.
        # (repro.exec.worker imports the name where it builds a pool)
        import concurrent.futures as futures

        widths = []
        real = futures.ProcessPoolExecutor

        def recording(max_workers, **kwargs):
            widths.append(max_workers)
            return real(max_workers=max_workers, **kwargs)

        monkeypatch.setattr(futures, "ProcessPoolExecutor", recording)
        session = Session.open("fig4_ex5", n=100)
        space = DepthSpace.parse(["fifo2=1:6"])
        sweep = session.sweep(space, strategy="refine", jobs=8)
        rounds = sweep.search["rounds"]
        assert widths and max(widths) <= max(r["evaluated"]
                                             for r in rounds) <= 3
        assert sweep.supervision["jobs"] == max(widths) == sweep.jobs
        assert sweep.supervision["rounds"] == len(rounds)
        clean = session.sweep(space, strategy="refine")
        assert ([p.cycles for p in sweep.points]
                == [p.cycles for p in clean.points])

    def test_million_config_space_stays_lazy(self):
        session = Session.open("fig4_ex5", n=100)
        space = DepthSpace.parse(["fifo1=1:1024", "fifo2=1:1024"])
        assert space.size == 1024 * 1024
        sweep = session.sweep(space, strategy="refine", max_evals=64)
        assert sweep.evaluated <= 64
        assert sweep.space_size == 1024 * 1024


def _enumerable_designs():
    # "deadlock" fails baseline capture by design; every other design
    # with a FIFO to sweep gets a seat.
    return [name for name in FIFO_DESIGNS if name != "deadlock"]


class TestRegistryFrontierIdentity:
    """Satellite: on every enumerable registry design, refine lands on
    the exhaustive frontier (small spaces, so exhaustive is cheap)."""

    @pytest.mark.parametrize("name", _enumerable_designs())
    def test_refine_frontier_matches_exhaustive(self, name):
        session = Session.open(name)
        fifos = sorted(session.compiled.design.streams)
        space = DepthSpace([parse_axis(f"{fifo}=1:3")
                            for fifo in fifos[:2]])
        exhaustive = session.sweep(space)
        refined = session.sweep(space, strategy="refine")
        assert _frontier(refined) == _frontier(exhaustive)
        assert refined.evaluated <= exhaustive.evaluated


# ---------------------------------------------------------------------------
# checkpoint / resume mid-refinement


class TestAdaptiveResume:
    def test_budget_stop_then_resume_completes_identically(self, tmp_path):
        # A budget stop is a graceful mid-search kill: resuming with a
        # bigger budget must replay the restored rounds and land on the
        # same frontier as a never-interrupted run.
        session = Session.open("fig4_ex5", n=100)
        space = DepthSpace.parse(["fifo1=1:16", "fifo2=1:16"])
        journal = tmp_path / "search.jsonl"
        partial = session.sweep(space, strategy="refine", max_evals=6,
                                checkpoint=journal)
        assert partial.search["stopped"] == "budget"
        resumed = session.sweep(space, strategy="refine",
                                checkpoint=journal, resume=True)
        assert resumed.supervision["resumed"] == partial.evaluated
        clean = session.sweep(space, strategy="refine")
        assert _frontier(resumed) == _frontier(clean)
        assert resumed.search["evals"]["restored"] == partial.evaluated

    def test_journal_identity_includes_strategy(self, tmp_path):
        session = Session.open("fig4_ex5", n=100)
        space = DepthSpace.parse(["fifo2=1:8"])
        journal = tmp_path / "search.jsonl"
        session.sweep(space, strategy="refine", checkpoint=journal)
        # Resuming the same journal with a different strategy must be
        # rejected as an identity mismatch, not silently reused.
        with pytest.raises(CheckpointError, match="identity"):
            session.sweep(space, strategy="random", checkpoint=journal,
                          resume=True)
        # exhaustive <-> refine, in both directions
        with pytest.raises(CheckpointError, match="identity"):
            session.sweep(space, checkpoint=journal, resume=True)
        plain = tmp_path / "plain.jsonl"
        session.sweep(space, checkpoint=plain)
        with pytest.raises(CheckpointError, match="identity"):
            session.sweep(space, strategy="refine", checkpoint=plain,
                          resume=True)
        # a capped exhaustive sweep covers other configs than the grid
        with pytest.raises(CheckpointError, match="identity"):
            session.sweep(space, max_evals=3, checkpoint=plain,
                          resume=True)
        capped = tmp_path / "capped.jsonl"
        session.sweep(space, samples=3, checkpoint=capped)
        with pytest.raises(CheckpointError, match="identity"):
            session.sweep(space, checkpoint=capped, resume=True)
        # ... while a cap that covers the space is the uncapped sweep,
        # and an adaptive budget is not part of the identity at all
        session.sweep(space, max_evals=space.size, checkpoint=plain,
                      resume=True)
        session.sweep(space, strategy="refine", max_evals=4,
                      checkpoint=journal, resume=True)

    def test_sigkill_mid_round_then_resume_matches_clean(self, tmp_path,
                                                         monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        repo = Path(__file__).resolve().parents[1]
        journal = tmp_path / "search.jsonl"
        # refine on fifo2=1:6 opens with a 3-config seed grid (indices
        # 0/2/5); a poisoned hang at unit 3 freezes the first config of
        # round 2, leaving rounds >= 1 journaled when we SIGKILL.
        env = dict(os.environ,
                   PYTHONPATH=str(repo / "src"),
                   REPRO_FAULTS="hang@3:inf:120")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "dse", "fig4_ex5",
             "--range", "fifo2=1:6", "--strategy", "refine",
             "--checkpoint", str(journal)],
            cwd=str(repo), env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                if journal.exists():
                    data = journal.read_bytes()
                    # identity line + 3 grid configs + round:1 marker
                    if (data.endswith(b"\n")
                            and len(data.splitlines()) >= 5):
                        break
                time.sleep(0.05)
            else:
                pytest.fail("search never journaled its seed round")
        finally:
            proc.kill()
            proc.wait(timeout=30)

        session = Session.open("fig4_ex5")
        space = DepthSpace.parse(["fifo2=1:6"])
        resumed = session.sweep(space, strategy="refine",
                                checkpoint=journal, resume=True)
        assert resumed.supervision["resumed"] >= 3
        clean = Session.open("fig4_ex5").sweep(space, strategy="refine")
        assert _frontier(resumed) == _frontier(clean)
        assert ([p.cycles for p in resumed.points]
                == [p.cycles for p in clean.points])


# ---------------------------------------------------------------------------
# CLI seam


class TestSearchCli:
    def test_strategy_flag_json_and_summary(self, capsys, tmp_path):
        out = tmp_path / "sweep.json"
        code = cli_main([
            "dse", "fig4_ex5", "--range", "fifo1=1:16",
            "--range", "fifo2=1:16", "--strategy", "refine",
            "--max-evals", "100", "--json", str(out),
        ])
        assert code == 0
        printed = capsys.readouterr().out
        assert "search     : strategy=refine" in printed
        assert "converged=yes" in printed
        blob = json.loads(out.read_text())
        search = blob["search"]
        assert search["strategy"] == "refine"
        assert search["evals"]["budget"] == 100
        assert search["evals"]["spent"] == blob["evaluated"]
        assert search["rounds"][0]["round"] == 1

    def test_samples_with_strategy_rejected(self):
        assert_cli_refuses(["dse", "fig4_ex5", "--range", "fifo2=1:8",
                            "--strategy", "refine", "--samples", "4"],
                           "max_evals")

    def test_max_evals_alone_caps_exhaustive(self, capsys):
        code = cli_main(["dse", "fig4_ex5", "--range", "fifo2=1:8",
                         "--max-evals", "3"])
        assert code == 0
        printed = capsys.readouterr().out
        assert "strategy=exhaustive" in printed
        assert "evals=3/3" in printed
