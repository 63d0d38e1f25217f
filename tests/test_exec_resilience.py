"""Fault-tolerant sweep execution (ISSUE 6): the supervised work queue
must survive worker crashes, hangs past the chunk timeout and transient
errors without losing a single configuration, and a journaled sweep
killed mid-flight must resume to exactly the result set a fault-free
run produces.

Faults are injected deterministically (:mod:`repro.exec.faults`), so
every resilience path here is reproducible — no reliance on real OOM
kills or scheduler luck.  Serial and pool runs legitimately differ in
per-point timing and incremental/full provenance (workers re-capture
from the shipped reference), so differential assertions compare the
*semantic* view of each point: depths, cycles, buffer bits.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import cli
from repro.api import Session
from repro.dse import SOURCE_QUARANTINED
from repro.errors import CheckpointError, SimulationError
from repro.exec import (
    CheckpointJournal,
    ExecPolicy,
    FaultPlan,
    FaultRule,
    JournaledRun,
    Unit,
    chunk_contiguous,
    parse_faults,
    read_journal,
    resolve_plan,
    run_serial,
)

#: six configs — enough for multi-chunk pool runs at ``jobs=2``
SPACE = ["fifo2=1:6"]

#: a cheap backoff policy so retry-heavy tests stay fast
FAST = dict(backoff_base=0.001, backoff_cap=0.01)


def semantic(points):
    """Scheduling-independent view of sweep points."""
    return [(tuple(sorted(p.depths.items())), p.cycles, p.buffer_bits)
            for p in points]


@pytest.fixture(scope="module")
def session():
    return Session.open("fig4_ex5", n=60)


@pytest.fixture(scope="module")
def clean_points(session):
    """Semantic points of a fault-free serial sweep — the oracle every
    faulted/resumed run is compared against."""
    return semantic(session.sweep(SPACE).points)


# ---------------------------------------------------------------------------
# chunking


class TestChunking:
    def test_empty_input_yields_no_chunks(self):
        # regression: the old batch-local helper emitted [[]] here,
        # which the supervisor would submit as an empty (zero-result)
        # chunk.
        assert chunk_contiguous([], 1) == []
        assert chunk_contiguous([], 8) == []

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(), max_size=64),
           st.integers(min_value=1, max_value=16))
    def test_partition_properties(self, items, pieces):
        chunks = chunk_contiguous(items, pieces)
        # never an empty chunk, never more chunks than pieces
        assert all(chunks)
        assert len(chunks) <= pieces
        # contiguous, in-order, complete coverage
        assert [x for chunk in chunks for x in chunk] == items
        # balanced: sizes differ by at most one
        if chunks:
            sizes = [len(c) for c in chunks]
            assert max(sizes) - min(sizes) <= 1


# ---------------------------------------------------------------------------
# fault specs


class TestFaultSpecs:
    def test_parse_grammar(self):
        plan = parse_faults("crash@3; hang@5:1:60, error@7:2")
        assert plan
        assert plan.take(0) is None
        assert plan.take(3) == {"kind": "crash", "seconds": 30.0}
        assert plan.take(3) is None          # transient: fires once
        assert plan.take(5)["seconds"] == 60.0
        assert plan.take(7) == plan.take(7) == {
            "kind": "error", "seconds": 30.0}
        assert plan.take(7) is None          # times=2 exhausted
        assert plan.injected == 4

    def test_parse_poison_is_inexhaustible(self):
        plan = parse_faults("crash@0:inf")
        for _ in range(10):
            assert plan.take(0)["kind"] == "crash"

    @pytest.mark.parametrize("bad", [
        "boom@1",          # unknown kind
        "crash",           # no @INDEX
        "crash@x",         # non-numeric index
        "crash@-1",        # negative index
        "hang@1:1:2:3",    # too many fields
    ])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_faults(bad)

    def test_duplicate_index_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            FaultPlan([FaultRule("crash", 1, 1), FaultRule("hang", 1, 1)])

    def test_resolve_plan(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        assert resolve_plan(None) is None
        monkeypatch.setenv("REPRO_FAULTS", "crash@2")
        assert resolve_plan(None).take(2)["kind"] == "crash"
        assert resolve_plan(False) is None   # explicit off beats env
        assert resolve_plan("hang@1").take(1)["kind"] == "hang"
        plan = FaultPlan([])
        assert resolve_plan(plan) is plan
        with pytest.raises(TypeError):
            resolve_plan(123)


# ---------------------------------------------------------------------------
# checkpoint journal


IDENTITY = {"kind": "test", "design": "d", "digest": "abc"}


class TestJournal:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        journal, completed = CheckpointJournal.open(str(path), IDENTITY)
        assert completed == {}
        journal.append("k1", {"cycles": 1})
        journal.append("k2", {"cycles": 2})
        journal.close()
        identity, completed, good = read_journal(str(path))
        assert identity == IDENTITY
        assert completed == {"k1": {"cycles": 1}, "k2": {"cycles": 2}}
        assert good == path.stat().st_size

    def test_reuse_requires_resume(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        with CheckpointJournal.open(str(path), IDENTITY)[0] as journal:
            journal.append("k1", {})
        with pytest.raises(CheckpointError, match="--resume"):
            CheckpointJournal.open(str(path), IDENTITY)
        _, completed = CheckpointJournal.open(str(path), IDENTITY,
                                              resume=True)
        assert completed == {"k1": {}}

    def test_identity_mismatch(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        CheckpointJournal.open(str(path), IDENTITY)[0].close()
        other = dict(IDENTITY, digest="different")
        with pytest.raises(CheckpointError, match="identity"):
            CheckpointJournal.open(str(path), other, resume=True)

    def test_truncated_tail_is_dropped(self, tmp_path):
        # a SIGKILL mid-write leaves a partial last line; the reader
        # must keep every intact entry and resume must truncate the
        # garbage so appends produce a valid journal again.
        path = tmp_path / "ck.jsonl"
        with CheckpointJournal.open(str(path), IDENTITY)[0] as journal:
            journal.append("k1", {"cycles": 1})
        with open(path, "ab") as fh:
            fh.write(b'{"k": "k2", "o": {"cyc')   # torn write
        _, completed, good = read_journal(str(path))
        assert completed == {"k1": {"cycles": 1}}
        assert good < path.stat().st_size
        journal, completed = CheckpointJournal.open(str(path), IDENTITY,
                                                    resume=True)
        assert completed == {"k1": {"cycles": 1}}
        journal.append("k2", {"cycles": 2})
        journal.close()
        _, completed, _ = read_journal(str(path))
        assert set(completed) == {"k1", "k2"}
        # every surviving line is intact JSON
        for line in path.read_bytes().splitlines():
            json.loads(line)

    def test_not_a_journal(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        path.write_text('{"some": "other file"}\n')
        with pytest.raises(CheckpointError):
            read_journal(str(path))


# ---------------------------------------------------------------------------
# serial supervision (no pool)


class TestSerialSupervision:
    UNITS = [Unit(i, f"u{i}", i) for i in range(4)]

    def test_transient_error_is_retried(self):
        plan = parse_faults("error@1:2")
        seen = []
        results, report = run_serial(
            self.UNITS, lambda payloads: [p * 10 for p in payloads],
            policy=ExecPolicy(**FAST), fault_plan=plan,
            record=lambda unit, status, value: seen.append(
                (unit.index, status)),
        )
        assert results == {i: ("ok", i * 10) for i in range(4)}
        assert report.mode == "serial"
        assert report.errors == 2 and report.retries == 2
        assert report.crashes == 0 and not report.quarantined
        assert seen == [(0, "ok"), (1, "ok"), (2, "ok"), (3, "ok")]

    def test_poison_is_quarantined(self):
        plan = parse_faults("crash@2:inf")
        results, report = run_serial(
            self.UNITS, list,
            policy=ExecPolicy(max_retries=1, **FAST), fault_plan=plan,
        )
        status, detail = results[2]
        assert status == "quarantined"
        assert detail["reason"] == "WorkerCrashError"
        assert detail["attempts"] == 2           # initial + 1 retry
        assert report.crashes == 2 and len(report.quarantined) == 1
        assert all(results[i] == ("ok", i) for i in (0, 1, 3))


# ---------------------------------------------------------------------------
# the one evaluator protocol: ``evaluate(payloads)``, a stream


class _FlakyStream:
    """An evaluator with *only* ``evaluate(payloads)``: doubles each
    payload, lazily, and dies with a ``ReproError`` on reaching
    ``poison`` — every time, or only until ``marker`` (a file, so pool
    workers share it) exists."""

    def __init__(self, poison, marker=None):
        self.poison, self.marker = poison, marker
        self.calls: list = []

    def evaluate(self, payloads):
        self.calls.append(list(payloads))
        for payload in payloads:
            if payload == self.poison and not (
                    self.marker and os.path.exists(self.marker)):
                if self.marker:
                    open(self.marker, "w").close()
                raise SimulationError(f"no verdict at {payload}")
            yield payload * 2


class TestStreamedEvaluator:
    """A stream that dies after yielding *k* of *n* outcomes: the *k*
    are journalled exactly once, the rest evaluated one call each; the
    supervision counters are the ones ``request_contract.json`` pins
    for an injected error (``slices-faults``: 1 error, 1 retry, no
    split; ``pool-slices-faults``: one split more)."""

    def _run(self, tmp_path, evaluator, n, **kwargs):
        journal = tmp_path / "ck.jsonl"
        units = [Unit(i, f"u{i}", i) for i in range(n)]
        with JournaledRun(
            evaluator, fault_plan=None,
            encode=lambda value: {"v": value}, decode=lambda doc: doc["v"],
            quarantined=lambda unit, detail: detail["reason"],
            checkpoint=str(journal), identity={"kind": "test"}, **kwargs,
        ) as run:
            outcomes, restored = run.run(units)
            supervision = run.supervision()
        assert restored == 0
        keys = [json.loads(line)["k"]
                for line in journal.read_text().splitlines()[1:]]
        assert sorted(keys) == sorted(u.key for u in units)  # once each
        return outcomes, supervision, keys

    def test_in_process_rest_is_retried_per_unit(self, tmp_path):
        stream = _FlakyStream(3, str(tmp_path / "seen"))
        outcomes, sup, keys = self._run(tmp_path, stream, 6,
                                        policy=ExecPolicy(**FAST))
        assert outcomes == [0, 2, 4, 6, 8, 10]
        assert stream.calls == [[0, 1, 2, 3, 4, 5], [3], [4], [5]]
        assert keys == [f"u{i}" for i in range(6)]
        assert (sup["mode"], sup["errors"], sup["retries"],
                sup["splits"], sup["quarantined"]) == ("serial", 1, 1, 0, [])

    def test_in_process_poison_is_quarantined_alone(self, tmp_path):
        stream = _FlakyStream(3)
        outcomes, sup, _keys = self._run(
            tmp_path, stream, 6, policy=ExecPolicy(max_retries=2, **FAST))
        assert outcomes == [0, 2, 4, "SimulationError", 8, 10]
        # the stream's death was the poison's first attempt of three
        assert stream.calls == [[0, 1, 2, 3, 4, 5], [3], [3], [4], [5]]
        assert sup["errors"] == 3 and sup["retries"] == 2
        assert [q["attempts"] for q in sup["quarantined"]] == [3]

    def test_pool_chunk_is_split_and_rerun(self, tmp_path):
        # 12 units at jobs=2 start as chunks of 2,2,2,2,1,1,1,1: the
        # stream dies in [2, 3] after yielding one value, which is
        # dropped with the chunk; both halves re-run
        outcomes, sup, _keys = self._run(
            tmp_path, None, 12, policy=ExecPolicy(jobs=2, **FAST),
            worker=(_FlakyStream, (3, str(tmp_path / "seen"))))
        assert outcomes == [2 * i for i in range(12)]
        assert (sup["mode"], sup["errors"], sup["retries"],
                sup["splits"], sup["quarantined"]) == ("pool", 1, 1, 1, [])


# ---------------------------------------------------------------------------
# pool fault matrix


class TestPoolTeardown:
    def test_clean_sweep_joins_its_pool(self, session, clean_points):
        # A pool left to wind down on its own keeps a manager thread
        # that may still be closing the wakeup pipe CPython's exit hook
        # writes to ("Exception ignored ... Bad file descriptor").
        from concurrent.futures import process

        before = set(process._threads_wakeups)
        result = session.sweep(SPACE, jobs=2)
        assert semantic(result.points) == clean_points
        assert result.supervision["mode"] == "pool"
        assert not [thread for thread in process._threads_wakeups
                    if thread not in before and thread.is_alive()]


class TestPoolFaultMatrix:
    def test_crash_mid_sweep_recovers(self, session, clean_points):
        result = session.sweep(SPACE, jobs=2, faults="crash@2")
        assert semantic(result.points) == clean_points
        sup = result.supervision
        assert sup["mode"] == "pool" and sup["jobs"] == 2
        assert sup["crashes"] >= 1 and sup["respawns"] >= 1
        assert sup["faults_injected"] == 1
        assert result.quarantined_count == 0

    def test_transient_error_retried_to_success(self, session,
                                                clean_points):
        result = session.sweep(SPACE, jobs=2, faults="error@1:2")
        assert semantic(result.points) == clean_points
        sup = result.supervision
        assert sup["errors"] >= 2 and sup["retries"] >= 2
        assert sup["faults_injected"] == 2
        assert result.quarantined_count == 0

    def test_poison_config_quarantined_others_survive(self, session,
                                                      clean_points):
        result = session.sweep(SPACE, jobs=2, faults="crash@3:inf",
                               max_retries=2)
        poisoned = result.points[3]
        assert poisoned.source == SOURCE_QUARANTINED
        assert poisoned.cycles is None
        assert poisoned.depths["fifo2"] == 4
        assert "quarantined" in poisoned.detail
        assert result.quarantined_count == 1
        survivors = [p for i, p in enumerate(result.points) if i != 3]
        expected = [p for i, p in enumerate(clean_points) if i != 3]
        assert semantic(survivors) == expected
        sup = result.supervision
        assert len(sup["quarantined"]) == 1
        assert sup["quarantined"][0]["index"] == 3

    def test_hang_past_timeout_killed_and_retried(self, session,
                                                  clean_points):
        result = session.sweep(SPACE, jobs=2, timeout=1.5,
                               faults="hang@2:1:30")
        assert semantic(result.points) == clean_points
        sup = result.supervision
        assert sup["timeouts"] >= 1 and sup["respawns"] >= 1
        assert result.quarantined_count == 0


# ---------------------------------------------------------------------------
# checkpoint / resume differential


def truncate_journal(src: Path, dst: Path, completed_lines: int) -> None:
    """Copy ``src`` keeping the header and the first N completed
    entries — models a sweep killed partway through."""
    lines = src.read_bytes().splitlines(keepends=True)
    dst.write_bytes(b"".join(lines[:1 + completed_lines]))


class TestCheckpointResume:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_resume_evaluates_only_pending(self, session, clean_points,
                                           tmp_path, jobs):
        full = tmp_path / "full.jsonl"
        session.sweep(SPACE, checkpoint=str(full))
        # header + six configs + the round:1 marker
        assert len(full.read_bytes().splitlines()) == 1 + 6 + 1

        part = tmp_path / f"part{jobs}.jsonl"
        truncate_journal(full, part, completed_lines=3)
        result = session.sweep(SPACE, jobs=jobs, checkpoint=str(part),
                               resume=True)
        assert semantic(result.points) == clean_points
        sup = result.supervision
        assert sup["resumed"] == 3
        assert sup["units"] == 3            # only pending configs ran
        assert sup["checkpoint"] == str(part)
        # journal now holds header + all six configs + the round marker
        assert len(part.read_bytes().splitlines()) == 1 + 6 + 1

    def test_resume_of_complete_journal_runs_nothing(self, session,
                                                     clean_points,
                                                     tmp_path):
        path = tmp_path / "ck.jsonl"
        session.sweep(SPACE, checkpoint=str(path))
        before = path.read_bytes()
        result = session.sweep(SPACE, checkpoint=str(path), resume=True)
        assert semantic(result.points) == clean_points
        assert result.supervision["resumed"] == 6
        assert result.supervision["units"] == 0
        assert path.read_bytes() == before   # nothing re-journaled

    def test_one_pending_unit_keeps_the_deadline(self, session,
                                                 clean_points, tmp_path):
        # jobs > 1 promises a deadline and crash isolation; a resume
        # (or a polish round) with a single pending config must not
        # quietly fall back to in-process evaluation, which has neither.
        full = tmp_path / "full.jsonl"
        session.sweep(SPACE, checkpoint=str(full))
        part = tmp_path / "part.jsonl"
        truncate_journal(full, part, completed_lines=5)
        result = session.sweep(SPACE, jobs=2, timeout=1.0,
                               faults="hang@5:1:30", checkpoint=str(part),
                               resume=True)
        assert semantic(result.points) == clean_points
        sup = result.supervision
        assert sup["mode"] == "pool" and sup["jobs"] == 1
        assert sup["units"] == 1 and sup["resumed"] == 5
        assert sup["timeouts"] == 1 and sup["respawns"] >= 1
        assert sup["seconds"] < 15

    def test_identity_guard(self, session, tmp_path):
        path = tmp_path / "ck.jsonl"
        session.sweep(SPACE, checkpoint=str(path))
        # different space -> different sweep; silently merging journals
        # would fabricate results
        with pytest.raises(CheckpointError, match="identity"):
            session.sweep(["fifo2=1:4"], checkpoint=str(path),
                          resume=True)
        # same sweep but no --resume: refuse to clobber
        with pytest.raises(CheckpointError, match="--resume"):
            session.sweep(SPACE, checkpoint=str(path))

    def test_run_many_checkpoint_resume(self, session, tmp_path):
        configs = [{"depths": {"fifo2": d}} for d in (1, 2, 3, 4)]
        path = tmp_path / "batch.jsonl"
        first = session.run_many(configs, checkpoint=str(path))
        assert len(path.read_bytes().splitlines()) == 1 + 4
        second = session.run_many(configs, checkpoint=str(path),
                                  resume=True)
        assert second.supervision["resumed"] == 4
        assert ([r.cycles for r in second]
                == [r.cycles for r in first])
        assert ([r.buffers for r in second]
                == [r.buffers for r in first])

    def test_run_many_quarantine_is_a_failure_result(self, session):
        configs = [{"depths": {"fifo2": d}} for d in (1, 2, 3)]
        batch = session.run_many(configs, faults="error@1:inf",
                                 max_retries=1)
        assert batch[1].failure is not None
        assert "quarantined" in batch[1].failure
        clean = session.run_many([configs[0], configs[2]])
        assert [batch[0].cycles, batch[2].cycles] == [r.cycles
                                                      for r in clean]


# ---------------------------------------------------------------------------
# kill -9 mid-sweep, then --resume (the CI smoke, in miniature)


class TestKillAndResume:
    def test_sigkill_then_resume_matches_clean_run(self, tmp_path,
                                                   monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        repo = Path(__file__).resolve().parents[1]
        journal = tmp_path / "ck.jsonl"
        env = dict(os.environ,
                   PYTHONPATH=str(repo / "src"),
                   # poison hang at config 3: a deterministic window in
                   # which configs 0-2 are journaled and the process
                   # can be killed
                   REPRO_FAULTS="hang@3:inf:120")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "dse", "fig4_ex5",
             "--range", "fifo2=1:6", "--checkpoint", str(journal)],
            cwd=str(repo), env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                if (journal.exists()
                        and journal.read_bytes().endswith(b"\n")
                        and len(journal.read_bytes().splitlines()) >= 4):
                    break
                time.sleep(0.05)
            else:
                pytest.fail("sweep never journaled its first 3 configs")
        finally:
            proc.kill()
            proc.wait(timeout=30)

        # resume in-process (no faults this time) and compare against a
        # clean sweep of the same design/params
        session = Session.open("fig4_ex5")
        resumed = session.sweep(SPACE, checkpoint=str(journal),
                                resume=True)
        assert resumed.supervision["resumed"] == 3
        assert resumed.quarantined_count == 0
        clean = Session.open("fig4_ex5").sweep(SPACE)
        assert semantic(resumed.points) == semantic(clean.points)
        assert len(journal.read_bytes().splitlines()) == 1 + 6 + 1


# ---------------------------------------------------------------------------
# CLI behavior


class TestCliResilience:
    def test_keyboard_interrupt_flushes_journals_exit_130(
            self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "ck.jsonl"
        live = []

        def interrupted(args):
            journal, _ = CheckpointJournal.open(str(path), IDENTITY)
            journal.append("k1", {"cycles": 1})
            live.append(journal)     # keep it open across the raise
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "cmd_list", interrupted)
        assert cli.main(["list"]) == 130
        assert str(path) in capsys.readouterr().err
        _, completed, _ = read_journal(str(path))
        assert completed == {"k1": {"cycles": 1}}

    def test_dse_resume_requires_checkpoint(self):
        with pytest.raises(SystemExit):
            cli.main(["dse", "fig4_ex5", "--range", "fifo2=1:2",
                      "--resume"])
