"""Trace-store tests: warm/cold baselines, cache-poisoning safety, CLI.

The poisoning contract (ISSUE 5 satellite): a truncated / bit-flipped /
wrong-magic / wrong-schema artifact file must fall back to fresh capture
with a warning — never crash, never serve stale results.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct

import pytest

from repro import cli
from repro.api import Session
from repro.errors import TraceFormatError
from repro.trace import (
    TraceArtifact,
    TraceStore,
    dumps_artifact,
    loads_artifact,
    resolve_store,
)
from repro.trace import store as store_module
from repro.trace.store import MAGIC, SCHEMA_VERSION

#: sha256 of ``dumps_artifact`` for fig4_ex5 n=50 with its static
#: columns built, per schema version: a change to the stored form that
#: keeps the version fails here, and a bump needs its own entry
SCHEMA_DIGESTS = {
    2: "61ad6cb182d1dc582d47f3dfe909e1272490aac11e6655acfd43eca2591d1559",
}


@pytest.fixture
def warm_store(tmp_path):
    """A store holding one cold-captured fig4_ex5 baseline; returns
    (store, digest, cold_session)."""
    session = Session.open("fig4_ex5", n=120, trace_cache=tmp_path)
    base = session.baseline()
    assert base.phase_seconds["capture"] == "cold"
    digest = session.trace_digest()
    store = session.trace_store
    assert store.contains(digest)
    return store, digest, session


class TestWarmBaseline:
    def test_second_session_loads_warm(self, warm_store, tmp_path):
        store, digest, cold = warm_store
        warm = Session.open("fig4_ex5", n=120, trace_cache=tmp_path)
        base = warm.baseline()
        assert base.phase_seconds["capture"] == "warm"
        # warm baselines are rebuilt around the stored artifact
        assert base.trace is not None and warm.trace is base.trace
        cold_base = cold.baseline()
        assert base.cycles == cold_base.cycles
        assert base.scalars == cold_base.scalars
        assert base.module_end_times == cold_base.module_end_times
        # and replays identically
        assert (warm.resimulate({"fifo2": 5}).cycles
                == cold.resimulate({"fifo2": 5}).cycles)

    def test_warm_baseline_surfaces_base_depths(self, warm_store,
                                                tmp_path):
        # The base depth map travels on the artifact; the engine's R/W
        # timing tables (fifo_channels) exist on fresh captures only.
        warm = Session.open("fig4_ex5", n=120, trace_cache=tmp_path)
        base = warm.baseline()
        cold_base = warm_store[2].baseline()
        assert (base.trace.depths == cold_base.trace.depths
                == {n: ch.depth
                    for n, ch in cold_base.fifo_channels.items()})
        assert not base.fifo_channels

    def test_warm_paths_never_compile(self, warm_store, tmp_path,
                                      monkeypatch):
        # A warm hit must skip compilation entirely — including depth
        # validation in resimulate() and the parent side of a sweep.
        from repro.api import design_ref
        from repro.dse import explore
        from repro.errors import UnknownFifoError

        def boom(*_a, **_k):
            raise AssertionError("warm path compiled the design")

        monkeypatch.setattr(design_ref, "compile_design", boom)
        session = Session.open("fig4_ex5", n=120, trace_cache=tmp_path)
        assert session.baseline().phase_seconds["capture"] == "warm"
        assert session.resimulate({"fifo2": 5}).cycles > 0
        with pytest.raises(UnknownFifoError):
            session.resimulate({"bogus": 5})
        assert session._compiled is None
        sweep = explore(
            Session.open("fig4_ex5", n=120, trace_cache=tmp_path),
            ["fifo2=2:4"])
        assert sweep.capture == "warm"
        assert sweep.incremental_count == sweep.evaluated
        assert sweep.base_depths  # from the artifact's declared map
        # ... and a batch of depth-only configs, typo check included
        batch = Session.open("fig4_ex5", n=120, trace_cache=tmp_path)
        results = batch.run_many([{"depths": {"fifo2": d}}
                                  for d in (3, 5)])
        assert [r.phase_seconds["serving"] for r in results] \
            == ["incremental"] * 2
        with pytest.raises(UnknownFifoError):
            batch.run_many([{"depths": {"bogus": 5}}])
        assert batch._compiled is None

    def test_param_change_misses(self, warm_store, tmp_path):
        other = Session.open("fig4_ex5", n=121, trace_cache=tmp_path)
        assert other.baseline().phase_seconds["capture"] == "cold"

    def test_executor_keys_are_separate(self, warm_store, tmp_path):
        interp = Session.open("fig4_ex5", n=120, executor="interp",
                              trace_cache=tmp_path)
        assert interp.baseline().phase_seconds["capture"] == "cold"
        compiled = Session.open("fig4_ex5", n=120, executor="compiled",
                                trace_cache=tmp_path)
        assert compiled.baseline().phase_seconds["capture"] == "warm"
        assert interp.trace_digest() != compiled.trace_digest()

    def test_refresh_recaptures_and_rewrites(self, warm_store, tmp_path):
        store, digest, _cold = warm_store
        before = os.path.getmtime(store.path(digest))
        session = Session.open("fig4_ex5", n=120, trace_cache=tmp_path)
        base = session.baseline(refresh=True)
        assert base.phase_seconds["capture"] == "cold"
        assert os.path.getmtime(store.path(digest)) >= before

    def test_disabled_by_default(self):
        assert Session.open("fig4_ex5", n=120).trace_store is None


class TestPoisoningSafety:
    """Corrupt cache files degrade to a warned fresh capture."""

    def _corrupt_then_capture(self, store, digest, tmp_path, mutate):
        path = store.path(digest)
        with open(path, "rb") as fh:
            data = fh.read()
        with open(path, "wb") as fh:
            fh.write(mutate(data))
        with pytest.warns(RuntimeWarning, match="trace cache"):
            session = Session.open("fig4_ex5", n=120,
                                   trace_cache=tmp_path)
            base = session.baseline()
        assert base.phase_seconds["capture"] == "cold"
        assert base.cycles > 0
        # the capture rewrote a valid entry: next load is warm again
        again = Session.open("fig4_ex5", n=120, trace_cache=tmp_path)
        assert again.baseline().phase_seconds["capture"] == "warm"

    def test_truncated_file(self, warm_store, tmp_path):
        store, digest, _ = warm_store
        self._corrupt_then_capture(store, digest, tmp_path,
                                   lambda d: d[:len(d) // 2])

    def test_bit_flip_fails_checksum(self, warm_store, tmp_path):
        store, digest, _ = warm_store

        def flip(data):
            i = len(data) - 7  # payload byte, well past the header
            return data[:i] + bytes([data[i] ^ 0x40]) + data[i + 1:]

        self._corrupt_then_capture(store, digest, tmp_path, flip)

    def test_bad_magic(self, warm_store, tmp_path):
        store, digest, _ = warm_store
        self._corrupt_then_capture(store, digest, tmp_path,
                                   lambda d: b"NOPE" + d[4:])

    def test_unknown_schema_version(self, warm_store, tmp_path):
        store, digest, _ = warm_store

        def bump(data):
            return (data[:4] + struct.pack("<I", SCHEMA_VERSION + 99)
                    + data[8:])

        self._corrupt_then_capture(store, digest, tmp_path, bump)

    def test_corrupt_file_is_removed_on_load(self, warm_store, tmp_path):
        store, digest, _ = warm_store
        path = store.path(digest)
        with open(path, "wb") as fh:
            fh.write(b"garbage")
        with pytest.warns(RuntimeWarning):
            assert store.get(digest) is None
        assert not os.path.exists(path)

    def test_uncreatable_root_degrades_to_uncached(self, tmp_path,
                                                   capsys):
        # Regression: put() created its root outside the OSError guard,
        # so a finished capture crashed on the way into the cache.
        (tmp_path / "afile").write_text("not a directory")
        root = str(tmp_path / "afile" / "cache")
        reference = Session.open("fig4_ex5", n=120,
                                 trace_cache=False).baseline()
        with pytest.warns(RuntimeWarning, match="cannot write under"):
            assert TraceStore(root).put("0" * 64, reference.trace) is False
        # (the unreadable root warns on the lookup, then on the write)
        with pytest.warns(RuntimeWarning, match="trace cache") as caught:
            base = Session.open("fig4_ex5", n=120,
                                trace_cache=root).baseline()
            assert cli.main(["run", "fig4_ex3", "--trace-cache", root]) == 0
        assert sum("cannot write under" in str(w.message)
                   for w in caught) == 2
        assert base.phase_seconds["capture"] == "cold"
        assert base.cycles == reference.cycles
        cycles = Session.open("fig4_ex3", trace_cache=False).run().cycles
        assert f"cycles     : {cycles}\n" in capsys.readouterr().out

    def test_loads_artifact_raises_typed_error(self, warm_store):
        store, digest, _ = warm_store
        with open(store.path(digest), "rb") as fh:
            data = fh.read()
        assert loads_artifact(data).design_name == "fig4_ex5"
        for bad in (b"", data[:10], b"XXXX" + data[4:],
                    data[:40] + bytes([data[40] ^ 1]) + data[41:]):
            with pytest.raises(TraceFormatError):
                loads_artifact(bad)
        assert data[:4] == MAGIC


class TestStoreManagement:
    def test_entries_verify_gc(self, warm_store):
        store, digest, session = warm_store
        entries = store.entries()
        assert [e.digest for e in entries] == [digest]
        ok, outdated, corrupt = store.verify()
        assert len(ok) == 1 and not outdated and not corrupt
        removed, reclaimed = store.gc()
        assert removed == 1 and reclaimed > 0
        assert store.entries() == []

    def test_verify_prune_removes_corrupt(self, warm_store):
        store, digest, _ = warm_store
        with open(store.path(digest), "ab") as fh:
            fh.write(b"tail garbage")
        ok, outdated, corrupt = store.verify(prune=True)
        assert not ok and not outdated and len(corrupt) == 1
        assert store.entries() == []

    def test_outdated_entry_is_not_corrupt(self, warm_store, capsys):
        """An entry another schema version wrote (good magic, version
        1 in the head) is outdated, not corrupt: listed apart, exit 0
        unless something is corrupt, removed by ``--prune`` with the
        corrupt ones; ``trace info`` names its schema."""
        store, digest, _ = warm_store
        path = store.path(digest)
        with open(path, "rb") as fh:
            data = fh.read()
        with open(path, "wb") as fh:
            fh.write(data[:4] + struct.pack("<I", 1) + data[8:])
        ok, outdated, corrupt = store.verify()
        assert (ok, corrupt) == ([], [])
        assert [(e.digest, detail) for e, detail in outdated] \
            == [(digest, "schema 1")]
        d = store.root
        assert cli.main(["trace", "info", "--cache-dir", d]) == 0
        assert "<schema 1>" in capsys.readouterr().out
        assert cli.main(["trace", "verify", "--cache-dir", d]) == 0
        out = capsys.readouterr().out
        assert f"outdated: {digest[:12]}  schema 1\n" in out
        assert out.endswith(
            "verified 1 artifact(s): 0 ok, 1 outdated, 0 corrupt\n")
        with open(store.path("bad"), "wb") as fh:
            fh.write(b"garbage")
        assert cli.main(["trace", "verify", "--cache-dir", d]) == 1
        assert "0 ok, 1 outdated, 1 corrupt\n" in capsys.readouterr().out
        assert cli.main(["trace", "verify", "--cache-dir", d,
                         "--prune"]) == 0
        assert capsys.readouterr().out.endswith(
            "0 ok, 1 outdated, 1 corrupt (removed)\n")
        assert store.entries() == []

    def test_gc_older_than_keeps_recent(self, warm_store):
        store, digest, _ = warm_store
        removed, _ = store.gc(older_than_days=1)
        assert removed == 0
        assert store.contains(digest)

    def test_gc_max_bytes_evicts_lru_first(self, tmp_path):
        store = resolve_store(tmp_path)
        now = os.stat(tmp_path).st_mtime
        for i, digest in enumerate(("aaa", "bbb", "ccc")):
            path = store.path(digest)
            with open(path, "wb") as fh:
                fh.write(b"x" * 100)
            # aaa least recently used, ccc most
            os.utime(path, (now - 300 + i * 100, now))
        removed, reclaimed = store.gc(max_bytes=150)
        assert (removed, reclaimed) == (2, 200)
        assert not store.contains("aaa") and not store.contains("bbb")
        assert store.contains("ccc")
        # already under budget: nothing more to evict
        assert store.gc(max_bytes=150) == (0, 0)

    def test_get_refreshes_atime_for_lru(self, warm_store):
        # relatime mounts don't reliably update atime on reads, so get()
        # touches the file explicitly; without this, warm hits would be
        # evicted as if never used.
        store, digest, _ = warm_store
        path = store.path(digest)
        st = os.stat(path)
        stale = st.st_mtime - 9999
        os.utime(path, (stale, st.st_mtime))
        assert store.get(digest) is not None
        assert os.stat(path).st_atime > stale + 5000
        assert os.stat(path).st_mtime == pytest.approx(st.st_mtime)

    def test_resolve_store_settings(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE_CACHE", raising=False)
        assert resolve_store(None) is None
        assert resolve_store(False) is None
        assert resolve_store(tmp_path).root == str(tmp_path)
        assert resolve_store(None, fallback=True) is not None
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
        assert resolve_store(None).root == str(tmp_path)
        monkeypatch.setenv("REPRO_TRACE_CACHE", "off")
        assert resolve_store(None) is None
        assert resolve_store(tmp_path) is not None  # explicit wins

    def test_round_trip_via_plain_bytes(self, warm_store):
        store, digest, session = warm_store
        art = session.baseline().trace
        assert loads_artifact(dumps_artifact(art)).depths == art.depths


class TestSchemaVersion:
    def test_stored_form_is_pinned_per_version(self):
        art = Session.open("fig4_ex5", n=50,
                           trace_cache=False).baseline().trace
        art.ensure_static()
        digest = hashlib.sha256(dumps_artifact(art)).hexdigest()
        assert SCHEMA_DIGESTS.get(SCHEMA_VERSION) == digest, (
            f"the stored form changed: bump SCHEMA_VERSION and pin "
            f"{{{SCHEMA_VERSION + 1}: {digest!r}}}")

    def test_stored_static_graph_is_never_rebuilt(self, warm_store,
                                                  monkeypatch):
        store, digest, session = warm_store
        session.baseline().trace.ensure_static()
        assert store.put(digest, session.baseline().trace)
        monkeypatch.setattr(
            TraceArtifact, "_build_static_columns",
            lambda self: pytest.fail("a stored static graph was rebuilt"))
        warm = store.get(digest)
        assert warm.s_succ_ptr is not None
        warm.ensure_static()
        assert (warm.resimulate({"fifo2": 5}).cycles
                == session.resimulate({"fifo2": 5}).cycles)

    def test_older_schema_entry_is_never_read(self, tmp_path, monkeypatch,
                                              capsys):
        with monkeypatch.context() as patch:
            patch.setattr(store_module, "SCHEMA_VERSION", SCHEMA_VERSION - 1)
            old = Session.open("fig4_ex5", n=120, trace_cache=tmp_path)
            assert old.baseline().phase_seconds["capture"] == "cold"
            old_path = old.trace_store.path(old.trace_digest())
        asked = []
        get = TraceStore.get
        monkeypatch.setattr(TraceStore, "get", lambda self, digest: (
            asked.append(self.path(digest)) or get(self, digest)))
        session = Session.open("fig4_ex5", n=120, trace_cache=tmp_path)
        assert session.baseline().phase_seconds["capture"] == "cold"
        assert old_path not in asked and os.path.exists(old_path)
        d = str(tmp_path)
        assert cli.main(["trace", "verify", "--cache-dir", d,
                         "--prune"]) == 0
        assert "1 ok, 1 outdated, 0 corrupt (removed)" \
            in capsys.readouterr().out
        assert not os.path.exists(old_path)
        assert [e.digest for e in session.trace_store.entries()] \
            == [session.trace_digest()]


#: a design that deadlocks at its *declared* depths (the writer bursts
#: 8 items into a depth-2 FIFO before the reader is released) but runs
#: fine under `--depth q=8` — the cmd_run trace-serving path must let
#: the override decide instead of dying on the baseline capture.
_BURST_SPEC = """\
design: burst_gate
type: A
description: two-phase burst that deadlocks at declared depths
fifos:
  - name: q
    type: i32
    depth: 2
  - name: go
    type: i32
    depth: 1
buffers: []
scalars:
  - name: total
    type: i32
modules:
  - name: burst_src
    source: |
      def burst_src(q: hls.StreamOut(hls.i32),
                    go: hls.StreamOut(hls.i32)):
          for i in range(8):
              hls.pipeline(ii=1)
              q.write(i)
          go.write(1)
    binds: {q: q, go: go}
  - name: burst_sink
    source: |
      def burst_sink(q: hls.StreamIn(hls.i32),
                     go: hls.StreamIn(hls.i32),
                     total: hls.ScalarOut(hls.i32)):
          t = go.read()
          acc = 0
          for i in range(8):
              hls.pipeline(ii=1)
              acc += q.read()
          total.set(acc + t)
    binds: {q: q, go: go, total: total}
"""


class TestCli:
    def test_run_twice_serves_warm(self, tmp_path, capsys):
        argv = ["run", "fig4_ex3", "--trace-cache", str(tmp_path)]
        assert cli.main(argv) == 0
        assert "cold-capture baseline" in capsys.readouterr().out
        assert cli.main(argv) == 0
        assert "warm-capture baseline" in capsys.readouterr().out

    def test_depth_override_rescues_deadlocked_baseline(self, tmp_path,
                                                        capsys):
        spec = tmp_path / "burst.yaml"
        spec.write_text(_BURST_SPEC)
        cache = str(tmp_path / "cache")
        # declared depths truly deadlock (with or without the cache)
        assert cli.main(["run", str(spec)]) == 2
        capsys.readouterr()
        # the cached-baseline fast path must not turn a valid override
        # into a spurious deadlock: the full run at q=8 decides
        assert cli.main(["run", str(spec), "--depth", "q=8",
                         "--trace-cache", cache]) == 0
        out = capsys.readouterr().out
        assert "total = 29" in out  # 0+..+7 + the go token
        assert cli.main(["run", str(spec), "--trace-cache", cache]) == 2

    def test_trace_info_verify_gc(self, warm_store, tmp_path, capsys):
        d = str(tmp_path)
        assert cli.main(["trace", "info", "--cache-dir", d]) == 0
        out = capsys.readouterr().out
        assert "fig4_ex5" in out and "1 artifact(s)" in out
        assert cli.main(["trace", "verify", "--cache-dir", d]) == 0
        assert "1 ok, 0 corrupt" in capsys.readouterr().out
        assert cli.main(["trace", "gc", "--cache-dir", d]) == 0
        assert "removed 1 artifact(s)" in capsys.readouterr().out
        assert cli.main(["trace", "info", "--cache-dir", d]) == 0
        assert "empty" in capsys.readouterr().out

    def test_trace_verify_exit_code_on_corrupt(self, warm_store,
                                               tmp_path, capsys):
        store, digest, _ = warm_store
        with open(store.path(digest), "wb") as fh:
            fh.write(b"junk")
        d = str(tmp_path)
        assert cli.main(["trace", "verify", "--cache-dir", d]) == 1
        capsys.readouterr()
        assert cli.main(["trace", "verify", "--cache-dir", d,
                         "--prune"]) == 0
        capsys.readouterr()


class TestDseWarmCapture:
    def test_sweep_warm_second_run_and_digest_shipping(self, tmp_path):
        from repro.dse import explore

        def sweep():
            with Session.open("vector_add_stream", n=64,
                              trace_cache=str(tmp_path)) as session:
                return explore(session, ["sc=1:4"], jobs=2)

        cold = sweep()
        warm = sweep()
        assert cold.capture == "cold"
        assert warm.capture == "warm"
        assert ([p.cycles for p in cold.points]
                == [p.cycles for p in warm.points])
        assert warm.incremental_count == warm.evaluated
        blob = json.loads(json.dumps(warm.to_json()))
        assert blob["capture"] == "warm"

    def test_session_trace_cache_conflict_rejected(self, tmp_path):
        from repro.dse import explore

        session = Session.open("fig4_ex5", n=120)
        with pytest.raises(TypeError):
            explore(session, ["fifo2=1:2"], trace_cache=str(tmp_path))


class TestBatchStripping:
    def test_run_many_strips_trace_by_default(self):
        session = Session.open("fig4_ex5", n=120)
        batch = session.run_many([{"depths": {"fifo2": d}}
                                  for d in (2, 3, 4, 5)], jobs=2)
        assert all(r.trace is None for r in batch)
        # the session's own baseline keeps its replay state
        assert session.baseline().trace is not None


class TestAutoEviction:
    """ISSUE 9 satellite: ``TraceStore(max_bytes=...)`` /
    ``REPRO_TRACE_CACHE_MAX_BYTES`` bound the cache, enforced
    opportunistically on every successful put."""

    @staticmethod
    def _artifact():
        return Session.open("fig4_ex5", n=100).trace

    def test_parse_size(self):
        from repro.trace.store import parse_size

        assert parse_size("64") == 64
        assert parse_size("2K") == 2048
        assert parse_size("3m") == 3 * 1024 ** 2
        assert parse_size("1G") == 1024 ** 3
        with pytest.raises(ValueError):
            parse_size("lots")
        with pytest.raises(ValueError):
            parse_size("-5")

    def test_put_evicts_lru_past_bound(self, tmp_path):
        artifact = self._artifact()
        store = TraceStore(tmp_path)
        assert store.max_bytes is None  # env unset -> unbounded
        store.put("a" * 64, artifact)
        size = store.entries()[0].size
        # room for exactly two entries; the third put must evict the
        # least-recently-used one
        store = TraceStore(tmp_path, max_bytes=2 * size + size // 2)
        store.put("b" * 64, artifact)
        now = os.path.getmtime(store.path("b" * 64))
        # make "a" clearly the LRU
        os.utime(store.path("a" * 64), (now - 100, now - 100))
        os.utime(store.path("b" * 64), (now - 50, now - 50))
        store.put("c" * 64, artifact)
        assert not store.contains("a" * 64)
        assert store.contains("b" * 64)
        assert store.contains("c" * 64)

    def test_single_oversized_entry_is_evicted(self, tmp_path):
        artifact = self._artifact()
        store = TraceStore(tmp_path, max_bytes=16)
        assert store.put("d" * 64, artifact)  # write succeeds...
        assert not store.contains("d" * 64)   # ...then the bound wins

    def test_env_var_bounds_new_stores(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE_MAX_BYTES", "2K")
        assert TraceStore(tmp_path).max_bytes == 2048
        # explicit argument wins over the environment
        assert TraceStore(tmp_path, max_bytes=64).max_bytes == 64

    def test_malformed_env_var_warns_and_ignores(self, tmp_path,
                                                 monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE_MAX_BYTES", "many")
        with pytest.warns(RuntimeWarning, match="MAX_BYTES"):
            store = TraceStore(tmp_path)
        assert store.max_bytes is None

    def test_bounded_store_still_serves_warm(self, tmp_path):
        session = Session.open("fig4_ex5", n=100, trace_cache=tmp_path)
        session.trace_store.max_bytes = 64 * 1024 ** 2
        assert session.baseline().phase_seconds["capture"] == "cold"
        warm = Session.open("fig4_ex5", n=100, trace_cache=tmp_path)
        assert warm.baseline().phase_seconds["capture"] == "warm"
