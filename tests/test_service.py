"""Simulation-as-a-service tests (ISSUE 9).

Covers the wire schema (strict, versioned round-trips), the
centralized exception -> exit-code / HTTP-status table (CLI parity),
the session pool + single-flight coalescer, the HTTP server end to end
(every endpoint, every error family, limits, drain), and the headline
concurrency guarantee: N parallel first-touch clients on one design
digest trigger exactly one compile+capture and all receive bit-identical
results.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import socket
import threading
import time

import pytest

from repro import errors
from repro.api import Session
from repro.errors import (
    DeadlockError,
    ReproError,
    STATUS_TABLE,
    UnknownDesignError,
    WireError,
    exit_code_for,
    http_status_for,
)
from repro.service import (
    SCHEMA_VERSION,
    ServiceConfig,
    SessionPool,
    SingleFlight,
    design_digest,
    serve_in_thread,
)
from repro.service import wire
from tests.conftest import assert_cli_refuses


# ---------------------------------------------------------------------------
# plain HTTP client helpers (stdlib; one connection per call)


def _post(port, path, doc, timeout=60.0):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        body = doc if isinstance(doc, (str, bytes)) else json.dumps(doc)
        conn.request("POST", path, body,
                     {"Content-Type": "application/json"})
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read())
    finally:
        conn.close()


def _get(port, path, timeout=30.0):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read())
    finally:
        conn.close()


@pytest.fixture(scope="module")
def server():
    """One shared warm server for the sequential endpoint tests."""
    handle = serve_in_thread(workers=4)
    yield handle
    handle.stop()


# ---------------------------------------------------------------------------
# wire schema


class TestWire:
    def test_run_request_round_trip(self):
        req = wire.RunRequest(design="fig4_ex5", depths={"fifo2": 8},
                              executor="interp")
        doc = wire.to_json(req)
        again = wire.RunRequest.from_json(json.loads(json.dumps(doc)))
        assert again == req

    def test_unknown_field_rejected(self):
        with pytest.raises(WireError, match="unknown field"):
            wire.RunRequest.from_json({"design": "x", "bogus": 1})

    def test_schema_version_mismatch_rejected(self):
        with pytest.raises(WireError, match="schema_version"):
            wire.RunRequest.from_json(
                {"design": "x", "schema_version": SCHEMA_VERSION + 1})

    def test_design_xor_spec(self):
        with pytest.raises(WireError, match="exactly one"):
            wire.RunRequest.from_json({})
        with pytest.raises(WireError, match="exactly one"):
            wire.RunRequest.from_json({"design": "a", "spec": "b: 1"})

    def test_depth_validation(self):
        with pytest.raises(WireError, match="integer depth"):
            wire.RunRequest.from_json(
                {"design": "a", "depths": {"f": 0}})
        with pytest.raises(WireError, match="integer depth"):
            wire.RunRequest.from_json(
                {"design": "a", "depths": {"f": True}})

    def test_params_must_be_scalars(self):
        with pytest.raises(WireError, match="scalar"):
            wire.RunRequest.from_json(
                {"design": "a", "params": {"n": [1, 2]}})

    def test_sweep_configs_xor_space(self):
        with pytest.raises(WireError, match="exactly one of 'configs'"):
            wire.SweepRequest.from_json({"design": "a"})
        with pytest.raises(WireError, match="exactly one of 'configs'"):
            wire.SweepRequest.from_json(
                {"design": "a", "configs": [{"f": 1}], "space": ["f=1:2"]})

    def test_sweep_strategy_validation(self):
        good = wire.SweepRequest.from_json(
            {"design": "a", "space": ["f=1:2"], "strategy": "refine",
             "max_evals": 10})
        assert (good.strategy, good.max_evals) == ("refine", 10)
        with pytest.raises(WireError, match="strategy must be one of"):
            wire.SweepRequest.from_json(
                {"design": "a", "space": ["f=1:2"], "strategy": "anneal"})
        with pytest.raises(WireError, match="'space' sweeps only"):
            wire.SweepRequest.from_json(
                {"design": "a", "configs": [{"f": 1}],
                 "strategy": "refine"})
        with pytest.raises(WireError, match="exhaustive strategy only"):
            wire.SweepRequest.from_json(
                {"design": "a", "space": ["f=1:2"], "strategy": "refine",
                 "samples": 4})
        with pytest.raises(WireError, match="max_evals must be"):
            wire.SweepRequest.from_json(
                {"design": "a", "space": ["f=1:2"], "max_evals": 0})
        with pytest.raises(WireError, match="max_evals must be"):
            wire.SweepRequest.from_json(
                {"design": "a", "space": ["f=1:2"], "max_evals": True})

    def test_parse_request_bad_json(self):
        with pytest.raises(WireError, match="not JSON"):
            wire.parse_request(wire.RunRequest, b"{nope")
        with pytest.raises(WireError, match="not UTF-8"):
            wire.parse_request(wire.RunRequest, b"\xff\xfe{}")

    def test_response_round_trip(self):
        resp = wire.RunResponse(design="d", digest="abc", cycles=42,
                                capture="cold", serving="baseline")
        doc = json.loads(wire.dumps(resp))
        assert wire.RunResponse.from_json(doc) == resp

    def test_every_endpoint_has_a_request_type(self):
        assert set(wire.REQUEST_TYPES) == {
            "/v1/run", "/v1/sweep", "/v1/classify", "/v1/report"}


# ---------------------------------------------------------------------------
# centralized status table (satellite: CLI <-> HTTP parity)


class TestStatusTable:
    def test_every_public_exception_is_mapped(self):
        """Every concrete ReproError subclass maps deterministically —
        no exception can reach the wire unclassified."""
        public = [obj for name in dir(errors)
                  if isinstance((obj := getattr(errors, name)), type)
                  and issubclass(obj, ReproError)]
        assert len(public) >= 10
        for exc_cls in public:
            exc = exc_cls.__new__(exc_cls)
            assert isinstance(exit_code_for(exc), int)
            status = http_status_for(exc)
            assert 400 <= status <= 599

    def test_no_row_is_shadowed_by_an_earlier_base_class(self):
        """First-isinstance-match-wins: an earlier row that is a
        superclass of a later row would make the later one dead."""
        seen = []
        for exc_cls, _exit, _status in STATUS_TABLE:
            for earlier in seen:
                assert not issubclass(exc_cls, earlier), (
                    f"{exc_cls.__name__} is unreachable behind "
                    f"{earlier.__name__}")
            seen.append(exc_cls)

    def test_known_mappings(self):
        deadlock = DeadlockError.__new__(DeadlockError)
        assert exit_code_for(deadlock) == errors.EXIT_DEADLOCK
        assert http_status_for(deadlock) == 422
        assert http_status_for(UnknownDesignError("x")) == 404
        assert http_status_for(WireError("x")) == 400
        assert http_status_for(errors.DeadlineError("x")) == 504
        assert http_status_for(errors.ServerBusyError("x")) == 429
        assert http_status_for(errors.RequestTooLargeError("x")) == 413
        # the base class is the catch-all
        assert http_status_for(ReproError("x")) == 500
        assert exit_code_for(ValueError("x")) == errors.EXIT_ERROR
        assert http_status_for(ValueError("x")) == 500

    def test_cli_uses_the_same_table(self):
        """CLI parity: the run command's exit codes come from the table
        (deadlock -> 2, unknown design -> 1)."""
        from repro.cli import main
        assert main(["run", "deadlock"]) == errors.EXIT_DEADLOCK
        assert main(["run", "no_such_design_xyz"]) == errors.EXIT_ERROR


# ---------------------------------------------------------------------------
# pool + coalescer units


class TestSessionPool:
    def test_lru_eviction_closes_victim(self):
        pool = SessionPool(max_sessions=2)
        closed = []

        class FakeSession:
            def __init__(self, name):
                self.name = name

            def close(self):
                closed.append(self.name)

        pool.put("a", FakeSession("a"))
        pool.put("b", FakeSession("b"))
        assert pool.get("a").name == "a"  # refresh a: b is now LRU
        pool.put("c", FakeSession("c"))
        assert closed == ["b"]
        assert pool.get("b") is None
        assert pool.stats["evicted"] == 1
        assert len(pool) == 2

    def test_digest_distinguishes_params_and_kind(self):
        base = design_digest("registry", "fig4_ex5", {})
        assert design_digest("registry", "fig4_ex5", {"n": 9}) != base
        assert design_digest("inline", "fig4_ex5", {}) != base
        assert design_digest("registry", "fig4_ex5", {}) == base

    def test_single_flight_coalesces(self):
        calls = []

        async def main():
            flight = SingleFlight()

            async def work():
                calls.append(1)
                await asyncio.sleep(0.02)
                return "value"

            results = await asyncio.gather(
                *(flight.do("k", work) for _ in range(8)))
            return results

        results = asyncio.run(main())
        assert len(calls) == 1
        assert all(value == "value" for value, _owner in results)
        assert sum(owner for _value, owner in results) == 1

    def test_single_flight_propagates_errors_to_all(self):
        async def main():
            flight = SingleFlight()

            async def work():
                await asyncio.sleep(0.01)
                raise WireError("boom")

            results = await asyncio.gather(
                *(flight.do("k", work) for _ in range(4)),
                return_exceptions=True)
            await flight.drain()
            return results

        results = asyncio.run(main())
        assert len(results) == 4
        assert all(isinstance(r, WireError) for r in results)


# ---------------------------------------------------------------------------
# server end-to-end (shared warm instance)


class TestServerEndpoints:
    def test_healthz(self, server):
        status, doc = _get(server.port, "/healthz")
        assert (status, doc["status"]) == (200, "ok")

    def test_run_cold_then_hot(self, server):
        status, first = _post(server.port, "/v1/run",
                              {"design": "fig4_ex5"})
        assert status == 200
        assert first["serving"] == "baseline"
        assert first["cycles"] > 0
        status, second = _post(server.port, "/v1/run",
                               {"design": "fig4_ex5"})
        assert status == 200
        assert second["capture"] == "hot"
        assert second["cycles"] == first["cycles"]
        assert second["digest"] == first["digest"]

    def test_run_depth_override_is_incremental(self, server):
        status, doc = _post(server.port, "/v1/run",
                            {"design": "fig4_ex5",
                             "depths": {"fifo2": 8}})
        assert status == 200
        assert doc["serving"] in ("incremental", "full")
        # matches the library's own answer for the same override
        expected = Session.open("fig4_ex5").run(depths={"fifo2": 8})
        assert doc["cycles"] == expected.cycles

    def test_run_params_fork_the_digest(self, server):
        _status, base = _post(server.port, "/v1/run",
                              {"design": "fig4_ex5"})
        status, small = _post(server.port, "/v1/run",
                              {"design": "fig4_ex5", "params": {"n": 16}})
        assert status == 200
        assert small["digest"] != base["digest"]
        assert small["cycles"] != base["cycles"]

    def test_inline_spec(self, server):
        with open("examples/fig4_ex1.yaml", encoding="utf-8") as fh:
            text = fh.read()
        status, doc = _post(server.port, "/v1/run", {"spec": text})
        assert status == 200
        assert doc["cycles"] == Session.open(
            "examples/fig4_ex1.yaml").run().cycles
        # same spec again: pooled by content digest
        status, again = _post(server.port, "/v1/run", {"spec": text})
        assert again["capture"] == "hot"
        assert again["digest"] == doc["digest"]

    def test_sweep_configs(self, server):
        configs = [{"fifo2": d} for d in (1, 2, 4, 8)]
        status, doc = _post(server.port, "/v1/sweep",
                            {"design": "fig4_ex5", "configs": configs})
        assert status == 200
        assert doc["evaluated"] == 4
        assert [p["depths"] for p in doc["points"]] == configs
        session = Session.open("fig4_ex5")
        for point in doc["points"]:
            assert point["cycles"] == session.run(
                depths=point["depths"]).cycles

    def test_sweep_over_leftover_values_reports_deadlock_points(self, server):
        """A recording that ends with values left in its FIFO cannot be
        replayed below the depth that holds them: the replay declines
        with a typed error, the full run diagnoses the deadlock, and
        the request answers 200 with that point (it used to be a 500
        from a bare IndexError in the scalar WAR overlay)."""
        spec = {
            "design": "leftover_values", "type": "A",
            "constants": {"n": 10, "m": 2},
            "fifos": [{"name": "s1", "type": "i32", "depth": 16}],
            "buffers": [{"name": "data", "type": "i32", "size": 16,
                         "init": {"pattern": "range", "mul": 1, "add": 1}}],
            "scalars": [{"name": "total", "type": "i32"}],
            "modules": [
                {"name": "producer", "role": "producer", "data": "data",
                 "out": "s1", "count": "n", "ii": 1, "write": "blocking"},
                {"name": "consumer", "role": "sink", "in": "s1",
                 "count": "m", "total": "total", "ii": 1},
            ],
        }
        status, doc = _post(server.port, "/v1/sweep",
                            {"spec": spec, "space": ["s1=7:8"]})
        assert status == 200, doc
        assert [(p["depths"]["s1"], p["source"], p["cycles"])
                for p in doc["points"]] == [
            (7, "deadlock", None), (8, "incremental", 13)]

    def test_sweep_space_with_pareto(self, server):
        status, doc = _post(server.port, "/v1/sweep",
                            {"design": "fig4_ex5",
                             "space": ["fifo2=1:8"]})
        assert status == 200
        assert doc["evaluated"] == 8
        assert doc["pareto"], "space sweeps report the frontier"
        assert doc["base_cycles"] > 0
        assert doc["search"] is None, "plain sweeps carry no search block"
        for point in doc["pareto"]:
            assert point["buffer_bits"] is not None

    def test_sweep_adaptive_strategy_over_huge_space(self, server):
        # A million-config space sails past max_configs, but with an
        # eval budget the server admits it and the adaptive search
        # recovers a frontier — the whole point of the seam.
        status, doc = _post(server.port, "/v1/sweep",
                            {"design": "fig4_ex5",
                             "space": ["fifo1=1:1024", "fifo2=1:1024"],
                             "strategy": "refine", "max_evals": 64})
        assert status == 200
        assert doc["evaluated"] <= 64
        assert doc["pareto"]
        search = doc["search"]
        assert search["strategy"] == "refine"
        assert search["evals"]["budget"] == 64
        assert search["rounds"]

    def test_classify_and_report(self, server):
        status, doc = _post(server.port, "/v1/classify",
                            {"design": "fig4_ex2"})
        assert status == 200
        assert doc["design_type"] in ("A", "B", "C")
        status, doc = _post(server.port, "/v1/report",
                            {"design": "fig4_ex5"})
        assert status == 200
        assert doc["modules"] and all("module" in m
                                      for m in doc["modules"])

    def test_meta_counts(self, server):
        status, doc = _get(server.port, "/v1/meta")
        assert status == 200
        assert doc["schema_version"] == SCHEMA_VERSION
        assert doc["sessions"]["active"] >= 1
        assert doc["captures"]["cold"] >= 1


class TestServerErrors:
    """Every failure is a structured JSON document with the table's
    status — never a traceback on the wire."""

    def test_unknown_design_404(self, server):
        status, doc = _post(server.port, "/v1/run",
                            {"design": "no_such_design_xyz"})
        assert status == 404
        assert doc["type"] == "UnknownDesignError"
        assert doc["exit_code"] == errors.EXIT_ERROR
        assert "Traceback" not in doc["error"]

    def test_deadlock_maps_to_422_exit_2(self, server):
        status, doc = _post(server.port, "/v1/run",
                            {"design": "deadlock"})
        assert status == 422
        assert doc["type"] == "DeadlockError"
        assert doc["exit_code"] == errors.EXIT_DEADLOCK

    def test_wire_error_400(self, server):
        status, doc = _post(server.port, "/v1/run", {"bogus": 1})
        assert (status, doc["type"]) == (400, "WireError")
        status, doc = _post(server.port, "/v1/run", "{not json")
        assert (status, doc["type"]) == (400, "WireError")

    def test_server_side_paths_rejected(self, server):
        status, doc = _post(server.port, "/v1/run",
                            {"design": "examples/fig4_ex1.yaml"})
        assert (status, doc["type"]) == (400, "WireError")

    def test_unknown_fifo_400(self, server):
        status, doc = _post(server.port, "/v1/run",
                            {"design": "fig4_ex5",
                             "depths": {"nope": 4}})
        assert (status, doc["type"]) == (400, "UnknownFifoError")

    def test_unknown_engine_400(self, server):
        status, doc = _post(server.port, "/v1/run",
                            {"design": "fig4_ex5", "engine": "vcs"})
        assert (status, doc["type"]) == (400, "UnknownEngineError")

    @pytest.mark.parametrize("mistake, error", [
        ({"executor": "bogus"}, errors.RequestError),
        ({"params": {"bogus": 1}}, errors.DesignError),
        ({"params": {"n": "abc"}}, errors.DesignError),
    ], ids=["unknown-executor", "unknown-param", "mistyped-param"])
    def test_client_mistakes_are_400_not_500(self, server, capsys,
                                             mistake, error):
        # Regression: each answered 500 (ValueError / TypeError / the
        # unmapped DesignError base) with a traceback in the server log.
        status, doc = _post(server.port, "/v1/run",
                            dict({"design": "fig4_ex5"}, **mistake))
        refusal = error("x")
        assert status == doc["status"] == http_status_for(refusal) == 400
        assert doc["exit_code"] == exit_code_for(refusal)
        assert doc["type"] == error.__name__
        assert capsys.readouterr().err == ""    # nothing logged
        with pytest.raises(error):
            Session.open("fig4_ex5", trace_cache=False,
                         executor=mistake.get("executor"),
                         **mistake.get("params", {})).run()

    def test_unknown_endpoint_404_and_method_405(self, server):
        status, doc = _post(server.port, "/v1/nope", {})
        assert status == 404
        conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                          timeout=10)
        conn.request("GET", "/v1/run")
        assert conn.getresponse().status == 405
        conn.close()

    def test_oversized_body_413(self, server):
        big = json.dumps({"design": "fig4_ex5",
                          "params": {"pad": "x" * (3 * 1024 * 1024)}})
        status, doc = _post(server.port, "/v1/run", big)
        assert (status, doc["type"]) == (413, "RequestTooLargeError")

    def test_oversized_body_from_a_stalled_sender_is_cut_off(
            self, server, monkeypatch):
        """The refusal goes out from the Content-Length alone, and the
        discard of the in-flight body is bounded: a sender that stalls
        short of its declared length is disconnected at the deadline,
        not waited on."""
        from repro.service import server as server_module

        monkeypatch.setattr(server_module, "_DISCARD_SECONDS", 0.5)
        declared = 3 * 1024 * 1024
        with socket.create_connection(("127.0.0.1", server.port),
                                      timeout=10) as sock:
            start = time.monotonic()
            sock.sendall(
                b"POST /v1/run HTTP/1.1\r\nHost: x\r\n"
                b"Content-Type: application/json\r\n"
                + f"Content-Length: {declared}\r\n\r\n".encode()
                + b"x" * 1024)  # ...and then nothing more
            received = b""
            while True:  # until the server closes on us
                chunk = sock.recv(65536)
                if not chunk:
                    break
                received += chunk
            elapsed = time.monotonic() - start
        head, _, payload = received.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 413 ")
        assert json.loads(payload)["type"] == "RequestTooLargeError"
        assert 0.4 <= elapsed < 5.0, elapsed
        # the server is still healthy afterwards
        assert _get(server.port, "/healthz")[0] == 200

    def test_oversized_sweep_413(self, server):
        status, doc = _post(server.port, "/v1/sweep",
                            {"design": "fig4_ex5",
                             "space": ["fifo1=1:100", "fifo2=1:100"]})
        assert (status, doc["type"]) == (413, "RequestTooLargeError")
        # The refusal teaches the escape hatch: the adaptive seam.
        assert "strategy" in doc["error"]

    def test_oversized_adaptive_budget_413_names_max_evals(self, server):
        status, doc = _post(server.port, "/v1/sweep",
                            {"design": "fig4_ex5",
                             "space": ["fifo1=1:100", "fifo2=1:100"],
                             "strategy": "refine",
                             "max_evals": 1_000_000})
        assert (status, doc["type"]) == (413, "RequestTooLargeError")
        assert "max_evals" in doc["error"]

    def test_deadline_504(self):
        with serve_in_thread(workers=2) as handle:
            status, doc = _post(handle.port, "/v1/run",
                                {"design": "typea_large",
                                 "deadline": 1e-4})
            assert (status, doc["type"]) == (504, "DeadlineError")
            assert doc["exit_code"] == errors.EXIT_ERROR

    def test_uncreatable_trace_cache_still_serves_200(self, tmp_path):
        # Regression: the store's makedirs sat outside its OSError
        # guard, so every cold /v1/run answered 500 NotADirectoryError.
        (tmp_path / "afile").write_text("not a directory")
        cache = str(tmp_path / "afile" / "cache")
        with pytest.warns(RuntimeWarning, match="trace cache"):
            with serve_in_thread(workers=2, trace_cache=cache) as handle:
                status, doc = _post(handle.port, "/v1/run",
                                    {"design": "fig4_ex5"})
        assert status == 200
        assert doc["cycles"] == Session.open(
            "fig4_ex5", trace_cache=False).run().cycles

    def test_draining_rejects_with_429_then_exits(self):
        """While one request is still in flight, a drain rejects new
        POSTs on open connections with 429, finishes the in-flight
        work, then the server thread exits cleanly."""

        handle = serve_in_thread(workers=2)
        service = handle.service
        original = service._make_session

        def slow_make(*args, **kwargs):
            time.sleep(0.8)  # holds the request in flight (worker)
            return original(*args, **kwargs)

        service._make_session = slow_make
        # an established keep-alive connection, opened pre-drain
        conn = http.client.HTTPConnection("127.0.0.1", handle.port,
                                          timeout=15)
        conn.request("GET", "/healthz")
        conn.getresponse().read()
        inflight = {}

        def fire():
            inflight["result"] = _post(handle.port, "/v1/run",
                                       {"design": "fig4_ex5"},
                                       timeout=30)

        thread = threading.Thread(target=fire)
        thread.start()
        time.sleep(0.2)  # the slow request is now in flight
        handle._loop.call_soon_threadsafe(service.request_shutdown)
        time.sleep(0.05)
        conn.request("POST", "/v1/run",
                     json.dumps({"design": "fig4_ex5"}))
        resp = conn.getresponse()
        doc = json.loads(resp.read())
        conn.close()
        assert (resp.status, doc["type"]) == (429, "ServerBusyError")
        thread.join(30)
        status, run_doc = inflight["result"]
        assert status == 200 and run_doc["cycles"] > 0, (
            "in-flight work completes during drain")
        handle.stop()
        assert not handle._thread.is_alive()


# ---------------------------------------------------------------------------
# the headline concurrency guarantee (satellite: stress test)


class TestConcurrentFirstTouch:
    N = 12

    def _hammer(self, port, doc, n):
        results = [None] * n
        barrier = threading.Barrier(n)

        def worker(i):
            barrier.wait()
            results[i] = _post(port, "/v1/run", doc)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return results

    def test_exactly_one_cold_capture_bit_identical(self):
        serial = Session.open("typea_large").run()
        with serve_in_thread(workers=8) as handle:
            results = self._hammer(handle.port,
                                   {"design": "typea_large"}, self.N)
            statuses = {s for s, _ in results}
            assert statuses == {200}
            cycles = {doc["cycles"] for _, doc in results}
            assert cycles == {serial.cycles}, "bit-identical vs serial"
            captures = sorted(doc["capture"] for _, doc in results)
            assert captures.count("cold") == 1
            assert set(captures) <= {"cold", "coalesced", "hot"}
            _status, meta = _get(handle.port, "/v1/meta")
            assert meta["captures"]["cold"] == 1
            assert meta["sessions"]["created"] == 1

    def test_concurrent_depth_overrides_share_one_capture(self):
        docs = [{"design": "fig4_ex5", "depths": {"fifo2": 1 + i % 6}}
                for i in range(self.N)]
        session = Session.open("fig4_ex5")
        expected = {json.dumps(d["depths"]): session.run(
            depths=d["depths"]).cycles for d in docs}
        with serve_in_thread(workers=8) as handle:
            results = [None] * self.N
            barrier = threading.Barrier(self.N)

            def worker(i):
                barrier.wait()
                results[i] = _post(handle.port, "/v1/run", docs[i])

            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(self.N)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            for doc, (status, resp) in zip(docs, results):
                assert status == 200
                assert resp["cycles"] == expected[
                    json.dumps(doc["depths"])]
            _status, meta = _get(handle.port, "/v1/meta")
            assert meta["captures"]["cold"] == 1

    def test_session_object_thread_safe_single_capture(self):
        """The Session-level guarantee under the service's thread pool:
        concurrent baseline() fills run exactly one capture."""
        session = Session.open("fig4_ex5")
        fills = []
        original = Session._capture_baseline

        def counting(self, key, refresh):
            fills.append(key)
            return original(self, key, refresh)

        Session._capture_baseline = counting
        try:
            barrier = threading.Barrier(8)
            out = [None] * 8

            def worker(i):
                barrier.wait()
                out[i] = session.baseline()

            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            Session._capture_baseline = original
        assert len(fills) == 1
        assert all(r is out[0] for r in out), "one shared result object"
        assert session.has_baseline()


# ---------------------------------------------------------------------------
# CLI serve plumbing


class TestServeCli:
    def test_bad_workers_rejected(self):
        assert_cli_refuses(["serve", "--workers", "0"], "workers")

    def test_bad_max_body_rejected(self):
        assert_cli_refuses(["serve", "--max-body", "lots"], "lots")
