"""``serve_sweep``: a tool calling ``POST /v1/sweep``.

``python -m repro serve --port 0 --workers 2`` runs as a subprocess.
A pass is a seeded mix of 50 requests — 70 % hot ``/v1/sweep``
(``fig4_ex5 n=400``, ``fifo2=2:65``), 20 % hot ``/v1/run`` with a depth
override, 8 % fallback ``/v1/sweep`` (``fifo1=1:8 x fifo2=2,8``), 2 %
an unseen design (``n=401+i``: compile + capture) — sent in a closed
loop (the next request goes out when the previous response is
complete) first down one keep-alive connection, then down two at once.
``service`` (wire, pool, single-flight, thread hand-off) does most of
the work; every simulation layer is hot.  The server's threads share
one GIL, so two connections serve *fewer* requests per second than one.

The end-to-end metrics come from the one-connection drive, which is
CPU-bound and speed-normalised like every other workload.  With two
clients most of a request's latency is the interpreter's 5 ms GIL
switch interval, a wall-clock constant (measured: +18 % latency for a
+55 % slowdown): dividing it by the machine's slowdown over-corrects,
and left raw it spreads 16-30 % between runs with the machine.  So the
two-connection drive is checked like any other op and reported per
layer (``service.duo_*``, ``service.concurrency_scaling``), as
measured.

``--seed`` shuffles the request order and picks the ``/v1/run`` depths.
"""

from __future__ import annotations

import http.client
import json
import random
import re
import select
import signal
import statistics
import subprocess
import sys
import threading
import time
from contextlib import nullcontext

import harness
from calibrate import slowdown
from stats import percentile

from repro.api import Session
from repro.service import wire

DESIGN = "fig4_ex5"
HOT_PARAMS = {"n": 400}
HOT_SPACE = ["fifo2=2:65"]
FALLBACK_SPACE = ["fifo1=1:8", "fifo2=2,8"]
#: requests of each kind in one two-connection pass (70/20/8/2 %)
MIX = {"sweep": 35, "run": 10, "fallback": 4, "unseen": 1}
SMOKE_MIX = {"sweep": 7, "run": 2, "fallback": 1, "unseen": 1}
#: unseen designs appended to the one-connection drive, so that the
#: cold request has three samples per pass
SOLO_UNSEEN = 2
#: hot sweeps per connection in the traced pass's like-for-like drives
HOT_REQUESTS = 15
#: requests between two samples of the machine's slowdown
BRACKET_EVERY = 5
RUN_DEPTHS = range(3, 65)
CONNECTIONS = 2


class Server:
    """The ``repro serve`` subprocess."""

    def __init__(self):
        self.log = open(harness.TMP / "server.log", "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", "2"],
            env=harness.child_env(), cwd=harness.ROOT,
            stdout=subprocess.PIPE, stderr=self.log, text=True)
        ready, _, _ = select.select([self.proc.stdout], [], [], 60)
        line = self.proc.stdout.readline() if ready else ""
        match = re.search(r"http://[\d.]+:(\d+)", line)
        if match is None:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(match.group(1))

    def stop(self) -> int:
        """SIGTERM (graceful drain), wait, return the exit code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()
        return self.proc.returncode


def post(conn, path: str, body: str) -> tuple:
    """One request on a keep-alive connection: (latency, status, raw
    body).  The clock stops when the whole body has been read; a
    transport error is reported as status 0."""
    start = time.perf_counter()
    try:
        conn.request("POST", path, body)
        response = conn.getresponse()
        raw, status = response.read(), response.status
    except (OSError, http.client.HTTPException):
        conn.close()
        raw, status = b"", 0
    return time.perf_counter() - start, status, raw


class ServeSweep:
    name = "serve_sweep"
    setup_repeats = 5
    throughput_kinds = ["solo:sweep", "solo:run", "solo:fallback",
                        "solo:unseen"]
    primary_kinds = ["solo:sweep"]
    cold_kind = "solo:unseen"

    def __init__(self, seed: int, smoke: bool = False):
        self.rng = random.Random(seed)
        self.mix = SMOKE_MIX if smoke else MIX
        self.hot_requests = 5 if smoke else HOT_REQUESTS
        self.server = None
        self.conns: list = []
        self.unseen = 0
        #: in-process twin of the server's hot session, and the values
        #: it gives per reference key
        self.session = Session.open(DESIGN, trace_cache=False, **HOT_PARAMS)
        self.refs: dict = {}
        self.configs: dict = {}
        self.http_errors = 0

    # -- requests -------------------------------------------------------

    def _request_of(self, kind: str) -> tuple:
        """(kind, path, JSON body, reference key) of one request."""
        doc = {"design": DESIGN, "params": HOT_PARAMS}
        path, key = "/v1/sweep", (kind,)
        if kind == "sweep":
            doc["space"] = HOT_SPACE
        elif kind == "run":
            depth = self.rng.choice(RUN_DEPTHS)
            path, key = "/v1/run", (kind, depth)
            doc["depths"] = {"fifo2": depth}
        elif kind == "fallback":
            doc["space"] = FALLBACK_SPACE
        else:
            self.unseen += 1
            n = HOT_PARAMS["n"] + self.unseen
            key = (kind, n)
            doc.update(params={"n": n}, space=HOT_SPACE)
        return kind, path, json.dumps(doc), key

    def _requests(self) -> list:
        """One two-connection pass: the mix, in seeded order."""
        kinds = [k for k, count in self.mix.items() for _ in range(count)]
        self.rng.shuffle(kinds)
        return [self._request_of(kind) for kind in kinds]

    def _hot(self, count: int) -> list:
        return [self._request_of("sweep") for _ in range(count)]

    def _drive(self, requests, conns, tr=None) -> tuple:
        """Closed loop: each connection takes the next request off the
        shared list when its previous response is complete.  Returns
        (wall, [(kind, key, latency, status, raw body)]); with a tracer
        every request is a span, and the wall and latencies are
        speed-normalised when the caller holds a ``tr.bracket()``."""
        results: list = [[] for _ in conns]
        cursor = iter(requests)
        lock = threading.Lock()

        def client(slot: int) -> None:
            conn = conns[slot]
            while True:
                with lock:
                    item = next(cursor, None)
                if item is None:
                    return
                kind, path, body, key = item
                if tr is None:
                    latency, status, raw = post(conn, path, body)
                else:
                    with tr.op(f"{slot}:{len(results[slot])}"), \
                            tr.span(f"service.request.{kind}") as latency:
                        _wall, status, raw = post(conn, path, body)
                results[slot].append((kind, key, latency, status, raw))

        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(len(conns))]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - start
        return wall, [r for lane in results for r in lane]

    def _traced_drive(self, tr, requests, conns, bracket: bool) -> tuple:
        """:meth:`_drive` under one ``service.drive`` span; (wall,
        results) with seconds read back from the spans — normalised
        when ``bracket`` is set, as measured otherwise."""
        with (tr.bracket() if bracket else nullcontext()), \
                tr.span("service.drive") as whole:
            _wall, results = self._drive(requests, conns, tr)
        return tr.seconds(whole), [
            (kind, key, tr.seconds(span), status, raw)
            for kind, key, span, status, raw in results]

    # -- lifecycle ------------------------------------------------------

    def setup(self) -> None:
        self.server = Server()
        self.conns = [http.client.HTTPConnection(
            "127.0.0.1", self.server.port, timeout=120)
            for _ in range(CONNECTIONS)]
        # first touch captures the hot design; then an untimed warm-up
        # that sends every kind of request down both connections
        self._drive([self._request_of("sweep")], self.conns[:1])
        self._drive([self._request_of(kind) for kind in self.mix] * 2,
                    self.conns)

    def teardown(self) -> None:
        for conn in self.conns:
            conn.close()
        self.conns = []
        if self.server is not None:
            server, self.server = self.server, None
            if server.stop() != 0:
                raise RuntimeError("repro serve did not drain cleanly")

    def _reference(self, key: tuple):
        """The in-process value an HTTP body must equal."""
        if key not in self.refs:
            if key[0] == "unseen":
                self.refs[key] = Session.open(
                    DESIGN, trace_cache=False, n=key[1]).sweep(HOT_SPACE)
            elif key[0] == "run":
                self.refs[key] = self.session.run(
                    depths={"fifo2": key[1]}).cycles
            else:
                self.refs[key] = self.session.sweep(
                    HOT_SPACE if key[0] == "sweep" else FALLBACK_SPACE)
        return self.refs[key]

    def verify(self, check) -> None:
        """The in-process values of the two fixed sweeps; depth configs
        one request of each kind evaluates."""
        hot = len(self._reference(("sweep",)).points)
        self.configs = {
            "sweep": hot, "unseen": hot, "run": 1,
            "fallback": len(self._reference(("fallback",)).points)}

    def _check(self, check, results) -> float:
        """Every body against its in-process reference; returns the
        server-side seconds the 200 responses reported."""
        server_s = 0.0
        for kind, key, _latency, status, raw in results:
            if status != 200:
                self.http_errors += 1
                check.ok(f"{kind} HTTP status", False, f"status {status}")
                continue
            doc = json.loads(raw)
            server_s += doc["seconds"]
            want = self._reference(key)
            if kind == "run":
                check.cycles(f"run fifo2={key[1]} vs in-process",
                             doc["cycles"], want)
                continue
            check.cycles(f"{kind} base cycles vs in-process",
                         doc["base_cycles"], want.base_cycles)
            check.ok(f"{kind} points vs in-process",
                     [(p["depths"], p["cycles"], p["buffer_bits"])
                      for p in doc["points"]]
                     == [(p.depths, p.cycles, p.buffer_bits)
                         for p in want.points])
        return server_s

    # -- timed pass -----------------------------------------------------

    def run_pass(self, rec) -> None:
        # one connection: CPU-bound, so the machine's slowdown is
        # sampled every few requests (the server is idle meanwhile)
        requests = self._requests() + [self._request_of("unseen")
                                       for _ in range(SOLO_UNSEEN)]
        conn = self.conns[0]
        results = []
        before = slowdown()
        for lo in range(0, len(requests), BRACKET_EVERY):
            chunk = [(kind, key, *post(conn, path, body))
                     for kind, path, body, key
                     in requests[lo:lo + BRACKET_EVERY]]
            after = slowdown()
            for kind, _key, latency, _status, _raw in chunk:
                rec.add(f"solo:{kind}", latency, self.configs[kind],
                        slowdown=(before + after) / 2)
            before = after
            results += chunk
        # two connections: as measured, for the run record
        wall, duo = self._drive(self._requests(), self.conns)
        rec.add("duo:pass", wall, len(duo))
        for kind, _key, latency, _status, _raw in duo:
            rec.add(f"duo:{kind}", latency, self.configs[kind])
        self._check(rec.check, results + duo)

    # -- traced pass ----------------------------------------------------

    def _meta(self) -> dict:
        conn = self.conns[0]
        conn.request("GET", "/v1/meta")
        return json.loads(conn.getresponse().read())

    def traced(self, tr, check, seconds: float) -> dict:
        before = self._meta()["captures"]
        walls = {"untraced": [], "traced": [], "solo": [], "duo": []}
        mix, solo, duo = [], [], []
        server_s = 0.0
        deadline = time.perf_counter() + seconds
        while not walls["traced"] or time.perf_counter() < deadline:
            # the two-connection mix, untraced then traced: as measured
            wall, results = self._drive(self._requests(), self.conns)
            walls["untraced"].append(wall)
            self._check(check, results)
            wall, results = self._traced_drive(
                tr, self._requests(), self.conns, bracket=False)
            walls["traced"].append(wall)
            server_s += self._check(check, results)
            mix += results
            # like for like: hot sweeps only, one connection
            # (normalised), then two (as measured)
            wall, results = self._traced_drive(
                tr, self._hot(self.hot_requests), self.conns[:1],
                bracket=True)
            walls["solo"].append(wall)
            solo += results
            wall, results = self._traced_drive(
                tr, self._hot(2 * self.hot_requests), self.conns,
                bracket=False)
            walls["duo"].append(wall)
            duo += results
            self._check(check, solo[-self.hot_requests:]
                        + duo[-2 * self.hot_requests:])
        after = self._meta()["captures"]

        def latencies(results, kind: str = "sweep") -> list:
            return [lat for k, _key, lat, _s, _raw in results if k == kind]

        # solo is speed-normalised and duo is not: put the solo rate
        # back on the wall clock of this run before dividing
        solo_rps = len(solo) / sum(walls["solo"])
        duo_rps = len(duo) / sum(walls["duo"])
        slowdown = statistics.median(tr.slowdowns)
        hot_raw = next(raw for k, _key, _l, s, raw in mix
                       if k == "sweep" and s == 200)
        request = json.dumps({"design": DESIGN, "params": HOT_PARAMS,
                              "space": HOT_SPACE})

        def micro(name: str, fn, repeats: int = 200) -> float:
            with tr.bracket(), tr.span(name) as whole:
                for _ in range(repeats):
                    fn()
            return 1e6 * tr.seconds(whole) / repeats

        response = wire.SweepResponse.from_json(json.loads(hot_raw))
        mix_latency = sum(lat for _k, _key, lat, _s, _raw in mix)
        return {
            "service.wire.parse_us": micro(
                "service.wire.parse",
                lambda: wire.parse_request(wire.SweepRequest, request)),
            "service.wire.dumps_us": micro(
                "service.wire.dumps", lambda: wire.dumps(response)),
            "service.response_bytes": len(hot_raw),
            "service.solo_p50_ms": 1e3 * statistics.median(latencies(solo)),
            "service.solo_rps": solo_rps,
            "service.duo_p50_ms": 1e3 * statistics.median(latencies(duo)),
            "service.duo_p95_ms": 1e3 * percentile(latencies(duo), 0.95),
            "service.duo_rps": duo_rps,
            "service.concurrency_scaling": duo_rps / (solo_rps / slowdown),
            "service.server_share": server_s / mix_latency,
            "service.hot_run_p50_ms":
                1e3 * statistics.median(latencies(mix, "run")),
            "service.cold_req_ms":
                1e3 * statistics.median(latencies(mix, "unseen")),
            "service.path_hot": after["hot"] - before["hot"],
            "service.path_cold": after["cold"] - before["cold"],
            "service.path_coalesced":
                after["coalesced"] - before["coalesced"],
            "service.http_errors": self.http_errors,
            "trace_overhead_pct": 100.0 * (
                statistics.median(walls["traced"])
                / statistics.median(walls["untraced"]) - 1.0),
            "attribution_gap_pct": 100.0 * (1.0 - server_s / mix_latency),
        }
