"""Simulation-as-a-service: the asyncio HTTP/JSON front end.

A single long-running process multiplexes many concurrent clients over
shared warm :class:`~repro.api.Session` baselines (``repro serve``).
Pure stdlib: a hand-rolled HTTP/1.1 server over ``asyncio`` streams —
no framework, no sockets-level dependency.

Endpoints (wire schema: :mod:`repro.service.wire`):

* ``POST /v1/run`` — one simulation (registry name or inline DSL spec;
  OmniSim requests are served from the pooled warm baseline, depth
  overrides by constraint-checked incremental replay with full-run
  fallback);
* ``POST /v1/sweep`` — resimulate-many (explicit ``configs``) or
  depth-space exploration (``space`` axes, with the Pareto frontier);
* ``POST /v1/classify`` / ``POST /v1/report`` — analysis endpoints;
* ``GET /healthz`` — liveness;
* ``GET /v1/meta`` — schema version, pool/capture/request statistics.

Concurrency model: the event loop only parses and routes; every
CPU-bound step (compile, capture, replay, sweep) is dispatched to a
``--workers``-sized thread pool so the loop stays responsive.  Requests
resolving to the same content-addressed design digest and executor
share one pooled session, and a :class:`~repro.service.pool.SingleFlight`
coalescer guarantees exactly one compile+capture per (digest, params,
executor) under any level of concurrent first-touch traffic.

Limits and failure mapping: request bodies beyond ``max_body`` and
sweeps beyond ``max_configs`` are refused (HTTP 413), concurrency past
``max_inflight`` and requests during drain get 429, per-request
deadlines expire as 504, and every library exception maps through
``errors.STATUS_TABLE`` to a deterministic status with a structured
JSON body — never a raw traceback on the wire.  SIGTERM/SIGINT drain
gracefully: stop accepting, finish in-flight work, exit 0.
"""

from __future__ import annotations

import asyncio
import dataclasses
import functools
import json
import signal
import sys
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from ..api.batch import serve_depths
from ..errors import (
    DeadlineError,
    ReproError,
    RequestError,
    RequestTooLargeError,
    ServerBusyError,
    WireError,
    exit_code_for,
    http_status_for,
)
from ..sim.context import resolve_executor
from . import wire
from .pool import SessionPool, SingleFlight, canonical_spec, design_digest

_PROTOCOL = "HTTP/1.1"
_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 409: "Conflict",
            411: "Length Required", 413: "Payload Too Large",
            422: "Unprocessable Entity", 429: "Too Many Requests",
            431: "Request Header Fields Too Large",
            500: "Internal Server Error", 504: "Gateway Timeout"}

#: After refusing an oversized body from its Content-Length, the server
#: still swallows the upload in flight — a close with unread bytes in
#: the socket buffer resets the connection, and the client dies on a
#: broken pipe before it reads the 413.  Both bounds cut off a sender
#: that never finishes (or lied about the length).
_DISCARD_MAX_BYTES = 16 * 1024 * 1024
_DISCARD_SECONDS = 2.0


@dataclass
class ServiceConfig:
    """Everything ``repro serve`` is configured by."""

    host: str = "127.0.0.1"
    port: int = 8080
    #: worker threads for CPU-bound evaluation (the event loop itself
    #: never simulates)
    workers: int = 4
    #: request body byte limit (HTTP 413 beyond it)
    max_body: int = 2 * 1024 * 1024
    #: most configurations one sweep request may name (413 beyond it)
    max_configs: int = 4096
    #: default + maximum per-request wall-clock deadline in seconds
    #: (requests may ask for less, never more); None = unlimited
    deadline: float | None = 120.0
    #: concurrent in-flight POST limit (429 beyond it)
    max_inflight: int = 64
    #: warm sessions kept alive (LRU eviction beyond it)
    max_sessions: int = 32
    #: Func Sim executor of requests that name none
    executor: str | None = None
    #: trace-cache setting passed through to ``Session.open`` (None =
    #: consult REPRO_TRACE_CACHE; a directory path enables it there)
    trace_cache: object = None

    def __post_init__(self):
        for name in ("workers", "max_inflight", "max_sessions"):
            if getattr(self, name) < 1:
                raise RequestError(
                    f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0 <= self.port <= 65535:
            raise RequestError(
                f"port must be in 0..65535, got {self.port}")


class _HttpError(Exception):
    """Protocol-level failure (bad request line, unsupported method…);
    carries its own status because no library exception matches."""

    def __init__(self, status: int, message: str):
        self.status = status
        super().__init__(message)


class ReproService:
    """One server instance: sockets, session pool, coalescer, stats."""

    def __init__(self, config: ServiceConfig | None = None):
        self.config = config or ServiceConfig()
        self.pool = SessionPool(max_sessions=self.config.max_sessions)
        self._flight = SingleFlight()
        self._threads = ThreadPoolExecutor(
            max_workers=self.config.workers,
            thread_name_prefix="repro-serve",
        )
        #: how baselines were acquired, cumulative (exactly-one-cold
        #: per digest is the coalescing acceptance criterion)
        self.captures = {"cold": 0, "warm": 0, "hot": 0, "coalesced": 0}
        self.request_counts: dict = {}
        self.error_counts: dict = {}
        self._inflight = 0
        self._draining = False
        self._writers: set = set()
        self._conn_tasks: set = set()
        self._done = asyncio.Event()
        self._server = None
        self._started = time.time()
        self.port: int | None = None

    # -- lifecycle ------------------------------------------------------

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._client_connected, self.config.host, self.config.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def _run(self, on_start) -> None:
        """The whole life of a server: accept, call ``on_start()``,
        serve until a requested shutdown has drained, release the
        worker threads."""
        await self.start()
        on_start()
        await self.wait_done()
        self._threads.shutdown(wait=True)

    def request_shutdown(self) -> None:
        """Begin graceful drain: stop accepting, reject new POSTs with
        429, let in-flight work finish, then wake :meth:`wait_done`."""
        if self._draining:
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
        if self._inflight == 0:
            self._done.set()

    async def wait_done(self) -> None:
        """Block until a requested shutdown has fully drained."""
        await self._done.wait()
        await self._flight.drain()
        # Idle keep-alive clients would otherwise pin their handler
        # tasks until loop teardown cancels them noisily: close the
        # transports (their pending readline sees EOF) and let every
        # handler finish on its own.
        for writer in list(self._writers):
            writer.close()
        if self._conn_tasks:
            await asyncio.gather(*list(self._conn_tasks),
                                 return_exceptions=True)
        if self._server is not None:
            await self._server.wait_closed()

    # -- HTTP plumbing --------------------------------------------------

    async def _client_connected(self, reader, writer) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        self._writers.add(writer)
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _HttpError as exc:
                    await self._respond(writer, exc.status,
                                        self._plain_error(exc.status,
                                                          str(exc)),
                                        close=True)
                    break
                except (RequestTooLargeError, WireError) as exc:
                    await self._respond(writer, *self._map_error(exc),
                                        close=True)
                    await self._discard(reader, getattr(exc, "unread", 0))
                    break
                if request is None:
                    break
                method, path, headers, body = request
                status, doc = await self._dispatch(method, path, body)
                close = (headers.get("connection", "").lower() == "close"
                         or self._draining)
                await self._respond(writer, status, doc, close=close)
                if close:
                    break
        except (ConnectionError, asyncio.IncompleteReadError,
                asyncio.TimeoutError):
            pass
        finally:
            self._writers.discard(writer)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(self, reader):
        """One HTTP/1.1 request head + body; ``None`` on clean EOF."""
        line = await reader.readline()
        if not line:
            return None
        try:
            method, target, _version = (
                line.decode("latin-1").strip().split(" ", 2))
        except ValueError:
            raise _HttpError(400, "malformed request line") from None
        headers: dict = {}
        while True:
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            if len(headers) > 64:
                raise _HttpError(431, "too many headers")
            name, sep, value = raw.decode("latin-1").partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        body = b""
        if method.upper() == "POST":
            if "content-length" not in headers:
                raise _HttpError(411, "POST requires Content-Length")
            try:
                length = int(headers["content-length"])
            except ValueError:
                raise _HttpError(400, "bad Content-Length") from None
            if length > self.config.max_body:
                refusal = RequestTooLargeError(
                    f"request body of {length} bytes exceeds the "
                    f"server's max_body limit of "
                    f"{self.config.max_body} bytes"
                )
                refusal.unread = length  # still on the wire
                raise refusal
            body = await reader.readexactly(length)
        return method.upper(), target, headers, body

    async def _discard(self, reader, unread: int) -> None:
        """Read and drop up to ``unread`` body bytes (see
        :data:`_DISCARD_MAX_BYTES`), giving up at EOF or after
        :data:`_DISCARD_SECONDS` in total."""
        loop = asyncio.get_running_loop()
        deadline = loop.time() + _DISCARD_SECONDS
        unread = min(unread, _DISCARD_MAX_BYTES)
        while unread > 0:
            try:
                chunk = await asyncio.wait_for(
                    reader.read(min(unread, 1 << 16)),
                    deadline - loop.time())
            except asyncio.TimeoutError:
                return
            if not chunk:
                return
            unread -= len(chunk)

    async def _respond(self, writer, status: int, doc: dict, *,
                       close: bool) -> None:
        payload = json.dumps(doc, sort_keys=True).encode("utf-8")
        head = (
            f"{_PROTOCOL} {status} {_REASONS.get(status, 'Unknown')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"Connection: {'close' if close else 'keep-alive'}\r\n"
            f"\r\n"
        ).encode("latin-1")
        writer.write(head + payload)
        await writer.drain()

    # -- routing --------------------------------------------------------

    async def _dispatch(self, method, path, body):
        self.request_counts[path] = self.request_counts.get(path, 0) + 1
        if path == "/healthz":
            if method != "GET":
                return 405, self._plain_error(405, "healthz is GET-only")
            return 200, {"status": "draining" if self._draining
                         else "ok",
                         "schema_version": wire.SCHEMA_VERSION}
        if path == "/v1/meta":
            if method != "GET":
                return 405, self._plain_error(405, "meta is GET-only")
            return 200, self._meta_doc()
        req_cls = wire.REQUEST_TYPES.get(path)
        if req_cls is None:
            return 404, self._plain_error(
                404, f"unknown endpoint {path!r} (have: "
                     f"{', '.join(sorted(wire.REQUEST_TYPES))}, "
                     f"/healthz, /v1/meta)")
        if method != "POST":
            return 405, self._plain_error(
                405, f"{path} is POST-only, got {method}")
        try:
            if self._draining:
                raise ServerBusyError(
                    "server is draining for shutdown; retry against a "
                    "fresh instance")
            if self._inflight >= self.config.max_inflight:
                raise ServerBusyError(
                    f"server is at its concurrent request limit "
                    f"({self.config.max_inflight}); retry later")
            req = wire.parse_request(req_cls, body)
            handler = getattr(self, "_handle_" + path.rpartition("/")[2])
            deadline = self._effective_deadline(req)
            self._inflight += 1
            try:
                if deadline is None:
                    doc = await handler(req)
                else:
                    try:
                        doc = await asyncio.wait_for(handler(req),
                                                     deadline)
                    except asyncio.TimeoutError:
                        raise DeadlineError(
                            f"request exceeded its {deadline:.3f}s "
                            f"deadline (the evaluation continues "
                            f"server-side and may be warm on retry)"
                        ) from None
            finally:
                self._inflight -= 1
                if self._draining and self._inflight == 0:
                    self._done.set()
            return 200, doc
        except Exception as exc:  # noqa: BLE001 - mapped, never raw
            return self._map_error(exc)

    def _effective_deadline(self, req) -> float | None:
        limit = self.config.deadline
        asked = getattr(req, "deadline", None)
        if asked is None:
            return limit
        if limit is None:
            return float(asked)
        return min(float(asked), limit)

    def _map_error(self, exc):
        status = http_status_for(exc)
        if not isinstance(exc, ReproError):
            # Unexpected bug: log the traceback server-side, ship only
            # the structured summary.
            traceback.print_exc(file=sys.stderr)
        name = type(exc).__name__
        self.error_counts[name] = self.error_counts.get(name, 0) + 1
        return status, wire.to_json(wire.ErrorResponse(
            error=str(exc) or name, type=name, status=status,
            exit_code=exit_code_for(exc),
        ))

    def _plain_error(self, status: int, message: str) -> dict:
        return wire.to_json(wire.ErrorResponse(
            error=message, type="ProtocolError", status=status,
            exit_code=1))

    def _meta_doc(self) -> dict:
        from .. import __version__

        return {
            "schema_version": wire.SCHEMA_VERSION,
            "version": __version__,
            "uptime_seconds": round(time.time() - self._started, 3),
            "draining": self._draining,
            "inflight": self._inflight,
            "workers": self.config.workers,
            "limits": {
                "max_body": self.config.max_body,
                "max_configs": self.config.max_configs,
                "deadline": self.config.deadline,
                "max_inflight": self.config.max_inflight,
                "max_sessions": self.config.max_sessions,
            },
            "sessions": dict(self.pool.stats, active=len(self.pool)),
            "captures": dict(self.captures),
            "requests": dict(self.request_counts),
            "errors": dict(self.error_counts),
        }

    # -- session + baseline acquisition --------------------------------

    async def _in_worker(self, fn, *args, **kwargs):
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            self._threads, functools.partial(fn, *args, **kwargs))

    def _design_identity(self, req):
        """(kind, ident) for the digest: registry name or canonical
        inline spec text."""
        if req.design is not None:
            from ..designs.registry import looks_like_spec_path

            if looks_like_spec_path(req.design):
                raise WireError(
                    "design must be a registry name or group alias; "
                    "POST the spec itself in the 'spec' field instead "
                    "of a server-side file path")
            return "registry", req.design
        return "inline", canonical_spec(req.spec)

    def _make_session(self, kind: str, ident: str, params: dict,
                      executor: str):
        """Build the Session (worker thread: inline specs compile
        eagerly)."""
        from ..api import Session

        if kind == "registry":
            return Session.open(ident, executor=executor,
                                trace_cache=self.config.trace_cache,
                                **params)
        from ..designs import dsl

        spec = dsl.parse_spec(ident, origin="<inline>")
        entry = dsl.to_design_spec(spec)
        return Session.open(entry, executor=executor, trace_cache=False,
                            **params)

    async def _session_for(self, req, executor: str | None = None):
        """The pooled (or freshly created, single-flight) session for a
        request — one per design digest and resolved Func Sim executor
        (``executor``, else the server's: analysis requests name none)
        — plus the digest."""
        kind, ident = self._design_identity(req)
        digest = design_digest(kind, ident, req.params)
        key = (digest, resolve_executor(executor or self.config.executor))
        session = self.pool.get(key)
        if session is not None:
            return session, digest

        async def _create():
            # Re-checked under the flight: a caller that missed the
            # pool *and* arrived after the previous flight completed
            # must not build a duplicate session.
            pooled = self.pool.get(key)
            if pooled is not None:
                return pooled
            created = await self._in_worker(
                self._make_session, kind, ident, dict(req.params), key[1])
            self.pool.put(key, created)
            return created

        session, _owner = await self._flight.do(("session", key), _create)
        return session, digest

    async def _baseline_for(self, session, digest, *,
                            required: bool = True):
        """The (possibly coalesced) captured baseline + its label.
        With ``required=False`` — the request overrides depths — a
        design that deadlocks as declared answers ``(None, "none")``
        (``Session.reference``) instead of raising."""
        key = ("baseline", digest, session.executor)
        if session.has_baseline():
            self.captures["hot"] += 1
            return session.baseline(), "hot"

        async def _capture():
            # Same latecomer re-check as in _session_for: the session
            # may have gained its baseline since we looked.
            if session.has_baseline():
                return session.baseline(), "hot"
            result = await self._in_worker(
                session.baseline if required else session.reference)
            if result is None:
                return None, "none"
            label = result.phase_seconds.get("capture", "cold")
            return result, label if label in ("cold", "warm") else "cold"

        (result, label), owner = await self._flight.do(key, _capture)
        if result is not None:
            if not owner:
                label = "coalesced"
            self.captures[label] += 1
        return result, label

    # -- endpoint handlers ---------------------------------------------

    async def _handle_run(self, req: wire.RunRequest) -> dict:
        t0 = time.perf_counter()
        session, digest = await self._session_for(req, req.executor)
        executor = req.executor or self.config.executor
        depths = dict(req.depths)
        capture = None
        if req.engine == "omnisim":
            base, capture = await self._baseline_for(
                session, digest, required=not depths)
            if depths:
                result = await self._in_worker(serve_depths, session,
                                               depths)
                serving = result.phase_seconds["serving"]
            else:
                result, serving = base, "baseline"
        else:
            result = await self._in_worker(
                session.run, engine=req.engine, depths=depths or None)
            serving = "full"
        return wire.to_json(wire.RunResponse(
            design=session.name,
            digest=digest,
            engine=req.engine,
            executor=executor,
            cycles=result.cycles,
            scalars=dict(result.scalars),
            failure=result.failure,
            warnings=list(result.warnings)[:20],
            capture=capture,
            serving=serving,
            seconds=round(time.perf_counter() - t0, 6),
        ))

    async def _handle_sweep(self, req: wire.SweepRequest) -> dict:
        t0 = time.perf_counter()
        session, digest = await self._session_for(req, req.executor)
        executor = req.executor or self.config.executor
        if req.configs is not None:
            if len(req.configs) > self.config.max_configs:
                raise RequestTooLargeError(
                    f"sweep names {len(req.configs)} configurations; "
                    f"the server's max_configs limit is "
                    f"{self.config.max_configs}")
            base, capture = await self._baseline_for(
                session, digest, required=False)
            points = await self._in_worker(_config_points, session,
                                           req.configs)
            return wire.to_json(wire.SweepResponse(
                design=session.name, digest=digest, executor=executor,
                capture=capture, evaluated=len(points),
                # the requested overrides are echoed, not the resolved maps
                points=[dict(point.to_json(), depths=dict(config))
                        for point, config in zip(points, req.configs)],
                base_cycles=None if base is None else base.cycles,
                seconds=round(time.perf_counter() - t0, 6),
            ))
        from ..dse import DepthSpace

        space = DepthSpace.parse(req.space)
        # The per-request size gate is an *evaluation* budget, not a
        # space-size one: an adaptive search over a million-config
        # space is admissible as long as max_evals caps what the server
        # will actually pay for.
        adaptive = req.strategy in ("refine", "random")
        effective = space.size
        if req.samples is not None:
            effective = min(effective, req.samples)
        if req.max_evals is not None:
            effective = min(effective, req.max_evals)
        if effective > self.config.max_configs:
            hint = ("bound the search with 'max_evals'" if adaptive
                    else "sample with 'samples'/'max_evals', use an "
                         "adaptive 'strategy', or shrink the space")
            raise RequestTooLargeError(
                f"sweep would evaluate up to {effective} configurations; "
                f"the server's max_configs limit is "
                f"{self.config.max_configs} ({hint})")
        _base, capture = await self._baseline_for(
            session, digest, required=False)
        sweep = await self._in_worker(
            functools.partial(session.sweep, space,
                              samples=req.samples, seed=req.seed,
                              strategy=req.strategy,
                              max_evals=req.max_evals))
        return wire.to_json(wire.SweepResponse(
            design=session.name, digest=digest, executor=executor,
            capture=capture, evaluated=sweep.evaluated,
            points=[p.to_json() for p in sweep.points],
            pareto=[p.to_json() for p in sweep.pareto()],
            search=sweep.search,
            base_depths=dict(sweep.base_depths),
            base_cycles=sweep.base_cycles,
            seconds=round(time.perf_counter() - t0, 6),
        ))

    async def _handle_classify(self, req: wire.ClassifyRequest) -> dict:
        t0 = time.perf_counter()
        session, digest = await self._session_for(req)
        info = await self._in_worker(session.classify)
        return wire.to_json(wire.ClassifyResponse(
            design=session.name, digest=digest,
            design_type=str(info.design_type),
            func_sim_level=info.func_sim_level,
            perf_sim_level=info.perf_sim_level,
            cyclic=bool(info.cyclic),
            has_nonblocking=bool(info.has_nonblocking),
            has_infinite_loop=bool(info.has_infinite_loop),
            reasons=list(info.reasons),
            seconds=round(time.perf_counter() - t0, 6),
        ))

    async def _handle_report(self, req: wire.ReportRequest) -> dict:
        t0 = time.perf_counter()
        session, digest = await self._session_for(req)
        modules = await self._in_worker(session.report)
        return wire.to_json(wire.ReportResponse(
            design=session.name, digest=digest, modules=modules,
            seconds=round(time.perf_counter() - t0, 6),
        ))


def _config_points(session, configs) -> list:
    """The replay policy's points for explicit depth overrides, in
    order (worker thread)."""
    from ..exec.replay import Replayer, chain
    from ..sim.registry import validate_depth_names

    name, declared = session.declared()
    for config in configs:
        validate_depth_names(config, declared, name)
    replayer = Replayer.for_session(session)
    return [outcome.point for outcome in replayer.evaluate(chain(configs))]


# ---------------------------------------------------------------------------
# entry points


def serve(config: ServiceConfig | None = None, echo=print) -> int:
    """Run the service until SIGTERM/SIGINT, then drain and return 0
    (the ``repro serve`` command)."""
    config = config or ServiceConfig()

    async def _main() -> None:
        service = ReproService(config)

        def announce() -> None:
            echo(f"repro-serve listening on http://{config.host}:"
                 f"{service.port} (schema v{wire.SCHEMA_VERSION}, "
                 f"workers={config.workers})", flush=True)
            loop = asyncio.get_running_loop()
            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(signum,
                                            service.request_shutdown)
                except (NotImplementedError, RuntimeError):
                    # Platform without loop signal support: the
                    # KeyboardInterrupt path in the CLI still drains.
                    pass

        await service._run(announce)
        echo("repro-serve drained cleanly", flush=True)

    asyncio.run(_main())
    return 0


class ServiceHandle:
    """A running in-process server (own thread + event loop) for
    tests."""

    def __init__(self, service: ReproService, thread, loop):
        self.service = service
        self._thread = thread
        self._loop = loop

    @property
    def port(self) -> int:
        return self.service.port

    def stop(self, timeout: float = 30.0) -> None:
        """Graceful drain, then join the server thread."""
        if self._thread.is_alive():
            self._loop.call_soon_threadsafe(
                self.service.request_shutdown)
        self._thread.join(timeout)

    def __enter__(self) -> "ServiceHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def serve_in_thread(config: ServiceConfig | None = None,
                    **overrides) -> ServiceHandle:
    """Start a server on a background thread; returns once it accepts
    connections.  ``overrides`` patch :class:`ServiceConfig` fields
    (``port=0`` picks an ephemeral port — the default here)."""
    import threading

    if config is None:
        config = ServiceConfig(port=0)
    if overrides:
        config = dataclasses.replace(config, **overrides)
    holder: dict = {}
    started = threading.Event()

    def _runner() -> None:
        async def _main() -> None:
            service = ReproService(config)

            def announce() -> None:
                holder["service"] = service
                holder["loop"] = asyncio.get_running_loop()
                started.set()

            await service._run(announce)

        try:
            asyncio.run(_main())
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            holder["error"] = exc
            started.set()

    thread = threading.Thread(target=_runner, name="repro-serve",
                              daemon=True)
    thread.start()
    if not started.wait(30.0):
        raise RuntimeError("service failed to start within 30s")
    if "error" in holder:
        raise RuntimeError(
            f"service failed to start: {holder['error']!r}")
    return ServiceHandle(holder["service"], thread, holder["loop"])
