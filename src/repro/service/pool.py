"""Warm-session pool + capture coalescing for the simulation service.

The economics of the service are "compile once, query many times": a
:class:`~repro.api.Session` holds the compiled design and the captured
baseline, so the pool keys sessions by a **content-addressed design
digest** and the Func Sim executor, and keeps the hottest
``max_sessions`` alive (LRU eviction).  Two clients asking for the same
design+params+executor land on the *same* session object — the warm
path is a dictionary lookup.

Digests are content-addressed, not name-addressed:

* registry designs hash the builder module's source bytes (via
  :func:`repro.trace.store.design_fingerprint`) plus the params, so
  editing a design invalidates its pool entry key on restart;
* inline specs hash their canonical JSON text plus the params, so the
  same spec posted by two clients coalesces and a one-character edit
  does not.

:class:`SingleFlight` is the coalescer: concurrent first-touch requests
for the same key (session creation, baseline capture) share one
in-flight computation — exactly one compile+capture per
(digest, params, executor) no matter how many clients race.  The
underlying work runs on the server's worker thread pool via a caller
supplied awaitable, and is *shielded* from request cancellation: a
client whose deadline expires mid-capture gets its 504, but the capture
completes and warms the pool for everyone else.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
from collections import OrderedDict

from ..errors import WireError


def canonical_spec(spec) -> str:
    """The canonical text of an inline spec (digest input).

    A JSON object is dumped with sorted keys; source text is taken
    verbatim (the digest then distinguishes formatting variants of the
    same spec — harmless: they simply warm separate pool entries)."""
    if isinstance(spec, dict):
        try:
            return json.dumps(spec, sort_keys=True)
        except (TypeError, ValueError) as exc:
            raise WireError(f"inline spec is not JSON-serializable: "
                            f"{exc}") from None
    return str(spec)


def design_digest(kind: str, ident: str, params: dict) -> str:
    """Content-address of one (design, params) pair — the pool key.

    ``kind`` is ``"registry"`` or ``"inline"``; ``ident`` is the
    registry name (its builder-source fingerprint is folded in when
    resolvable) or the canonical spec text."""
    h = hashlib.sha256()
    h.update(f"{kind}\0{ident}\0{sorted(params.items())!r}\0"
             .encode("utf-8"))
    if kind == "registry":
        from ..trace.store import design_fingerprint

        fingerprint = design_fingerprint(("registry", ident, params))
        if fingerprint is not None:
            h.update(fingerprint)
    return h.hexdigest()


class SessionPool:
    """LRU-bounded map of (design digest, executor) -> warm
    :class:`Session`."""

    def __init__(self, max_sessions: int = 32):
        self.max_sessions = max_sessions
        self._sessions: OrderedDict = OrderedDict()
        self.stats = {"hits": 0, "misses": 0, "created": 0,
                      "evicted": 0}

    def __len__(self) -> int:
        return len(self._sessions)

    def get(self, key):
        """The pooled session for ``key``, or ``None`` (marks the entry
        most-recently-used on hit)."""
        session = self._sessions.get(key)
        if session is None:
            self.stats["misses"] += 1
            return None
        self._sessions.move_to_end(key)
        self.stats["hits"] += 1
        return session

    def put(self, key, session) -> None:
        """Adopt a freshly created session, evicting the
        least-recently-used entries past ``max_sessions``."""
        self._sessions[key] = session
        self._sessions.move_to_end(key)
        self.stats["created"] += 1
        while len(self._sessions) > self.max_sessions:
            _key, victim = self._sessions.popitem(last=False)
            self.stats["evicted"] += 1
            victim.close()

    def clear(self) -> None:
        while self._sessions:
            _key, victim = self._sessions.popitem(last=False)
            victim.close()


class SingleFlight:
    """Coalesce concurrent computations of the same key.

    ``do(key, work)`` returns ``(value, owner)``: the first caller for
    a key becomes the *owner* and actually runs ``work()`` (as a
    separate task, so a cancelled owner request cannot strand the
    waiters); every concurrent caller awaits the same future.  The
    future is shielded — request-level timeouts cancel the *wait*, not
    the work."""

    def __init__(self):
        self._inflight: dict = {}
        self._tasks: set = set()

    def inflight(self, key) -> bool:
        return key in self._inflight

    async def do(self, key, work):
        fut = self._inflight.get(key)
        if fut is not None:
            return await asyncio.shield(fut), False
        loop = asyncio.get_running_loop()
        fut = loop.create_future()
        # Nobody may be left to await the result (every waiter timed
        # out); don't let that surface as "exception never retrieved".
        fut.add_done_callback(
            lambda f: f.exception() if not f.cancelled() else None)
        self._inflight[key] = fut
        task = loop.create_task(self._fill(key, fut, work))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return await asyncio.shield(fut), True

    async def _fill(self, key, fut, work) -> None:
        try:
            value = await work()
        except BaseException as exc:  # noqa: BLE001 - forwarded to waiters
            if not fut.done():
                fut.set_exception(exc)
        else:
            if not fut.done():
                fut.set_result(value)
        finally:
            self._inflight.pop(key, None)

    async def drain(self) -> None:
        """Wait for every in-flight computation to finish (shutdown)."""
        if self._tasks:
            await asyncio.gather(*list(self._tasks),
                                 return_exceptions=True)
