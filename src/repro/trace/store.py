"""Versioned trace serialization + the content-addressed on-disk cache.

The binary format (one :class:`~repro.trace.columnar.TraceArtifact` per
file, extension ``.trace``)::

    magic   b"RTRC"                       (4 bytes)
    version u32 little-endian             (schema; see SCHEMA_VERSION)
    sha256  of everything after it        (32 bytes — corruption guard)
    hlen    u64 little-endian             (header length)
    header  JSON                          (meta + column manifest)
    payload raw little-endian int64 column bytes, manifest order

Every load verifies magic, schema version and checksum before touching
the payload; any mismatch raises :class:`~repro.errors.TraceFormatError`
and the cache treats the file as a miss (fresh capture with a warning —
a poisoned cache must never crash or serve stale data).

The cache itself (:class:`TraceStore`) is content-addressed: the file
name is :func:`artifact_digest` — a SHA-256 over the *design
fingerprint* (source bytes of the registry builder module or of the DSL
spec file), the builder params, the Func Sim executor and the schema
version.  Editing the design source, changing a parameter or executor,
or bumping the schema therefore lands on a new key; stale entries are
never read, only garbage-collected.  Ad-hoc designs (``("compiled",
...)`` references) have no stable fingerprint and are simply not cached.

Default location: ``~/.cache/repro-trace`` (``$XDG_CACHE_HOME``
honoured), overridable via the ``REPRO_TRACE_CACHE`` environment
variable or the ``--trace-cache`` CLI flag / ``Session(trace_cache=…)``
argument.  Caching is **opt-in**: with no env var and no explicit
setting, nothing touches the disk.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import sys
import time as _time
import warnings
from array import array
from dataclasses import dataclass

from ..errors import RequestError, TraceFormatError
# ``REPRO_TRACE_CACHE``: a directory path enables the cache there;
# "1"/"on"/"true"/"yes" enables the default directory;
# "0"/"off"/"false"/"no"/"" disables; unset = disabled.
from . import ENV_VAR
from .columnar import TraceArtifact

#: bump on ANY change to the columnar layout, the header schema or the
#: static graph's shape (tests/test_trace_store.py pins one stored
#: artifact's digest per version); old files then land on other keys and
#: fail the version check, so they fall back to fresh capture.
SCHEMA_VERSION = 2

MAGIC = b"RTRC"
_HEAD = struct.Struct("<4sI32sQ")  # magic, version, sha256, header len

#: size bound for automatic LRU eviction on write (``N[K|M|G]``); unset
#: or empty = unbounded (manual ``repro trace gc --max-bytes`` only).
MAX_BYTES_ENV_VAR = "REPRO_TRACE_CACHE_MAX_BYTES"

_ENV_OFF = ("", "0", "off", "false", "no")
_ENV_ON = ("1", "on", "true", "yes")


def parse_size(text) -> int:
    """Byte sizes with an optional K/M/G suffix (binary units): ``64M``.

    Raises :class:`~repro.errors.RequestError` on malformed or negative
    input."""
    digits = str(text).strip()
    scale = 1
    suffixes = {"k": 1024, "m": 1024 ** 2, "g": 1024 ** 3}
    if digits and digits[-1].lower() in suffixes:
        scale = suffixes[digits[-1].lower()]
        digits = digits[:-1]
    try:
        value = int(digits)
    except ValueError:
        value = -1
    if value < 0:
        raise RequestError(
            f"a byte size is N[K|M|G] with N >= 0, got {text!r}")
    return value * scale


def _env_max_bytes() -> int | None:
    raw = os.environ.get(MAX_BYTES_ENV_VAR)
    if raw is None or not raw.strip():
        return None
    try:
        return parse_size(raw)
    except ValueError:
        warnings.warn(
            f"trace cache: ignoring malformed {MAX_BYTES_ENV_VAR}="
            f"{raw!r} (expected N[K|M|G])",
            RuntimeWarning, stacklevel=3,
        )
        return None


# ---------------------------------------------------------------------------
# binary serialization


def dumps_artifact(artifact: TraceArtifact) -> bytes:
    """Serialize an artifact (static columns included if built).

    Raises ``TypeError``/``ValueError`` when the functional payload is
    not JSON-serializable (exotic scalar types from hand-built designs);
    callers treat that artifact as uncacheable.
    """
    manifest = []
    payload_parts = []
    for name, col in artifact.columns():
        manifest.append([name, len(col)])
        payload_parts.append(_le64(col))
    header = json.dumps({
        "meta": artifact.meta_dict(),
        "columns": manifest,
    }, sort_keys=True).encode("utf-8")
    payload = b"".join(payload_parts)
    body = header + payload
    digest = hashlib.sha256(body).digest()
    return _HEAD.pack(MAGIC, SCHEMA_VERSION, digest, len(header)) + body


def loads_artifact(data: bytes) -> TraceArtifact:
    """Inverse of :func:`dumps_artifact`; raises
    :class:`~repro.errors.TraceFormatError` on any malformed input."""
    if len(data) < _HEAD.size:
        raise TraceFormatError(
            f"truncated trace artifact ({len(data)} bytes)"
        )
    magic, version, digest, hlen = _HEAD.unpack_from(data)
    if magic != MAGIC:
        raise TraceFormatError("not a trace artifact (bad magic)")
    if version != SCHEMA_VERSION:
        raise TraceFormatError(
            f"unsupported trace schema version {version} "
            f"(this build reads version {SCHEMA_VERSION})"
        )
    body = data[_HEAD.size:]
    if hashlib.sha256(body).digest() != digest:
        raise TraceFormatError("trace artifact checksum mismatch")
    if hlen > len(body):
        raise TraceFormatError("trace artifact header overruns the file")
    try:
        header = json.loads(body[:hlen].decode("utf-8"))
        manifest = header["columns"]
        meta = header["meta"]
    except (ValueError, KeyError, UnicodeDecodeError) as exc:
        raise TraceFormatError(f"malformed trace header: {exc}") from None
    columns: dict[str, array] = {}
    cursor = hlen
    for entry in manifest:
        name, count = entry[0], int(entry[1])
        nbytes = count * 8
        chunk = body[cursor:cursor + nbytes]
        if len(chunk) != nbytes:
            raise TraceFormatError(
                f"trace artifact payload truncated at column {name!r}"
            )
        columns[name] = _from_le64(chunk)
        cursor += nbytes
    try:
        return TraceArtifact.from_serial(meta, columns)
    except (KeyError, TypeError, ValueError) as exc:
        raise TraceFormatError(
            f"trace artifact schema mismatch: {exc}"
        ) from None


def read_header_file(path) -> dict:
    """Header (meta + column manifest) of a serialized artifact straight
    from disk, reading only the fixed head plus the JSON header bytes —
    listing a cache of multi-MiB artifacts (``repro trace info``) must
    not load their payloads.  Does NOT verify the checksum
    (``verify``/``get`` do)."""
    with open(path, "rb") as fh:
        head = fh.read(_HEAD.size)
        if len(head) < _HEAD.size:
            raise TraceFormatError("truncated trace artifact")
        magic, version, _digest, hlen = _HEAD.unpack(head)
        if magic != MAGIC:
            raise TraceFormatError("not a trace artifact (bad magic)")
        if version != SCHEMA_VERSION:
            raise TraceFormatError(
                f"unsupported trace schema version {version}"
            )
        blob = fh.read(hlen)
    if len(blob) < hlen:
        raise TraceFormatError("trace artifact header overruns the file")
    try:
        return json.loads(blob.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise TraceFormatError(f"malformed trace header: {exc}") from None


def _le64(col: array) -> bytes:
    if sys.byteorder == "little":
        return col.tobytes()
    clone = array("q", col)
    clone.byteswap()
    return clone.tobytes()


def _from_le64(chunk: bytes) -> array:
    col = array("q")
    col.frombytes(chunk)
    if sys.byteorder != "little":
        col.byteswap()
    return col


# ---------------------------------------------------------------------------
# cache keys


def design_fingerprint(design_ref) -> bytes | None:
    """Stable digest of the design *definition* a reference points at.

    Registry references hash the source file of the builder (so editing
    a design module invalidates its traces); spec-file references hash
    the spec file's bytes.  ``("compiled", ...)`` and unknown reference
    forms return ``None`` — not cacheable.
    """
    tag = design_ref[0]
    if tag == "registry":
        _tag, name, _params = design_ref
        import inspect

        from ..designs import registry

        try:
            spec = registry.get(name)
            path = inspect.getsourcefile(spec.build)
            with open(path, "rb") as fh:
                blob = fh.read()
        except (KeyError, TypeError, OSError):
            return None
        ident = f"registry:{spec.name}"
    elif tag == "specfile":
        _tag, path, _params = design_ref
        try:
            with open(path, "rb") as fh:
                blob = fh.read()
        except OSError:
            return None
        ident = "specfile"
    else:
        return None
    h = hashlib.sha256()
    h.update(ident.encode("utf-8"))
    h.update(b"\0")
    h.update(blob)
    return h.digest()


def artifact_digest(design_ref, executor: str) -> str | None:
    """Content-address of one baseline capture:
    ``sha256(schema, repro version, design fingerprint, params,
    executor)`` — or ``None`` when the design is not fingerprintable."""
    fingerprint = design_fingerprint(design_ref)
    if fingerprint is None:
        return None
    from .. import __version__

    params = design_ref[2]
    h = hashlib.sha256()
    h.update(
        f"schema={SCHEMA_VERSION};repro={__version__};"
        f"executor={executor};params={sorted(params.items())!r};"
        .encode("utf-8")
    )
    h.update(fingerprint)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# the on-disk store


@dataclass(frozen=True)
class CacheEntry:
    """One cached artifact file, as listed by ``TraceStore.entries``."""

    digest: str
    path: str
    size: int
    mtime: float
    #: last-use time — refreshed explicitly by ``TraceStore.get`` (the
    #: filesystem's own atime is unreliable under relatime/noatime), so
    #: size-bounded gc can evict least-recently-used entries first
    atime: float = 0.0


class TraceStore:
    """Content-addressed directory of serialized trace artifacts.

    ``max_bytes`` (or the ``REPRO_TRACE_CACHE_MAX_BYTES`` environment
    variable, ``N[K|M|G]``) bounds the cache size: every successful
    :meth:`put` opportunistically runs the LRU eviction pass
    (:meth:`gc` with ``max_bytes``), so a long-running process — the
    simulation service in particular — cannot grow the cache without
    bound.  Unset = unbounded, exactly the old behavior."""

    SUFFIX = ".trace"

    def __init__(self, root, max_bytes: int | None = None):
        self.root = os.path.abspath(os.path.expanduser(os.fspath(root)))
        self.max_bytes = (max_bytes if max_bytes is not None
                          else _env_max_bytes())

    def path(self, digest: str) -> str:
        return os.path.join(self.root, digest + self.SUFFIX)

    def contains(self, digest: str) -> bool:
        return os.path.exists(self.path(digest))

    def get(self, digest: str) -> TraceArtifact | None:
        """Load a cached artifact; ``None`` on miss OR on any corrupt /
        unreadable / wrong-schema file (with a warning — the caller
        falls back to fresh capture; the bad file is removed so the
        next capture rewrites it)."""
        path = self.path(digest)
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except FileNotFoundError:
            return None
        except OSError as exc:
            warnings.warn(
                f"trace cache: cannot read {path}: {exc}; re-capturing",
                RuntimeWarning, stacklevel=2,
            )
            return None
        try:
            artifact = loads_artifact(data)
        except TraceFormatError as exc:
            warnings.warn(
                f"trace cache: discarding {os.path.basename(path)} "
                f"({exc}); re-capturing",
                RuntimeWarning, stacklevel=2,
            )
            try:
                os.unlink(path)
            except OSError:
                pass
            return None
        self._touch(path)
        return artifact

    def _touch(self, path: str) -> None:
        """Refresh the entry's access time (mtime preserved — age-based
        gc keys on creation, LRU eviction on last use)."""
        try:
            st = os.stat(path)
            os.utime(path, (_time.time(), st.st_mtime))
        except OSError:
            pass

    def put(self, digest: str, artifact: TraceArtifact) -> bool:
        """Serialize ``artifact`` under ``digest`` (atomic write).

        The static columns are built first so warm loads skip the edge
        build as well as the capture.  Returns ``False`` (with a
        warning) when the artifact cannot be serialized — e.g. a
        functional payload that is not JSON-representable."""
        artifact.ensure_static()
        try:
            blob = dumps_artifact(artifact)
        except (TypeError, ValueError) as exc:
            warnings.warn(
                f"trace cache: artifact for {artifact.design_name!r} is "
                f"not serializable ({exc}); skipping",
                RuntimeWarning, stacklevel=2,
            )
            return False
        tmp = self.path(digest) + f".tmp.{os.getpid()}"
        try:
            os.makedirs(self.root, exist_ok=True)
            with open(tmp, "wb") as fh:
                fh.write(blob)
            os.replace(tmp, self.path(digest))
        except OSError as exc:
            warnings.warn(
                f"trace cache: cannot write under {self.root}: {exc}",
                RuntimeWarning, stacklevel=2,
            )
            try:
                os.unlink(tmp)
            except OSError:
                pass
            return False
        if self.max_bytes is not None:
            # Opportunistic LRU eviction keeps the cache inside its
            # size bound without a separate maintenance process; the
            # entry just written has the freshest access time, so it is
            # the last candidate (evicted only when it alone exceeds
            # the bound).
            self.gc(max_bytes=self.max_bytes)
        return True

    def entries(self) -> list[CacheEntry]:
        """Every cached artifact, newest first."""
        try:
            names = os.listdir(self.root)
        except OSError:
            return []
        out = []
        for name in names:
            if not name.endswith(self.SUFFIX):
                continue
            path = os.path.join(self.root, name)
            try:
                st = os.stat(path)
            except OSError:
                continue
            out.append(CacheEntry(
                digest=name[:-len(self.SUFFIX)], path=path,
                size=st.st_size, mtime=st.st_mtime, atime=st.st_atime,
            ))
        out.sort(key=lambda e: e.mtime, reverse=True)
        return out

    def verify(self, prune: bool = False):
        """Full checksum/schema check of every entry.

        Returns ``(ok, corrupt)`` lists of ``(entry, detail)`` pairs;
        ``prune=True`` deletes the corrupt files."""
        ok, corrupt = [], []
        for entry in self.entries():
            try:
                with open(entry.path, "rb") as fh:
                    artifact = loads_artifact(fh.read())
                ok.append((entry, artifact.design_name))
            except (TraceFormatError, OSError) as exc:
                corrupt.append((entry, str(exc)))
                if prune:
                    try:
                        os.unlink(entry.path)
                    except OSError:
                        pass
        return ok, corrupt

    def gc(self, older_than_days: float | None = None,
           max_bytes: int | None = None):
        """Delete cached artifacts.  Returns ``(count, bytes)`` removed.

        With no arguments everything goes.  ``older_than_days`` deletes
        entries whose creation (mtime) is older than that;
        ``max_bytes`` then bounds the total cache size by evicting
        least-recently-used entries (oldest access time first — ``get``
        refreshes it) until the survivors fit.  The two compose: age
        filter first, size bound on what's left.

        Safe at any time: entries are pure derived state — the next
        capture rebuilds and re-caches them.
        """
        entries = self.entries()
        if older_than_days is None and max_bytes is None:
            doomed, survivors = list(entries), []
        else:
            doomed, survivors = [], list(entries)
            if older_than_days is not None:
                cutoff = _time.time() - older_than_days * 86400.0
                doomed += [e for e in survivors if e.mtime < cutoff]
                survivors = [e for e in survivors if e.mtime >= cutoff]
            if max_bytes is not None:
                survivors.sort(key=lambda e: e.atime)  # LRU first
                total = sum(e.size for e in survivors)
                while survivors and total > max_bytes:
                    victim = survivors.pop(0)
                    doomed.append(victim)
                    total -= victim.size
        removed = 0
        reclaimed = 0
        for entry in doomed:
            try:
                os.unlink(entry.path)
            except OSError:
                continue
            removed += 1
            reclaimed += entry.size
        return removed, reclaimed


# ---------------------------------------------------------------------------
# resolution


def default_cache_dir() -> str:
    base = os.environ.get("XDG_CACHE_HOME")
    if not base:
        base = os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "repro-trace")


def resolve_store(setting=None, *, fallback: bool = False
                  ) -> TraceStore | None:
    """Turn a user-facing cache setting into a :class:`TraceStore`.

    ``setting`` may be ``None`` (consult :data:`ENV_VAR`; disabled when
    unset unless ``fallback=True``, which the ``repro trace`` management
    commands use to default to the standard directory), ``False``
    (explicitly disabled), ``True`` (default directory), a directory
    path, or an existing :class:`TraceStore`.
    """
    if setting is None:
        env = os.environ.get(ENV_VAR)
        if env is None:
            return TraceStore(default_cache_dir()) if fallback else None
        low = env.strip().lower()
        if low in _ENV_OFF:
            return None
        if low in _ENV_ON:
            return TraceStore(default_cache_dir())
        return TraceStore(env)
    if setting is False:
        return None
    if setting is True:
        return TraceStore(default_cache_dir())
    if isinstance(setting, TraceStore):
        return setting
    return TraceStore(setting)
