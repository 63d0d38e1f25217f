"""Exception hierarchy for the OmniSim reproduction.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause.  The
hierarchy mirrors the pipeline stages: design construction, front-end
compilation, synthesis (scheduling), and simulation.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class DesignError(ReproError):
    """Invalid design construction or wiring (e.g. a FIFO with two writers)."""


class CompileError(ReproError):
    """Front-end compilation failure (unsupported construct, type error)."""

    def __init__(self, message: str, *, node=None, kernel: str | None = None):
        self.kernel = kernel
        self.lineno = getattr(node, "lineno", None)
        location = ""
        if kernel:
            location += f" in kernel '{kernel}'"
        if self.lineno is not None:
            location += f" (line {self.lineno})"
        super().__init__(message + location)


class TypeCheckError(CompileError):
    """Operand/port type mismatch detected during lowering or verification."""


class VerificationError(ReproError):
    """IR verifier found a malformed function."""


class SimulationError(ReproError):
    """Generic simulation failure."""

    #: instance name of the module whose Func Sim raised, when known
    #: (the generated executor tags every error that leaves its code)
    module: str | None = None


class UnsupportedDesignError(SimulationError):
    """A simulator was asked to run a design class it cannot handle.

    LightningSim raises this for Type B/C designs (non-blocking accesses),
    mirroring the capability matrix in the paper's Fig. 3.
    """


class DeadlockError(SimulationError):
    """A true design-level deadlock was detected (paper section 7.1).

    Attributes:
        cycle: hardware cycle at which every module was blocked.
        blocked: mapping of module instance name to a human-readable
            description of what it is blocked on.
    """

    def __init__(self, cycle: int, blocked: dict[str, str]):
        self.cycle = cycle
        self.blocked = dict(blocked)
        details = "; ".join(f"{m}: {why}" for m, why in sorted(blocked.items()))
        super().__init__(
            f"unresolvable deadlock detected at cycle {cycle} ({details})"
        )


class SimulatedCrash(SimulationError):
    """The simulated program performed an illegal action (e.g. out-of-bounds
    array access).  Under the C-sim baseline this models the SIGSEGV rows of
    the paper's Table 3."""

    def __init__(self, message: str, module: str | None = None):
        self.module = module
        super().__init__(message)


class ConstraintViolation(ReproError):
    """Incremental re-simulation found a query whose outcome changed under the
    new FIFO depths, so the recorded simulation graph is invalid (paper
    section 7.2).

    Attributes:
        query: the recorded :class:`~repro.sim.result.Constraint` that
            flipped, if known.
        depths: the full depth configuration that invalidated it — what a
            fallback orchestrator (``repro.dse``) needs to schedule the
            full re-simulation.
    """

    def __init__(self, message: str, query=None, depths=None):
        self.query = query
        self.depths = dict(depths) if depths is not None else None
        super().__init__(message)


class UnknownDesignError(DesignError, KeyError):
    """A design name was not found in the registry.

    Subclasses :class:`KeyError` so mapping-style callers keep working,
    and :class:`ReproError` so the CLI reports it cleanly; ``str()``
    returns the plain message (no KeyError repr-quoting).
    """

    def __str__(self):
        return self.args[0] if self.args else ""


class UnknownEngineError(SimulationError, KeyError):
    """An engine name was not found in the simulation-engine registry
    (:mod:`repro.sim.registry`).

    Subclasses :class:`KeyError` so mapping-style callers keep working,
    and :class:`ReproError` so the CLI reports it cleanly; ``str()``
    returns the plain message (no KeyError repr-quoting).
    """

    def __str__(self):
        return self.args[0] if self.args else ""


class UnknownFifoError(DesignError):
    """A depth override named a FIFO the design does not declare.

    Raised by the engine layer (:func:`repro.sim.registry.validate_depths`)
    before any simulation starts, so ``repro run --depth``, spec-path
    runs, ``repro dse`` and programmatic :class:`repro.api.Session` calls
    all fail with the same clean message listing the design's FIFOs.
    """


class SpecError(DesignError):
    """Invalid declarative design spec (``repro.designs.dsl``).

    Raised while parsing or validating a YAML/JSON design spec; the
    message always names the offending spec (file or ``<string>``) and
    the element within it (e.g. ``modules[2] 'sink'``) so errors in
    generated corpora can be traced back to one stanza.
    """


class TraceFormatError(ReproError):
    """A serialized trace artifact failed validation (``repro.trace``).

    Raised on bad magic, an unknown schema version, a checksum mismatch
    or a truncated/malformed payload.  The on-disk cache treats any of
    these as a miss — fresh capture with a warning — so a poisoned cache
    can never crash a run or serve stale results.
    """


class RequestError(ReproError, ValueError):
    """A request value the library refuses: a depth below 1, an unknown
    executor, a non-positive timeout, a malformed size or fault spec.
    Raised by the object that consumes the value, so neither front door
    pre-checks it; a :class:`ValueError` too, as these sites once raised."""


class DseError(ReproError):
    """Invalid depth-space specification or exploration request
    (``repro.dse``): unknown FIFO names, empty/ill-formed ranges."""


class WorkerCrashError(ReproError):
    """A pool worker process died while executing a chunk of work
    (OOM kill, segfault, injected crash fault).

    The supervised executor (:mod:`repro.exec`) never lets this abort a
    sweep: the broken pool is respawned, the affected chunks are
    re-split and retried with backoff, and only a configuration that
    keeps killing workers on its own is quarantined.  In-process
    (``jobs=1``) fault injection raises it directly so the serial retry
    path is testable without a pool.
    """


class ChunkTimeoutError(ReproError):
    """A chunk of work exceeded its wall-clock timeout
    (:class:`repro.exec.ExecPolicy.timeout`).

    The supervised executor kills the hung worker pool, respawns it,
    and retries the chunk (re-splitting to isolate the hanging
    configuration); the final verdict for a configuration that hangs
    alone is quarantine, not an aborted sweep.
    """


class CheckpointError(ReproError):
    """A checkpoint journal could not be used (``repro.exec.journal``):
    not a journal file, identity mismatch with the current sweep (other
    design/space/digest), or an existing journal reused without
    ``resume``."""


class WireError(ReproError):
    """A service request/response failed wire-schema validation
    (``repro.service.wire``): malformed JSON, a missing/mistyped field,
    an unknown field, or an unsupported ``schema_version``."""


class ServiceLimitError(ReproError):
    """Base class for per-request limits enforced by the simulation
    service (``repro.service``).  Each subclass maps to one HTTP status
    in :data:`STATUS_TABLE`; none of them ever aborts the server."""


class RequestTooLargeError(ServiceLimitError):
    """The request body exceeds the server's ``max_body`` byte limit,
    or a sweep names more configurations than ``max_configs`` allows
    (HTTP 413)."""


class ServerBusyError(ServiceLimitError):
    """The server is at its concurrent in-flight request limit, or is
    draining for shutdown; the client should retry later (HTTP 429)."""


class DeadlineError(ServiceLimitError):
    """The request's wall-clock deadline expired before evaluation
    finished (HTTP 504).  The underlying computation may still complete
    and warm the session pool for the next attempt."""


# ---------------------------------------------------------------------------
# exception -> (CLI exit code, HTTP status)
#
# The single source of truth for how library failures surface at the
# process boundary: ``repro.cli`` turns exceptions into exit codes and
# ``repro.service`` turns the same exceptions into HTTP statuses, both
# through this table.  First ``isinstance`` match wins, so more-derived
# classes must precede their bases (``ReproError`` is the final
# catch-all); a parity test asserts that ordering.

#: conventional CLI exit codes (``repro run --help`` documents 0-4)
EXIT_ERROR = 1
EXIT_DEADLOCK = 2
EXIT_UNSUPPORTED = 3
EXIT_SIM_FAILURE = 4
EXIT_DIVERGENCE = 5
EXIT_INTERRUPTED = 130
EXIT_BROKEN_PIPE = 141   # like 130: 128 + the signal (SIGPIPE) a shell reports

#: (exception class, CLI exit code, HTTP status) — first match wins
STATUS_TABLE: tuple = (
    (DeadlockError, EXIT_DEADLOCK, 422),
    (UnsupportedDesignError, EXIT_UNSUPPORTED, 422),
    (UnknownDesignError, EXIT_ERROR, 404),
    (UnknownEngineError, EXIT_ERROR, 400),
    (UnknownFifoError, EXIT_ERROR, 400),
    (SpecError, EXIT_ERROR, 400),
    (DesignError, EXIT_ERROR, 400),
    (RequestError, EXIT_ERROR, 400),
    (DseError, EXIT_ERROR, 400),
    (WireError, EXIT_ERROR, 400),
    (RequestTooLargeError, EXIT_ERROR, 413),
    (ServerBusyError, EXIT_ERROR, 429),
    (DeadlineError, EXIT_ERROR, 504),
    (ChunkTimeoutError, EXIT_ERROR, 504),
    (CheckpointError, EXIT_ERROR, 409),
    (ReproError, EXIT_ERROR, 500),
)


def exit_code_for(exc: BaseException) -> int:
    """The CLI exit code for a library exception (1 when unmapped)."""
    for cls, code, _status in STATUS_TABLE:
        if isinstance(exc, cls):
            return code
    return EXIT_ERROR


def http_status_for(exc: BaseException) -> int:
    """The HTTP status the service reports for a library exception
    (500 when unmapped — never a raw traceback on the wire)."""
    for cls, _code, status in STATUS_TABLE:
        if isinstance(exc, cls):
            return status
    return 500
