"""The service wire schema: versioned request/response dataclasses.

Every document the simulation service reads or writes is one of these
dataclasses, JSON-round-tripped through :func:`to_json` /
``<Class>.from_json``.  The schema is **versioned**: every document
carries a ``schema_version`` field, requests declaring a version this
build does not speak are rejected with a structured 400, and any
incompatible change to a field bumps :data:`SCHEMA_VERSION`.

Validation is strict on *requests* (unknown fields, wrong types and
missing design references all raise :class:`~repro.errors.WireError`,
which the server maps to HTTP 400 via ``errors.STATUS_TABLE``) and
strict-enough on *responses* (``from_json`` is what clients, the
``serve_sweep`` workload and the round-trip tests use).

A design is referenced in one of two ways, exactly one of which must be
present:

* ``design`` — a registry name or group alias (``"fig4_ex5"``,
  ``"typea_large"``).  Server-side file paths are **rejected**: the
  client has no business naming files on the server's disk.
* ``spec`` — an inline declarative design spec (the PR 3 DSL), either
  as YAML/JSON source text or as a parsed JSON object.

``params`` are builder parameter overrides (``{"n": 256}``), folded
into the design's content digest.

This module is the network gate, not a second policy: each value rule
(a depth is an int >= 1, ``samples`` goes with the exhaustive strategy,
``max_evals`` >= 1) is owned by the library object that consumes the
value and raises a typed :class:`~repro.errors.RequestError` /
:class:`~repro.errors.DseError` there; the copies here — the only ones
outside the owner — refuse outside input before a session is built.
Engine and executor names and builder parameters are only type-checked
here; their registries refuse unknown ones.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field

from ..errors import WireError

#: bump on ANY incompatible change to a request or response field
SCHEMA_VERSION = 1


def to_json(obj) -> dict:
    """A wire dataclass as a plain JSON-serializable dict."""
    return dataclasses.asdict(obj)


def dumps(obj) -> str:
    """A wire dataclass as compact JSON text."""
    return json.dumps(to_json(obj), sort_keys=True)


def _load(cls, doc):
    """Shared ``from_json``: strict key set, then per-class
    ``_validate``."""
    if not isinstance(doc, dict):
        raise WireError(
            f"{cls.__name__}: expected a JSON object, got "
            f"{type(doc).__name__}"
        )
    allowed = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(doc) - allowed)
    if unknown:
        raise WireError(
            f"{cls.__name__}: unknown field(s) {', '.join(unknown)} "
            f"(expected a subset of {', '.join(sorted(allowed))})"
        )
    version = doc.get("schema_version", SCHEMA_VERSION)
    if not isinstance(version, int) or version != SCHEMA_VERSION:
        raise WireError(
            f"{cls.__name__}: unsupported schema_version {version!r} "
            f"(this build speaks version {SCHEMA_VERSION})"
        )
    try:
        obj = cls(**doc)
    except TypeError as exc:
        raise WireError(f"{cls.__name__}: {exc}") from None
    obj._validate()
    return obj


def parse_request(cls, body: bytes | str):
    """Parse an HTTP request body into a request dataclass.

    Malformed JSON and schema violations both surface as
    :class:`~repro.errors.WireError` (HTTP 400)."""
    if isinstance(body, bytes):
        try:
            body = body.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise WireError(f"request body is not UTF-8: {exc}") from None
    try:
        doc = json.loads(body) if body.strip() else {}
    except ValueError as exc:
        raise WireError(f"request body is not JSON: {exc}") from None
    return _load(cls, doc)


def _check(cond: bool, message: str) -> None:
    if not cond:
        raise WireError(message)


def _check_params(params) -> None:
    _check(isinstance(params, dict), "params must be an object")
    for key, value in params.items():
        _check(isinstance(key, str), f"params key {key!r} must be a string")
        _check(isinstance(value, (int, float, str, bool)),
               f"params[{key!r}] must be a scalar, got "
               f"{type(value).__name__}")


def _check_depths(depths, label: str = "depths") -> None:
    _check(isinstance(depths, dict), f"{label} must be an object")
    for name, depth in depths.items():
        _check(isinstance(name, str),
               f"{label} key {name!r} must be a FIFO name")
        _check(isinstance(depth, int) and not isinstance(depth, bool)
               and depth >= 1,
               f"{label}[{name!r}] must be an integer depth >= 1, "
               f"got {depth!r}")


class _DesignRequest:
    """Validation shared by every request that names a design."""

    @classmethod
    def from_json(cls, doc):
        return _load(cls, doc)

    def _validate_design(self) -> None:
        has_design = self.design is not None
        has_spec = self.spec is not None
        _check(has_design != has_spec,
               "exactly one of 'design' (registry name) or 'spec' "
               "(inline spec) is required")
        if has_design:
            _check(isinstance(self.design, str) and self.design.strip(),
                   "design must be a non-empty registry name")
        if has_spec:
            _check(isinstance(self.spec, (str, dict)),
                   "spec must be YAML/JSON source text or a JSON object")
            if isinstance(self.spec, str):
                _check(bool(self.spec.strip()), "spec text is empty")
        _check_params(self.params)
        if self.executor is not None:
            _check(isinstance(self.executor, str),
                   "executor must be a string")
        if self.deadline is not None:
            _check(isinstance(self.deadline, (int, float))
                   and not isinstance(self.deadline, bool)
                   and self.deadline > 0,
                   "deadline must be a positive number of seconds")


@dataclass
class RunRequest(_DesignRequest):
    """``POST /v1/run`` — simulate a design once."""

    design: str | None = None
    spec: str | dict | None = None
    params: dict = field(default_factory=dict)
    engine: str = "omnisim"
    executor: str | None = None
    depths: dict = field(default_factory=dict)
    #: per-request wall-clock budget in seconds (capped by the server's
    #: configured deadline; expiry -> HTTP 504)
    deadline: float | None = None
    schema_version: int = SCHEMA_VERSION

    def _validate(self) -> None:
        self._validate_design()
        _check(isinstance(self.engine, str) and bool(self.engine),
               "engine must be a non-empty string")
        _check_depths(self.depths)


@dataclass
class SweepRequest(_DesignRequest):
    """``POST /v1/sweep`` — resimulate-many / depth-space exploration.

    Exactly one of:

    * ``configs`` — explicit depth-override dicts, served in order by
      constraint-checked (vectorized) incremental replay with full-run
      fallback;
    * ``space`` — axis specs (``["fifo2=1:16", "fifo1=2,4,8"]``)
      explored like ``repro dse`` (optionally ``samples``-sampled),
      returning the evaluated points plus the Pareto frontier.

    Space sweeps additionally accept ``strategy``
    (``"exhaustive"``/``"refine"``/``"random"``) and ``max_evals`` —
    the adaptive-search seam, letting a service client explore spaces
    far larger than the server's per-request config cap as long as the
    evaluation *budget* fits it.  Both fields are optional, so
    version-1 clients are unaffected (unknown fields are still
    rejected; absent ones take the defaults).
    """

    design: str | None = None
    spec: str | dict | None = None
    params: dict = field(default_factory=dict)
    executor: str | None = None
    configs: list | None = None
    space: list | None = None
    samples: int | None = None
    seed: int = 0
    strategy: str | None = None
    max_evals: int | None = None
    deadline: float | None = None
    schema_version: int = SCHEMA_VERSION

    def _validate(self) -> None:
        self._validate_design()
        has_configs = self.configs is not None
        has_space = self.space is not None
        _check(has_configs != has_space,
               "exactly one of 'configs' (explicit depth dicts) or "
               "'space' (axis specs) is required")
        if has_configs:
            _check(isinstance(self.configs, list) and self.configs,
                   "configs must be a non-empty array of depth objects")
            for i, config in enumerate(self.configs):
                _check_depths(config, label=f"configs[{i}]")
            _check(self.strategy is None and self.max_evals is None,
                   "strategy/max_evals apply to 'space' sweeps only")
        if has_space:
            _check(isinstance(self.space, list) and self.space
                   and all(isinstance(s, str) for s in self.space),
                   "space must be a non-empty array of axis specs "
                   "like 'fifo=1:16'")
        if self.samples is not None:
            _check(isinstance(self.samples, int)
                   and not isinstance(self.samples, bool)
                   and self.samples >= 1,
                   "samples must be an integer >= 1")
        if self.strategy is not None:
            _check(self.strategy in ("exhaustive", "refine", "random"),
                   "strategy must be one of 'exhaustive', 'refine', "
                   "'random'")
            _check(self.samples is None
                   or self.strategy == "exhaustive",
                   "samples applies to the exhaustive strategy only; "
                   "bound an adaptive search with max_evals")
        if self.max_evals is not None:
            _check(isinstance(self.max_evals, int)
                   and not isinstance(self.max_evals, bool)
                   and self.max_evals >= 1,
                   "max_evals must be an integer >= 1")
        _check(isinstance(self.seed, int)
               and not isinstance(self.seed, bool),
               "seed must be an integer")


@dataclass
class ClassifyRequest(_DesignRequest):
    """``POST /v1/classify`` — Type A/B/C taxonomy analysis."""

    design: str | None = None
    spec: str | dict | None = None
    params: dict = field(default_factory=dict)
    executor: str | None = None
    deadline: float | None = None
    schema_version: int = SCHEMA_VERSION

    def _validate(self) -> None:
        self._validate_design()


@dataclass
class ReportRequest(_DesignRequest):
    """``POST /v1/report`` — static C-synthesis report."""

    design: str | None = None
    spec: str | dict | None = None
    params: dict = field(default_factory=dict)
    executor: str | None = None
    deadline: float | None = None
    schema_version: int = SCHEMA_VERSION

    def _validate(self) -> None:
        self._validate_design()


# ---------------------------------------------------------------------------
# responses


class _Response:
    def _validate(self) -> None:  # responses trust the server
        pass

    @classmethod
    def from_json(cls, doc):
        return _load(cls, doc)


@dataclass
class RunResponse(_Response):
    """``/v1/run`` result."""

    design: str = ""
    #: content-address of the design (+ params): the session-pool key
    digest: str = ""
    engine: str = "omnisim"
    executor: str | None = None
    cycles: int | None = None
    scalars: dict = field(default_factory=dict)
    failure: str | None = None
    warnings: list = field(default_factory=list)
    #: how the baseline behind this answer was acquired: "cold" (fresh
    #: capture), "warm" (on-disk trace cache), "hot" (already in this
    #: process), "coalesced" (shared a concurrent request's capture),
    #: or None for non-omnisim engines (no baseline involved)
    capture: str | None = None
    #: how the answer itself was produced: "baseline", "incremental",
    #: or "full"
    serving: str = "baseline"
    #: server-side wall-clock seconds spent on this request
    seconds: float = 0.0
    schema_version: int = SCHEMA_VERSION


@dataclass
class SweepResponse(_Response):
    """``/v1/sweep`` result."""

    design: str = ""
    digest: str = ""
    executor: str | None = None
    capture: str | None = None
    evaluated: int = 0
    #: ``repro.dse.SweepPoint.to_json`` documents (``configs`` form:
    #: ``depths`` echoes the requested override)
    points: list = field(default_factory=list)
    #: Pareto frontier (cycles vs buffer bits) — space sweeps only
    pareto: list | None = None
    #: adaptive-search provenance (strategy, rounds, evals, pruning) —
    #: present when the request asked for a strategy or a budget
    search: dict | None = None
    base_depths: dict = field(default_factory=dict)
    base_cycles: int | None = None
    seconds: float = 0.0
    schema_version: int = SCHEMA_VERSION


@dataclass
class ClassifyResponse(_Response):
    """``/v1/classify`` result."""

    design: str = ""
    digest: str = ""
    design_type: str = ""
    func_sim_level: int = 0
    perf_sim_level: int = 0
    cyclic: bool = False
    has_nonblocking: bool = False
    has_infinite_loop: bool = False
    reasons: list = field(default_factory=list)
    seconds: float = 0.0
    schema_version: int = SCHEMA_VERSION


@dataclass
class ReportResponse(_Response):
    """``/v1/report`` result — one dict per module."""

    design: str = ""
    digest: str = ""
    modules: list = field(default_factory=list)
    seconds: float = 0.0
    schema_version: int = SCHEMA_VERSION


@dataclass
class ErrorResponse(_Response):
    """Any failed request: a structured error document, never a
    traceback.  ``type`` is the library exception class name, ``status``
    and ``exit_code`` come from ``errors.STATUS_TABLE`` — the same table
    the CLI maps exit codes from."""

    error: str = ""
    type: str = "ReproError"
    status: int = 500
    exit_code: int = 1
    schema_version: int = SCHEMA_VERSION


#: request class per POST endpoint (the server's routing table)
REQUEST_TYPES = {
    "/v1/run": RunRequest,
    "/v1/sweep": SweepRequest,
    "/v1/classify": ClassifyRequest,
    "/v1/report": ReportRequest,
}

__all__ = [
    "SCHEMA_VERSION",
    "REQUEST_TYPES",
    "RunRequest",
    "SweepRequest",
    "ClassifyRequest",
    "ReportRequest",
    "RunResponse",
    "SweepResponse",
    "ClassifyResponse",
    "ReportResponse",
    "ErrorResponse",
    "to_json",
    "dumps",
    "parse_request",
]
