"""Formal engine layer: the :class:`Engine` protocol and the registry.

Before this module existed every entry point carried its own informal
engine table (``cli.SIMULATORS``) plus special cases like ``args.sim not
in ("csim",)`` for engines that ignore depth overrides.  The registry
makes the engine contract explicit:

* an **engine** is any class whose instances satisfy :class:`Engine` —
  constructed as ``cls(compiled, **kwargs)`` and returning a
  :class:`~repro.sim.result.SimulationResult` from ``run()``;
* each registration carries a :class:`EngineInfo` **capability record**
  (``supports_depths``, ``cycle_accurate``, ``timed``, ...) that callers
  query instead of hard-coding engine names;
* :func:`create_engine` is the one place that turns ``(name, compiled,
  depths, executor)`` into a ready-to-run engine instance, validating
  depth overrides against the design and downgrading them to an explicit
  warning for engines that cannot honour them.

The high-level entry point is :class:`repro.api.Session`; this module is
the layer underneath it (and remains usable directly for tools that
manage their own compiled designs).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from importlib import import_module
from typing import Protocol, runtime_checkable

from ..errors import RequestError, UnknownEngineError, UnknownFifoError
from .result import SimulationResult


@runtime_checkable
class Engine(Protocol):
    """Structural contract every simulation engine satisfies.

    An engine is constructed with a compiled design (plus optional
    keyword configuration such as ``depths=`` and ``executor=``) and
    produces a :class:`~repro.sim.result.SimulationResult` from a single
    ``run()`` call.  Engine instances are single-shot: build a new one
    per run (they are cheap; all heavy state lives in the compiled
    design).
    """

    name: str

    def run(self) -> SimulationResult:  # pragma: no cover - protocol
        ...


@dataclass(frozen=True)
class EngineInfo:
    """Registry record: an engine class plus its declared capabilities."""

    name: str
    #: the engine class or its ``"module:Class"`` reference (how the
    #: built-ins register); read the class through :attr:`cls`
    target: type | str
    #: honours per-FIFO ``depths=`` overrides (csim models infinite
    #: streams, so depth overrides are meaningless there)
    supports_depths: bool = True
    #: cycle counts match the RTL timing contract for every design type
    #: the engine supports (see ``supported_types``)
    cycle_accurate: bool = True
    #: produces a cycle count at all (csim and the naive strawman don't)
    timed: bool = True
    #: records a simulation graph + query constraints, enabling
    #: incremental re-simulation (``result.trace.resimulate``, ``repro.dse``)
    records_graph: bool = False
    #: results are a pure function of the design (the naive threaded
    #: strawman is OS-scheduling dependent by construction)
    deterministic: bool = True
    #: taxonomy classes the engine can simulate; anything else raises
    #: ``UnsupportedDesignError`` (LightningSim is Type A only)
    supported_types: tuple = ("A", "B", "C")
    #: exposed as a ``--sim`` choice (the naive strawman exists to
    #: demonstrate the problem OmniSim solves, not for use)
    cli: bool = True
    description: str = ""

    @cached_property
    def cls(self) -> type:
        """The engine class, imported on first read when registered by
        reference (``ValueError`` if it has no ``run`` method)."""
        return _engine_class(self.target)


_ENGINES: dict[str, EngineInfo] = {}


def _engine_class(target) -> type:
    """The class behind a registration target (a reference's leading dot
    is relative to this package), checked for ``run``."""
    if isinstance(target, str):
        module, _sep, attr = target.partition(":")
        target = getattr(import_module(module, __package__), attr)
    if not callable(getattr(target, "run", None)):
        raise ValueError(f"engine class {target!r} has no run() method")
    return target


def register_engine(name: str, cls: type | str, *, replace: bool = False,
                    **capabilities) -> EngineInfo:
    """Register an engine class under ``name`` with its capabilities.

    ``cls`` is the class, or a ``"module:Class"`` reference imported
    when ``EngineInfo.cls`` is first read.  ``capabilities`` are
    :class:`EngineInfo` fields (``supports_depths``, ``cycle_accurate``,
    ``timed``, ...).  Third-party engines register the same way the
    built-in six do; ``replace=True`` allows overriding an existing
    entry (ablation studies substituting a variant engine).

    Raises:
        ValueError: if ``name`` is already registered and ``replace`` is
            false, or ``cls`` has no ``run`` method (a reference is
            checked when it is resolved).
    """
    if name in _ENGINES and not replace:
        raise ValueError(f"engine {name!r} is already registered "
                         "(pass replace=True to override)")
    if not isinstance(cls, str):
        _engine_class(cls)
    info = EngineInfo(name=name, target=cls, **capabilities)
    _ENGINES[name] = info
    return info


def get_engine(name: str) -> EngineInfo:
    """Look up an engine's :class:`EngineInfo` by registry name.

    Raises:
        UnknownEngineError: listing every registered engine.
    """
    try:
        return _ENGINES[name]
    except KeyError:
        raise UnknownEngineError(
            f"unknown engine {name!r}; known: {', '.join(sorted(_ENGINES))}"
        ) from None


def engine_names(*, cli_only: bool = False) -> list[str]:
    """Sorted registered engine names (``cli_only`` filters to the ones
    exposed as ``--sim`` choices)."""
    return sorted(n for n, info in _ENGINES.items()
                  if info.cli or not cli_only)


def all_engines() -> list[EngineInfo]:
    """Every registered engine record, sorted by name."""
    return [_ENGINES[n] for n in sorted(_ENGINES)]


def validate_depths(compiled, depths: dict) -> dict:
    """Validate per-FIFO depth overrides against a compiled design.

    Returns a plain-dict copy of ``depths``.  This is the single home of
    the unknown-FIFO / bad-value checks every entry point shares (CLI
    ``--depth``, ``Session.run``, DSE fallback runs).

    Raises:
        UnknownFifoError: for FIFO names the design does not declare.
        RequestError: for non-integer or < 1 depths.
    """
    return validate_depth_names(depths, compiled.stream_depths(),
                                compiled.name)


def validate_depth_names(depths: dict, known, design_name: str) -> dict:
    """:func:`validate_depths` against an explicit FIFO-name collection.

    Lets callers that already know the design's FIFOs — e.g. a
    warm-cache :class:`~repro.trace.TraceArtifact`, which carries the
    full declared depth map — validate without forcing a compile.
    """
    depths = dict(depths or {})
    unknown = sorted(set(depths) - set(known))
    if unknown:
        raise UnknownFifoError(
            f"unknown FIFO name(s) {', '.join(unknown)}; design "
            f"{design_name!r} has: {', '.join(sorted(known))}"
        )
    for fifo, depth in depths.items():
        if not isinstance(depth, int) or isinstance(depth, bool):
            raise RequestError(
                f"depth for {fifo!r} must be an int, got {depth!r}"
            )
        if depth < 1:
            raise RequestError(
                f"depth for {fifo!r} must be >= 1, got {depth}"
            )
    return depths


def _prepare(name: str, compiled, depths, executor, kwargs):
    """Shared construction prep: capability lookup, depth validation,
    kwarg assembly.  Returns ``(info, kwargs, dropped_message)`` where
    ``dropped_message`` is non-None when a depth override had to be
    discarded because the engine cannot honour it."""
    info = get_engine(name)
    depths = validate_depths(compiled, depths)
    kwargs = dict(kwargs)
    dropped = None
    if depths:
        if info.supports_depths:
            kwargs["depths"] = depths
        else:
            dropped = (
                f"engine {name!r} does not model FIFO depths; ignoring "
                f"depth override(s) for: {', '.join(sorted(depths))}"
            )
    if executor is not None:
        kwargs["executor"] = executor
    return info, kwargs, dropped


def create_engine(name: str, compiled, *, depths: dict | None = None,
                  executor: str | None = None, **kwargs):
    """Construct a ready-to-run engine instance — the one wiring point.

    ``depths`` are validated against ``compiled`` (clean
    :class:`~repro.errors.UnknownFifoError` instead of a deep traceback);
    passing depths to an engine with ``supports_depths=False`` emits an
    explicit ``UserWarning`` and drops them rather than silently
    ignoring the override.  Extra ``kwargs`` (``step_limit=``, engine
    specific knobs) forward to the engine constructor.
    """
    info, kwargs, dropped = _prepare(name, compiled, depths, executor,
                                     kwargs)
    if dropped:
        warnings.warn(dropped, UserWarning, stacklevel=2)
    return info.cls(compiled, **kwargs)


def run_engine(name: str, compiled, *, depths: dict | None = None,
               executor: str | None = None, **kwargs) -> SimulationResult:
    """``create_engine(...).run()`` in one call.

    A dropped depth override is additionally appended to the result's
    ``warnings`` list, so surfaces that render result warnings (the CLI's
    ``warning :`` lines) report it — not just the Python warning
    machinery.
    """
    info, kwargs, dropped = _prepare(name, compiled, depths, executor,
                                     kwargs)
    if dropped:
        warnings.warn(dropped, UserWarning, stacklevel=2)
    result = info.cls(compiled, **kwargs).run()
    if dropped:
        result.warnings.append(dropped)
    return result


# ---------------------------------------------------------------------------
# built-in engine registrations, by reference: the registry is complete
# after ``import repro.sim``, an engine module loads with its first use

register_engine(
    "omnisim", ".omnisim:OmniSimulator",
    records_graph=True,
    description="coupled Func+Perf sim (the paper's contribution)",
)
register_engine(
    "omnisim-threads", ".thread_executor:ThreadedOmniSimulator",
    records_graph=True,
    description="same orchestration on real OS threads (fidelity ablation)",
)
register_engine(
    "cosim", ".cosim:CoSimulator",
    description="cycle-stepped oracle standing in for C/RTL co-simulation",
)
register_engine(
    "csim", ".csim:CSimulator",
    supports_depths=False, cycle_accurate=False, timed=False,
    description="Vitis-like sequential C simulation (no timing model)",
)
register_engine(
    "lightningsim", ".lightningsim:LightningSimulator",
    supported_types=("A",),
    description="decoupled two-phase trace baseline (Type A only)",
)
register_engine(
    "naive", ".naive:NaiveThreadedSimulator",
    cycle_accurate=False, timed=False, deterministic=False, cli=False,
    description="naive OS-thread strawman (scheduling-dependent, Fig. 2)",
)
