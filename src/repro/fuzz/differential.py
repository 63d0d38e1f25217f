"""Three-way differential evaluation of one design spec.

One candidate spec is judged by running it through independent
implementations of the same semantics and demanding byte-identical
observable behaviour:

* **engine legs** — OmniSim with the compiled executor, OmniSim with
  the interpreter, and the cycle-stepped cosim oracle must agree on
  cycle count, scalar outputs, buffer contents and AXI memory images
  (or all report the same failure kind — "every engine deadlocks" is
  agreement; *divergent* deadlocks are findings);
* **retiming legs** — per depth configuration, every replay the trace
  artifact's ``resimulate`` *accepts* must equal a full OmniSim run at
  those depths on cycles and per-module end times (the paper's Table 6
  identity); a declined replay (``ConstraintViolation`` / deadlocking
  configuration) is the contract, a full-run deadlock where replay said
  "ok" is a finding; and every replay must answer exactly what the
  forced relaxation sweep with a full re-validation answers (cycles,
  end times, exception type and message), so the replay certificate
  is checked on every generated spec;
* **batch legs** — every non-``None`` row of
  :func:`repro.trace.vectorized.resimulate_batch` must be bit-for-bit
  the scalar columnar answer for that row; a declined row or a
  declined batch is fine (the scalar fallback is the contract), a
  *wrong* row is a finding.

Outcomes are normalized to small comparable tuples so a differential
report is JSON-friendly and deterministic for a deterministic engine —
the property campaign resume and pinned-regression replay lean on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .. import compile_design
from ..designs import dsl
from ..errors import (
    ConstraintViolation,
    DeadlockError,
    ReproError,
    SimulationError,
    UnsupportedDesignError,
)
from ..sim.registry import run_engine
from ..trace.vectorized import batch_supported, resimulate_batch

#: cosim safety net — far above any generated design's real latency, so
#: hitting it means a livelock-class bug, which the outcome encodes.
DEFAULT_MAX_CYCLES = 200_000


@dataclass
class Divergence:
    """One confirmed disagreement between implementations."""

    #: ``engine`` | ``retiming`` | ``batch`` | ``crash``
    kind: str
    detail: str
    #: leg name -> normalized outcome (repr-able, JSON-safe)
    legs: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "detail": self.detail,
                "legs": {k: list(v) for k, v in self.legs.items()}}


@dataclass
class DifferentialReport:
    """Everything one candidate evaluation produced."""

    divergence: Divergence | None
    #: leg name -> outcome tuple, engine legs always present
    legs: dict = field(default_factory=dict)
    configs_checked: int = 0


def _outcome(thunk):
    """Run one leg, normalizing its result/exception to a comparable
    tuple.  Deadlock cycles are deliberately excluded: the engines may
    legitimately diagnose the same true deadlock at different clocks."""
    try:
        result = thunk()
    except Exception as exc:  # noqa: BLE001 - a crash IS the finding
        return _raised(exc)
    return ("ok", result)


def _raised(exc: Exception) -> tuple:
    """:func:`_outcome` of a leg that raised ``exc``."""
    if isinstance(exc, DeadlockError):
        return ("deadlock",)
    if isinstance(exc, UnsupportedDesignError):
        return ("unsupported",)
    if isinstance(exc, ConstraintViolation):
        return ("constraint",)
    if isinstance(exc, SimulationError):
        return ("failure", type(exc).__name__)
    if isinstance(exc, ReproError):
        return ("error", type(exc).__name__)
    return ("crash", f"{type(exc).__name__}: {exc}")


def _fingerprint(result) -> tuple:
    """The observable behaviour an engine must reproduce exactly."""
    return (
        result.cycles,
        tuple(sorted(result.scalars.items())),
        tuple(sorted((k, tuple(v)) for k, v in result.buffers.items())),
        tuple(sorted((k, tuple(v))
                     for k, v in result.axi_memories.items())),
    )


def _retime_configs(depths: dict) -> list:
    """A deterministic probe set over the design's depth space."""
    fifos = sorted(depths)
    if not fifos:
        return []
    configs = [
        {},
        {f: 1 for f in fifos},
        {f: d * 2 for f, d in depths.items()},
        {fifos[0]: depths[fifos[0]] + 1},
        {fifos[-1]: 1},
        {f: 1 for f in fifos[: max(1, len(fifos) // 2)]},
    ]
    seen, unique = set(), []
    for config in configs:
        key = tuple(sorted(config.items()))
        if key not in seen:
            seen.add(key)
            unique.append(config)
    return unique


def _timing_outcome(thunk):
    """:func:`_outcome` of a replay or a full run, reduced to what both
    must share at the same depths: cycles and per-module end times."""
    out = _outcome(thunk)
    if out[0] != "ok":
        return out
    return ("ok", out[1].cycles,
            tuple(sorted(out[1].module_end_times.items())))


def _replay_outcomes(thunk):
    """One replay's answer twice: exact, down to the exception's type
    and message (what the replay certificate and the forced sweep must
    share byte for byte), and as :func:`_timing_outcome`."""
    try:
        inc = thunk()
    except Exception as exc:  # noqa: BLE001 - compared, not judged
        return ("raised", type(exc).__name__, str(exc)), _raised(exc)
    timing = ("ok", inc.cycles, tuple(sorted(inc.module_end_times.items())))
    return timing, timing


def run_differential(spec, *, max_cycles: int = DEFAULT_MAX_CYCLES
                     ) -> DifferentialReport:
    """Evaluate one validated spec across every differential leg."""
    legs: dict = {}
    try:
        compiled = compile_design(dsl.build_design(spec))
    except ReproError as exc:
        # Not a divergence: the spec is simply not lowerable.  Mutants
        # are schema-validated, so this is rare (e.g. a schedule the
        # backend rejects) and identical for every leg by construction.
        legs["compile"] = ("error", type(exc).__name__)
        return DifferentialReport(divergence=None, legs=legs)

    baseline = None

    def _omnisim_compiled():
        nonlocal baseline
        baseline = run_engine("omnisim", compiled)
        return baseline

    engine_legs = (
        ("omnisim[compiled]", _omnisim_compiled),
        ("omnisim[interp]",
         lambda: run_engine("omnisim", compiled, executor="interp")),
        ("cosim",
         lambda: run_engine("cosim", compiled, max_cycles=max_cycles)),
    )
    for name, thunk in engine_legs:
        out = _outcome(thunk)
        if out[0] == "ok":
            out = ("ok",) + _fingerprint(out[1])
        legs[name] = out

    crashed = [n for n, o in legs.items() if o[0] == "crash"]
    if crashed:
        return DifferentialReport(
            divergence=Divergence(
                kind="crash",
                detail=f"engine leg(s) crashed: {', '.join(crashed)}",
                legs=legs),
            legs=legs)
    if len({o for o in legs.values()}) > 1:
        return DifferentialReport(
            divergence=Divergence(
                kind="engine",
                detail="engine legs disagree on outcome/fingerprint",
                legs=legs),
            legs=legs)

    if baseline is None or legs["omnisim[compiled]"][0] != "ok":
        # No successful capture -> nothing to retime; engine agreement
        # (possibly on a shared deadlock) is the whole verdict.
        return DifferentialReport(divergence=None, legs=legs)

    # -- retiming legs: accepted replays vs a full run at the depths ----
    art = baseline.trace
    configs = _retime_configs(art.depths)
    scalar_outcomes = []
    for i, config in enumerate(configs):
        exact, replay = _replay_outcomes(lambda: art.resimulate(config))
        swept = _replay_outcomes(
            lambda: art._resimulate(config, certify=False))[0]
        if exact != swept:
            found = {f"retime[{i}].replay": exact,
                     f"retime[{i}].sweep": swept}
            legs.update(found)
            return DifferentialReport(
                divergence=Divergence(
                    kind="retiming",
                    detail=(f"replay != forced sweep on config "
                            f"{config!r}"),
                    legs=found),
                legs=legs, configs_checked=i + 1)
        scalar_outcomes.append(replay)
        if replay[0] in ("constraint", "failure"):
            continue  # replay declined -> full re-simulation, by contract
        full = _timing_outcome(
            lambda: run_engine("omnisim", compiled, depths=config))
        if replay != full:
            found = {f"retime[{i}].replay": replay,
                     f"retime[{i}].full": full}
            legs.update(found)
            return DifferentialReport(
                divergence=Divergence(
                    kind="retiming",
                    detail=(f"accepted replay != full OmniSim run "
                            f"on config {config!r}"),
                    legs=found),
                legs=legs, configs_checked=i + 1)

    # -- batch legs: vectorized rows vs the scalar columnar answers -----
    if configs and batch_supported(art):
        rows = _outcome(lambda: resimulate_batch(art, configs))
        if rows[0] != "ok":
            legs["batch"] = rows
            return DifferentialReport(
                divergence=Divergence(
                    kind="batch",
                    detail="resimulate_batch raised where scalar rows "
                           "completed",
                    legs={"batch": rows}),
                legs=legs, configs_checked=len(configs))
        for i, row in enumerate(rows[1]):
            if row is None:
                continue  # declined row -> scalar fallback, by contract
            got = _timing_outcome(lambda: row)
            if got != scalar_outcomes[i]:
                return DifferentialReport(
                    divergence=Divergence(
                        kind="batch",
                        detail=(f"vectorized row {i} != scalar "
                                f"resimulate for {configs[i]!r}"),
                        legs={f"batch[{i}]": got,
                              f"scalar[{i}]": scalar_outcomes[i]}),
                    legs=legs, configs_checked=len(configs))

    return DifferentialReport(divergence=None, legs=legs,
                              configs_checked=len(configs))
