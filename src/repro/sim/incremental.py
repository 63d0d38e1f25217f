"""Incremental re-simulation under changed FIFO depths (paper section 7.2).

OmniSim's simulation graph is built *dynamically*, driven by the specific
FIFO depths of the run, so it cannot be blindly reused the way
LightningSim's can.  Instead, every resolved timing query was recorded in
the trace artifact's constraint columns.  Re-simulation:

1. re-runs the finalization step — recompute every event's cycle under the
   new depths via longest-path retiming of the recorded graph;
2. re-evaluates every constraint against the recomputed cycles (using the
   Table 2 conditions with the *new* depth S');
3. if any query would now resolve differently, control/data flow may
   diverge, the graph is invalid, and a full re-simulation is required
   (:class:`~repro.errors.ConstraintViolation` is raised);
4. otherwise the new cycle count is returned in microseconds-to-
   milliseconds, versus seconds for a full run (paper Table 6).

Depth sweeps are cheap: the depth-independent edges live in CSR form on
the result's columnar :class:`~repro.trace.TraceArtifact` (built once
per capture, shipped with the artifact across processes), so each
additional configuration pays only the WAR-edge overlay, one relaxation
sweep, and constraint re-validation.  That kernel lives on the artifact
(:mod:`repro.trace.columnar`); :func:`resimulate` is its result-level
entry point.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import SimulationError
from .result import SimulationResult


@dataclass
class IncrementalResult:
    """Outcome of a successful incremental re-simulation.

    Carries enough metadata for a sweep orchestrator (``repro.dse``) to
    aggregate points without re-touching the graph: the full resolved
    depth configuration, per-module end times, and the FIFO buffer cost
    of the configuration.
    """

    cycles: int
    seconds: float
    depths: dict
    #: number of constraints re-validated
    constraints_checked: int
    #: module name -> end-of-task commit cycle under the new depths
    module_end_times: dict = None
    #: total FIFO storage (sum of depth x element width), in bits
    buffer_bits: int = 0


def resimulate(result: SimulationResult, new_depths: dict
               ) -> IncrementalResult:
    """Re-derive the cycle count of an OmniSim run under new FIFO depths.

    ``new_depths`` maps FIFO names to their new depths; unmentioned FIFOs
    keep the depth of the original run.  Raises
    :class:`~repro.errors.ConstraintViolation` if the recorded execution is
    invalid under the new configuration (a full re-simulation is needed),
    or :class:`~repro.errors.SimulationError` if the new depths deadlock
    the recorded execution.

    Served by the trace artifact the engine recorded
    (``result.trace``).
    """
    trace = result.trace
    if trace is None:
        raise SimulationError(
            "incremental re-simulation requires an OmniSim result (with "
            "graph and constraints)"
        )
    return trace.resimulate(new_depths)
