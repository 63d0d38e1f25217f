"""Depth-space exploration (DSE) over FIFO depth configurations.

The paper's headline use case for incremental re-simulation (section 7.2,
Table 6) is sweeping FIFO depths orders of magnitude faster than full
re-runs.  This package drives that primitive at scale:

* :mod:`repro.dse.space` — depth-space specs: per-FIFO ranges, explicit
  grids, seeded random samples;
* :mod:`repro.dse.explorer` — the sweep engine: one graph-capturing run,
  then incremental-first evaluation per configuration with automatic
  neighbour-replay and full-simulation fallback, optionally sharded
  across a process pool;
* :mod:`repro.dse.pareto` — cycles-vs-buffer-area Pareto frontier plus
  the hypervolume / frontier-distance quality metrics;
* :mod:`repro.dse.search` — adaptive strategies (successive refinement
  with dominated-region pruning, seeded random restarts) that recover
  the frontier of million-config spaces with a fraction of the
  evaluations, under an explicit ``max_evals`` budget.

:func:`explore` sweeps an open :class:`repro.api.Session` (a registry
name or group alias, a DSL spec file, a design object);
:func:`explore_specs` a whole directory of generated specs (``repro gen
--batch``), enabling topology x depth sweeps over generated corpora.

CLI: ``repro dse <design|spec.yaml|spec-dir> --range fifo=LO:HI
[--jobs J]``.
"""

from .explorer import (
    MODE_FULL,
    MODE_SCALAR,
    MODE_SCALAR_FALLBACK,
    MODE_VECTORIZED,
    SOURCE_DEADLOCK,
    SOURCE_FULL,
    SOURCE_INCREMENTAL,
    SOURCE_QUARANTINED,
    Evaluator,
    SweepPoint,
    SweepResult,
    explore,
    explore_specs,
    iter_spec_files,
)
from .pareto import (
    dominates,
    frontier_distance,
    hypervolume,
    pareto_front,
    pareto_vectors,
    weakly_dominates,
)
from .search import (
    STRATEGIES,
    RandomStrategy,
    RefineStrategy,
    SearchStrategy,
    make_strategy,
)
from .space import ENUMERATE_LIMIT, DepthAxis, DepthSpace, parse_axis

__all__ = [
    "DepthAxis",
    "DepthSpace",
    "ENUMERATE_LIMIT",
    "Evaluator",
    "MODE_FULL",
    "MODE_SCALAR",
    "MODE_SCALAR_FALLBACK",
    "MODE_VECTORIZED",
    "SOURCE_DEADLOCK",
    "SOURCE_FULL",
    "SOURCE_INCREMENTAL",
    "SOURCE_QUARANTINED",
    "STRATEGIES",
    "RandomStrategy",
    "RefineStrategy",
    "SearchStrategy",
    "SweepPoint",
    "SweepResult",
    "dominates",
    "explore",
    "explore_specs",
    "frontier_distance",
    "hypervolume",
    "iter_spec_files",
    "make_strategy",
    "pareto_front",
    "pareto_vectors",
    "parse_axis",
    "weakly_dominates",
]
