"""Coverage-guided differential fuzzing of the simulation engines.

The paper's correctness claim — OmniSim is cycle-accurate against the
RTL-faithful cosim oracle, at C speed — is only as strong as the design
population it was checked on.  This package turns the DSL generator
into an adversary:

* :mod:`~repro.fuzz.mutate` — seeded, schema-validated spec mutations;
* :mod:`~repro.fuzz.coverage` — line-arc coverage over the engine hot
  paths (``sys.monitoring`` / ``settrace``), the novelty signal;
* :mod:`~repro.fuzz.differential` — three-way agreement checks:
  engines (compiled / interpreted / cosim), retiming (accepted
  replays vs a full run at the new depths), batch (vectorized rows vs
  scalar);
* :mod:`~repro.fuzz.minimize` — greedy, deterministic shrinking of a
  diverging spec;
* :mod:`~repro.fuzz.campaign` — the AFL-shaped loop gluing it all
  together, with supervised execution, checkpoints and pinned
  regressions (``repro fuzz``).
"""

from .campaign import (
    CampaignConfig,
    CampaignReport,
    Finding,
    deterministic_mutants,
    pin_finding,
    run_campaign,
    seed_corpus,
)
from .coverage import TARGET_MODULES, CoverageHook, CoverageMap
from .differential import (
    DEFAULT_MAX_CYCLES,
    DifferentialReport,
    Divergence,
    run_differential,
)
from .minimize import minimize
from .mutate import OPERATORS, mutate

__all__ = [
    "CampaignConfig", "CampaignReport", "CoverageHook", "CoverageMap",
    "DEFAULT_MAX_CYCLES", "DifferentialReport", "Divergence", "Finding",
    "OPERATORS", "TARGET_MODULES", "deterministic_mutants", "minimize",
    "mutate", "pin_finding", "run_campaign", "run_differential",
    "seed_corpus",
]
