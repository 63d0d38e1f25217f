"""Coverage-guided differential fuzz campaign over the DSL generator.

AFL-shaped, sized for a simulator test harness:

* a **seed corpus** spans the whole generator taxonomy (NB-rich Type C
  first — historically the riskiest query-resolution paths — then
  B/A and two "huge"-family Type D designs), plus any extra spec files
  the caller supplies;
* a **deterministic stage** walks every corpus member through boundary
  mutations first (trip count halved/doubled, depths pinned/doubled,
  write-mode flips, ii bumps) — the cheap systematic sweep that finds
  most spec-shape bugs before any dice are rolled;
* a **havoc stage** then applies seeded random operators from
  :mod:`repro.fuzz.mutate`, with parents drawn from the corpus;
* every candidate runs the three-way differential of
  :mod:`repro.fuzz.differential` under a :class:`~repro.fuzz.coverage.
  CoverageHook`; candidates exercising new engine arcs are **adopted**
  into the corpus (and queued for their own deterministic stage), so
  mutation energy follows behavioural novelty;
* divergences are **minimized** (:mod:`repro.fuzz.minimize`) and
  **pinned**: a YAML spec plus a JSON sidecar recording the campaign
  seed, candidate key, divergence legs and the exact replay command.

Determinism: candidate order and every mutation draw derive from
``random.Random(("fuzz", seed, round).__repr__())`` — string seeding,
stable across processes and ``PYTHONHASHSEED``.  Evaluation is a
:class:`repro.exec.JournaledRun` (retry, backoff, quarantine, optional
checkpoint journal): ``--resume`` serves journalled verdicts (adoption
and divergence decisions, and the arcs each was first to cover) without
re-simulating, then continues the remaining budget live along the
trajectory of an uninterrupted campaign.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
import random
import time
from collections import deque
from dataclasses import dataclass, field
from types import SimpleNamespace

from ..designs import dsl
from ..designs.dsl.schema import FifoSpec, SpecError, validate_spec
from ..errors import RequestError
from ..exec import ExecPolicy, JournaledRun, Unit
from .coverage import CoverageHook, CoverageMap
from .differential import (
    DEFAULT_MAX_CYCLES,
    Divergence,
    run_differential,
)
from .minimize import minimize
from .mutate import mutate

#: (type, modules, seed) triples for the built-in seed corpus.  NB-rich
#: Type C leads so the deterministic stage reaches non-blocking query
#: resolution first; D entries keep the huge family in every campaign.
SEED_FAMILIES = (
    ("C", 3, 0), ("C", 3, 1), ("C", 3, 2), ("C", 3, 3),
    ("C", 3, 4), ("C", 3, 5),
    ("B", 3, 0), ("B", 4, 1),
    ("A", 3, 0),
    ("D", 12, 0), ("D", 16, 1),
)
SEED_COUNT = 24  # trip count for generated corpus seeds
_HAVOC_ROUND = 16
_DET_CAP = 18  # deterministic mutants per parent


@dataclass
class CampaignConfig:
    seed: int = 0
    budget: int = 200
    minutes: float | None = None
    corpus_dir: str | None = None
    pin_dir: str = "fuzz_pins"
    checkpoint: str | None = None
    resume: bool = False
    max_cycles: int = DEFAULT_MAX_CYCLES
    coverage_backend: str | None = None
    min_evals: int = 120  # minimization oracle budget per finding

    def __post_init__(self):
        # a livelock guard of 0 fails the cosim leg by construction: the
        # campaign would pin a "finding" the engines never produced
        for name in ("budget", "max_cycles"):
            if getattr(self, name) < 1:
                raise RequestError(
                    f"{name} must be >= 1, got {getattr(self, name)}")
        if self.minutes is not None and self.minutes <= 0:
            raise RequestError(f"minutes must be > 0, got {self.minutes}")
        if self.resume and not self.checkpoint:
            raise RequestError("resume needs the checkpoint to replay")


@dataclass
class Finding:
    name: str
    kind: str
    detail: str
    spec_path: str
    sidecar_path: str
    minimize_steps: list = field(default_factory=list)


@dataclass
class CampaignReport:
    evaluated: int = 0
    resumed: int = 0
    corpus: int = 0
    coverage_edges: int = 0
    findings: list = field(default_factory=list)
    quarantined: int = 0
    seconds: float = 0.0

    def to_json(self) -> dict:
        return {
            "evaluated": self.evaluated,
            "resumed": self.resumed,
            "corpus": self.corpus,
            "coverage_edges": self.coverage_edges,
            "findings": [
                {"name": f.name, "kind": f.kind, "detail": f.detail,
                 "spec": f.spec_path, "sidecar": f.sidecar_path,
                 "minimize_steps": f.minimize_steps}
                for f in self.findings
            ],
            "quarantined": self.quarantined,
            "seconds": round(self.seconds, 3),
        }


def _candidate_key(desc: str, yaml_text: str) -> str:
    digest = hashlib.sha256(
        (desc + "\n" + yaml_text).encode("utf-8")).hexdigest()
    return digest[:16]


def _clone(spec):
    twin = copy.deepcopy(spec)
    twin.fifo_writers = {}
    twin.fifo_readers = {}
    return twin


def _validated(spec):
    try:
        validate_spec(spec)
    except SpecError:
        return None
    return spec


def seed_corpus(corpus_dir: str | None = None) -> list:
    """``[(label, spec), ...]`` — built-in taxonomy seeds plus any
    ``*.yaml`` / ``*.json`` specs found in ``corpus_dir``."""
    entries = []
    for family, modules, seed in SEED_FAMILIES:
        spec = dsl.generate(family, modules=modules, seed=seed,
                            count=SEED_COUNT)
        entries.append((f"{family}-m{modules}-s{seed}", spec))
    if corpus_dir:
        for name in sorted(os.listdir(corpus_dir)):
            if not name.endswith(tuple(dsl.SPEC_SUFFIXES)):
                continue
            spec = dsl.load_spec(os.path.join(corpus_dir, name))
            entries.append((f"corpus:{name}", spec))
    return entries


def deterministic_mutants(spec):
    """Boundary mutants of one parent, in fixed order (AFL's
    deterministic stage, scaled to spec granularity)."""
    out = []

    n = spec.constants.get("n")
    if isinstance(n, int):
        for value in (max(1, n // 2), n * 2, n * 2 + 1):
            if value == n:
                continue
            mutant = _clone(spec)
            mutant.constants["n"] = value
            out.append((f"det:n={value}", mutant))

    for fifo in spec.fifos[:4]:
        for depth in (1, fifo.depth * 2):
            if depth == fifo.depth:
                continue
            mutant = _clone(spec)
            for i, f in enumerate(mutant.fifos):
                if f.name == fifo.name:
                    mutant.fifos[i] = FifoSpec(name=f.name, type=f.type,
                                               depth=depth)
            out.append((f"det:depth({fifo.name})={depth}", mutant))

    for module in spec.modules:
        if (module.role == "producer" and "count" in module.params
                and "done" not in module.params):
            mutant = _clone(spec)
            twin = next(m for m in mutant.modules
                        if m.name == module.name)
            if twin.params.get("write", "blocking") == "nb_drop":
                twin.params["write"] = "blocking"
                twin.params.pop("dropped", None)
                flip = "blocking"
            else:
                twin.params["write"] = "nb_drop"
                flip = "nb_drop"
            out.append((f"det:write({module.name})={flip}", mutant))

    bumped = 0
    for module in spec.modules:
        if module.role in ("producer", "worker", "sink") and bumped < 4:
            mutant = _clone(spec)
            twin = next(m for m in mutant.modules
                        if m.name == module.name)
            twin.params["ii"] = int(twin.params.get("ii", 1)) + 1
            out.append((f"det:ii({module.name})+1", mutant))
            bumped += 1

    return [(desc, m) for desc, m in out[:_DET_CAP]
            if _validated(m) is not None]


def _round_rng(seed: int, round_index: int) -> random.Random:
    return random.Random(("fuzz", seed, round_index).__repr__())


def _pin_name(kind: str, yaml_text: str) -> str:
    return f"pin_{kind}_{hashlib.sha256(yaml_text.encode('utf-8')).hexdigest()[:10]}"


def pin_finding(pin_dir, spec, divergence, *, campaign_seed,
                candidate_key, origin, minimize_steps,
                max_cycles=DEFAULT_MAX_CYCLES):
    """Write the minimized spec + sidecar; returns (Finding, created)."""
    os.makedirs(pin_dir, exist_ok=True)
    yaml_text = dsl.spec_to_yaml(spec)
    name = _pin_name(divergence.kind, yaml_text)
    spec_path = os.path.join(pin_dir, f"{name}.yaml")
    sidecar_path = os.path.join(pin_dir, f"{name}.json")
    created = not os.path.exists(spec_path)
    if created:
        with open(spec_path, "w", encoding="utf-8") as fh:
            fh.write(yaml_text)
        sidecar = {
            "schema": 1,
            "kind": divergence.kind,
            "detail": divergence.detail,
            "legs": {k: list(v) for k, v in divergence.legs.items()},
            "campaign_seed": campaign_seed,
            "candidate": candidate_key,
            "origin": origin,
            "minimize_steps": minimize_steps,
            "max_cycles": max_cycles,
            "command": (f"python -m repro fuzz --replay {spec_path} "
                        f"--seed {campaign_seed}"),
        }
        with open(sidecar_path, "w", encoding="utf-8") as fh:
            json.dump(sidecar, fh, indent=2, sort_keys=True)
            fh.write("\n")
    finding = Finding(name=name, kind=divergence.kind,
                      detail=divergence.detail, spec_path=spec_path,
                      sidecar_path=sidecar_path,
                      minimize_steps=list(minimize_steps))
    return finding, created


def run_campaign(config: CampaignConfig, *, log=None) -> CampaignReport:
    """Run one fuzz campaign; returns the report (findings pinned on
    disk as a side effect)."""
    say = log or (lambda message: None)
    started = time.monotonic()
    deadline = (started + config.minutes * 60.0
                if config.minutes else None)

    corpus = seed_corpus(config.corpus_dir)
    say(f"corpus: {len(corpus)} seed specs")
    coverage = CoverageMap()
    report = CampaignReport()

    # work queue: seeds evaluate first, then each parent's deterministic
    # stage; havoc rounds are appended when the queue drains.
    pending: deque = deque()
    for label, spec in corpus:
        pending.append((f"seed:{label}", spec))
    for label, spec in corpus:
        for desc, mutant in deterministic_mutants(spec):
            pending.append((f"{label}/{desc}", mutant))

    # budget is deliberately not part of the identity: resuming with a
    # larger --budget is how a campaign is continued.
    identity = {
        "kind": "fuzz",
        "seed": config.seed,
        "corpus": hashlib.sha256("\n".join(
            label for label, _ in corpus).encode("utf-8")
        ).hexdigest()[:16],
    }

    pinned_kinds: set = set()

    def handle_divergence(spec, divergence, desc, key):
        kind = divergence.kind

        def oracle(candidate):
            rep = run_differential(candidate,
                                   max_cycles=config.max_cycles)
            return (rep.divergence is not None
                    and rep.divergence.kind == kind)

        say(f"divergence ({kind}) at {desc}; minimizing...")
        small, evals, steps = minimize(spec, oracle,
                                       max_evals=config.min_evals)
        # Canonical identity so equivalent minima from different
        # parents collapse into one pin; re-record the legs from the
        # minimized spec (the original's are only the discovery record).
        small.name = f"fuzz-{kind}-min"
        small.description = f"minimized {kind} divergence"
        final = run_differential(small, max_cycles=config.max_cycles)
        if final.divergence is not None:
            divergence = final.divergence
        finding, created = pin_finding(
            config.pin_dir, small, divergence,
            campaign_seed=config.seed, candidate_key=key, origin=desc,
            minimize_steps=steps, max_cycles=config.max_cycles)
        if created:
            say(f"pinned {finding.name} "
                f"({len(steps)} reductions, {evals} oracle evals)")
        if (finding.name, kind) not in pinned_kinds:
            pinned_kinds.add((finding.name, kind))
            report.findings.append(finding)

    def evaluate(payloads):
        for desc, yaml_text in payloads:
            spec = dsl.parse_spec(yaml_text, origin=desc)
            with CoverageHook(backend=config.coverage_backend) as hook:
                diff = run_differential(spec, max_cycles=config.max_cycles)
            fresh = sorted(set(hook.edges) - coverage.edges,
                           key=lambda arc: (arc[0], arc[1] or 0, arc[2]))
            coverage.merge(fresh)
            outcome = {
                "desc": desc,
                "new_edges": len(fresh),
                "arcs": [list(arc) for arc in fresh],
                "kept": bool(fresh) and diff.divergence is None,
            }
            if diff.divergence is not None:
                outcome["divergence"] = diff.divergence.to_dict()
            yield outcome

    def restore(verdict):
        """A journalled verdict: its arcs join the map — before any
        live candidate of its batch runs, as they did when it ran."""
        coverage.merge(tuple(arc) for arc in verdict.get("arcs", ()))
        return verdict

    def apply(desc, spec, key, verdict):
        """Act on one verdict, fresh or journalled: adopt into the
        corpus (queueing the newcomer's deterministic stage), minimize
        and pin a divergence."""
        if verdict.get("kept"):
            corpus.append((f"adopted:{desc}", spec))
            for det_desc, mutant in deterministic_mutants(spec):
                pending.append((f"adopted:{desc}/{det_desc}", mutant))
        divergence_doc = verdict.get("divergence")
        if divergence_doc is not None:
            handle_divergence(
                spec,
                Divergence(kind=divergence_doc["kind"],
                           detail=divergence_doc["detail"],
                           legs={k: tuple(v) for k, v in
                                 divergence_doc["legs"].items()}),
                desc, key)

    havoc_round = 0
    with JournaledRun(
        SimpleNamespace(evaluate=evaluate),
        policy=ExecPolicy(max_retries=2, seed=config.seed),
        fault_plan=None, encode=dict, decode=restore,
        quarantined=lambda unit, detail: {
            "desc": unit.payload[0], "quarantined": detail, "kept": False},
        checkpoint=config.checkpoint, identity=identity,
        resume=config.resume,
    ) as run:
        while report.evaluated < config.budget:
            if deadline is not None and time.monotonic() >= deadline:
                say("time budget exhausted")
                break
            if not pending:
                rng = _round_rng(config.seed, havoc_round)
                havoc_round += 1
                for _ in range(_HAVOC_ROUND):
                    label, parent = corpus[rng.randrange(len(corpus))]
                    drawn = mutate(parent, rng)
                    if drawn is None:
                        continue
                    mutant, op_name = drawn
                    pending.append(
                        (f"havoc{havoc_round - 1}:{label}/{op_name}",
                         mutant))
                if not pending:
                    continue

            batch, units = [], []
            while pending and len(batch) < 8 \
                    and report.evaluated + len(batch) < config.budget:
                desc, spec = pending.popleft()
                yaml_text = dsl.spec_to_yaml(spec)
                units.append(Unit(len(units),
                                  _candidate_key(desc, yaml_text),
                                  (desc, yaml_text)))
                batch.append((desc, spec))

            verdicts, restored = run.run(units)
            report.evaluated += len(units)
            report.resumed += restored
            for (desc, spec), unit, verdict in zip(batch, units, verdicts):
                apply(desc, spec, unit.key, verdict)
        report.quarantined = len(run.supervision()["quarantined"])

    report.corpus = len(corpus)
    report.coverage_edges = len(coverage)
    report.seconds = time.monotonic() - started
    return report
