"""Adaptive Pareto-guided search strategies over a depth space.

A strategy decides *which* configurations of a depth space are worth
evaluating, emitting them in rounds of batches so the vectorized
retiming kernel and the supervised executor do the actual evaluation
(:func:`repro.dse.explore` owns that loop; strategies only propose and
observe).  Evaluating every configuration and extracting the Pareto
frontier afterwards is the degenerate case; on the million-config
products a real 6-FIFO design describes that is not a plan, and the
adaptive strategies use the frontier *during* the sweep to decide what
to evaluate next.

``exhaustive`` — everything, in round one
    The whole grid in :meth:`DepthSpace.configurations` order, or a
    seeded sample of it when a ``cap`` bounds the evaluation count.
    Nothing is steered, so nothing is observed.

``refine`` — successive refinement with dominated-region pruning
    A coarse seeded grid over the full space establishes an initial
    frontier, then a branch-and-bound worklist of axis-aligned
    *regions* (per-axis index intervals into the sorted depth values)
    subdivides the space.  Each region is judged by its two extreme
    corners:

    * the **deepest** corner (every axis at its interval maximum) lower-
      bounds cycles everywhere in the region — simulated cycles are
      monotone non-increasing in FIFO depth (more buffering never adds
      stalls; DESIGN.md section 19 states the assumption precisely);
    * the **shallowest** corner (every axis at its interval minimum)
      lower-bounds buffer bits — bits are ``depth x width`` sums, exactly
      monotone increasing in depth.

    Together they form the region's *best-case* objective vector: no
    configuration inside can beat ``(cycles(deepest), bits(shallowest))``
    on either axis.  A region whose best-case vector is weakly dominated
    by the current frontier is discarded whole — every configuration it
    contains is weakly dominated too, and a weakly dominated point can
    never add a frontier vector.  A region whose deepest corner
    deadlocks is discarded as all-deadlocked (deadlocks are caused by
    insufficient depth, so every shallower-or-equal configuration
    deadlocks as well).  Surviving regions split at the midpoint of
    their longest axis — the two children share a face and reuse the
    parent's corner evaluations — until every interval is down to
    adjacent indices, at which point the region's remaining lattice
    points are enumerated outright (mixed corners of an exhausted
    region are never corner-probed, so they must be evaluated before
    the region retires).  On monotone designs the surviving
    evaluations provably include every frontier point of the full
    grid.  Real retiming curves are *almost* monotone — the pipeline
    model can make a slightly deeper FIFO a handful of cycles slower —
    so once the worklist empties the strategy runs a **frontier
    polish**: the one-step axis neighbours of every current frontier
    configuration are evaluated, repeatedly, until closure.  The
    non-monotone dips that matter sit next to a frontier point (a dip
    far from the frontier is dominated regardless), and the polish
    recovers exactly those.  The search converges when the worklist is
    empty and the polish reaches closure.

``random`` — seeded random restarts
    Rounds of distinct uniform draws over the configuration ranks, each
    round a fresh restart of the seeded stream.  The search stops when
    ``patience`` consecutive rounds fail to move the frontier (or the
    budget/space runs out).  This is the escape hatch for spaces where
    the monotonicity assumption is in doubt — no pruning, so no
    soundness obligations — and the baseline the benchmarks compare
    ``refine`` against.

Every strategy is **deterministic** given ``(space, seed)`` and the
sequence of observed outcomes.  That is what makes ``--resume`` work
mid-search: the explorer replays the same proposal sequence and serves
previously journaled configurations from the checkpoint instead of
re-evaluating them, so a killed-and-resumed search lands on the exact
frontier of an uninterrupted one.
"""

from __future__ import annotations

import itertools
import json
import random
from collections import deque

from ..errors import DseError
from .pareto import weakly_dominates
from .space import ENUMERATE_LIMIT

#: largest seeded coarse grid the refine strategy opens with
DEFAULT_GRID_CAP = 64

#: per-round draw count for the random strategy
DEFAULT_ROUND_SIZE = 64

#: frontier-stagnant rounds after which the random strategy stops
DEFAULT_PATIENCE = 2


def config_key(config: dict) -> str:
    """Canonical identity of a depth configuration — identical to the
    supervised executor's unit key, so strategy bookkeeping, checkpoint
    journals and result points all agree on what "the same config" is."""
    return json.dumps(config, sort_keys=True)


class _Outcome:
    """What a strategy remembers about one evaluated configuration."""

    __slots__ = ("cycles", "buffer_bits", "deadlocked")

    def __init__(self, cycles, buffer_bits, deadlocked):
        self.cycles = cycles
        self.buffer_bits = buffer_bits
        self.deadlocked = deadlocked

    @property
    def ok(self) -> bool:
        return self.cycles is not None


class SearchStrategy:
    """Base class: frontier bookkeeping shared by every strategy.

    The explorer drives the protocol::

        while budget remains:
            batch = strategy.next_batch(remaining)   # [] = done
            points = evaluate(batch)                 # journal-aware
            strategy.observe(zip(batch, points))

    ``observe`` receives **every** proposed configuration's outcome —
    including ones restored from a checkpoint journal — so a resumed
    strategy replays into the same internal state.
    """

    name = "base"
    #: the ``search["stopped"]`` label of a run this strategy finished
    stop_label = "converged"
    #: True once the strategy knows it will propose nothing more (the
    #: driver then stops without charging the budget for the question)
    done = False

    def __init__(self, space, seed: int = 0):
        self.space = space
        self.seed = seed
        # Per-axis values sorted ascending: the monotonicity arguments
        # (and interval indexing) need depth to grow with index, which
        # explicit --grid lists do not guarantee.
        self._axes = [(axis.fifo, tuple(sorted(axis.values)))
                      for axis in space.axes]
        self._known: dict = {}      # config key -> _Outcome
        self._frontier: list = []   # non-dominated (cycles, bits) vectors

    # -- protocol -------------------------------------------------------

    def next_batch(self, remaining: int) -> list:
        raise NotImplementedError

    def observe(self, evaluations) -> None:
        """Record outcomes for one round of proposed configurations.

        ``evaluations`` is an iterable of ``(config, point)`` pairs where
        ``point`` has ``cycles``/``buffer_bits``/``source`` attributes
        (:class:`repro.dse.SweepPoint` or anything duck-shaped like it).
        """
        for config, point in evaluations:
            outcome = _Outcome(
                point.cycles, point.buffer_bits,
                getattr(point, "source", None) == "deadlock",
            )
            self._known[config_key(config)] = outcome
            if outcome.ok:
                self._update_frontier((outcome.cycles,
                                       outcome.buffer_bits))

    def provenance(self) -> dict:
        """Strategy-specific counters for the result's ``search`` block."""
        return {}

    # -- shared helpers -------------------------------------------------

    def _update_frontier(self, vector) -> bool:
        """Insert ``vector`` into the running frontier; True if the
        frontier changed (the random strategy's improvement signal)."""
        if any(weakly_dominates(kept, vector) for kept in self._frontier):
            return False
        self._frontier = [kept for kept in self._frontier
                          if not weakly_dominates(vector, kept)]
        self._frontier.append(vector)
        return True

    def _config(self, idxs) -> dict:
        """Index tuple (one sorted-value index per axis) -> config dict."""
        return {fifo: values[i]
                for (fifo, values), i in zip(self._axes, idxs)}


class ExhaustiveStrategy(SearchStrategy):
    """The whole grid — or a seeded ``cap``-sized sample of it — in one
    round."""

    name = "exhaustive"
    stop_label = "complete"

    def __init__(self, space, seed: int = 0, cap: int | None = None):
        super().__init__(space, seed)
        if ((cap is None or cap >= space.size)
                and space.size > ENUMERATE_LIMIT):
            raise DseError(
                f"depth space has {space.size} configurations (more than "
                f"the enumeration limit of {ENUMERATE_LIMIT}); cap the "
                "exhaustive sweep with samples=/max_evals= or use an "
                "adaptive strategy ('refine'/'random')"
            )
        self._cap = cap

    def next_batch(self, remaining: int) -> list:
        if self.done:
            return []
        self.done = True
        if self._cap is not None:
            return self.space.sample(self._cap, self.seed)
        return list(self.space.configurations())

    def observe(self, evaluations) -> None:
        """Nothing steers an exhaustive sweep: skip the bookkeeping."""


class RefineStrategy(SearchStrategy):
    """Successive refinement + dominated-region pruning (see module
    docstring for the algorithm and its soundness argument)."""

    name = "refine"

    def __init__(self, space, seed: int = 0,
                 grid_cap: int = DEFAULT_GRID_CAP):
        super().__init__(space, seed)
        if grid_cap < 1:
            raise DseError(f"grid_cap must be >= 1, got {grid_cap}")
        self._grid_cap = grid_cap
        self._seeded = False
        # Regions are (lo, hi) pairs of per-axis index tuples, intervals
        # inclusive; the root covers the whole space.
        root = (tuple(0 for _ in self._axes),
                tuple(len(values) - 1 for _, values in self._axes))
        self._regions: list = [root]
        self._enum_queue: deque = deque()
        self._idx_of: dict = {}     # config key -> index tuple
        self._stats = {
            "grid_configs": 0,
            "pruned_regions": 0,
            "pruned_configs": 0,
            "deadlock_pruned_regions": 0,
            "deadlock_pruned_configs": 0,
            "splits": 0,
            "enumerated_regions": 0,
            "polish_rounds": 0,
            "polish_configs": 0,
        }

    # -- protocol -------------------------------------------------------

    def next_batch(self, remaining: int) -> list:
        batch: list = []
        seen: set = set()

        def want(idxs) -> bool:
            config = self._config(idxs)
            key = config_key(config)
            self._idx_of[key] = tuple(idxs)
            if key in self._known or key in seen:
                return False
            seen.add(key)
            batch.append(config)
            return True

        if not self._seeded:
            self._seeded = True
            for idxs in self._grid_ranks():
                want(idxs)
            self._stats["grid_configs"] = len(batch)
            if batch:
                return batch

        while len(batch) < remaining:
            progressed = self._settle()
            while self._enum_queue and len(batch) < remaining:
                want(self._enum_queue.popleft())
                progressed = True
            if len(batch) >= remaining:
                break
            # Undecided regions are waiting on corner evaluations:
            # propose them, then yield the batch for evaluation (no
            # further settling is possible until they come back).
            proposed = False
            for lo, hi in self._regions:
                for idxs in (lo, hi):
                    if len(batch) >= remaining:
                        break
                    proposed |= want(idxs)
                if len(batch) >= remaining:
                    break
            if proposed or not progressed:
                break
        if not batch and not self._regions and not self._enum_queue:
            # Worklist drained: polish the frontier against small
            # non-monotone dips by probing its one-step neighbours,
            # round after round, until nothing new turns up.
            for idxs in self._frontier_neighbors():
                if len(batch) >= remaining:
                    break
                want(idxs)
            if batch:
                self._stats["polish_rounds"] += 1
                self._stats["polish_configs"] += len(batch)
        return batch

    def provenance(self) -> dict:
        stats = dict(self._stats)
        stats["open_regions"] = len(self._regions)
        return stats

    # -- refinement machinery -------------------------------------------

    def _grid_ranks(self):
        """Seeded coarse grid: up to three indices per axis (shallowest,
        midpoint, deepest), capped at ``grid_cap`` points by a seeded
        draw over the grid's own mixed-radix ranks."""
        per_axis = [sorted({0, (len(values) - 1) // 2, len(values) - 1})
                    for _, values in self._axes]
        total = 1
        for choices in per_axis:
            total *= len(choices)
        if total <= self._grid_cap:
            return [tuple(pick) for pick in itertools.product(*per_axis)]
        rng = random.Random(self.seed)
        ranks: set = set()
        while len(ranks) < self._grid_cap:
            ranks.add(rng.randrange(total))
        picks = []
        for rank in sorted(ranks):
            idxs = []
            for choices in reversed(per_axis):
                rank, digit = divmod(rank, len(choices))
                idxs.append(choices[digit])
            picks.append(tuple(reversed(idxs)))
        return picks

    def _region_size(self, lo, hi) -> int:
        size = 1
        for a, b in zip(lo, hi):
            size *= b - a + 1
        return size

    def _settle(self) -> bool:
        """Decide every region whose corner outcomes are known: prune
        it, queue its lattice for enumeration, or split it.  Returns
        True when any region was decided (more settling may follow)."""
        progressed = False
        undecided: list = []
        for region in self._regions:
            verdict = self._decide(region)
            if verdict is None:
                undecided.append(region)
                continue
            progressed = True
            lo, hi = region
            if verdict == "prune":
                self._stats["pruned_regions"] += 1
                self._stats["pruned_configs"] += self._region_size(lo, hi)
            elif verdict == "deadlock":
                self._stats["deadlock_pruned_regions"] += 1
                self._stats["deadlock_pruned_configs"] += (
                    self._region_size(lo, hi))
            elif verdict == "enumerate":
                self._stats["enumerated_regions"] += 1
                self._enum_queue.extend(
                    itertools.product(*(range(a, b + 1)
                                        for a, b in zip(lo, hi))))
            else:  # split
                self._stats["splits"] += 1
                axis = max(range(len(lo)), key=lambda i: hi[i] - lo[i])
                mid = (lo[axis] + hi[axis]) // 2
                # Children share the mid face, so each reuses one of
                # the parent's evaluated corners and needs one new one.
                hi_a = list(hi); hi_a[axis] = mid
                lo_b = list(lo); lo_b[axis] = mid
                undecided.append((lo, tuple(hi_a)))
                undecided.append((tuple(lo_b), hi))
        self._regions = undecided
        return progressed

    def _decide(self, region):
        """``None`` while corners are unevaluated, else one of
        ``"prune"``, ``"deadlock"``, ``"enumerate"``, ``"split"``."""
        lo, hi = region
        shallow = self._known.get(config_key(self._config(lo)))
        deep = self._known.get(config_key(self._config(hi)))
        if shallow is None or deep is None:
            return None
        if deep.deadlocked:
            # Deadlock at the deepest corner: every configuration in
            # the region is shallower-or-equal and deadlocks too.
            return "deadlock"
        if deep.ok:
            # Best case anywhere in the region: the deep corner's
            # cycles with the shallow corner's bits.
            best = (deep.cycles, shallow.buffer_bits)
            if any(weakly_dominates(kept, best)
                   for kept in self._frontier):
                return "prune"
        # deep.ok False without deadlock = quarantined: no cycle bound,
        # so no pruning — fall through and keep subdividing.
        if all(b - a <= 1 for a, b in zip(lo, hi)):
            return "enumerate"
        return "split"

    def _frontier_neighbors(self):
        """Index tuples one axis step away from any configuration that
        currently sits on the frontier (known or not — ``want`` filters
        the known ones)."""
        on_front = set(self._frontier)
        neighbors: list = []
        for key, idxs in self._idx_of.items():
            outcome = self._known.get(key)
            if outcome is None or not outcome.ok:
                continue
            if (outcome.cycles, outcome.buffer_bits) not in on_front:
                continue
            for axis, i in enumerate(idxs):
                for step in (i - 1, i + 1):
                    if 0 <= step < len(self._axes[axis][1]):
                        probe = list(idxs)
                        probe[axis] = step
                        neighbors.append(tuple(probe))
        return neighbors


class RandomStrategy(SearchStrategy):
    """Seeded random restarts with a frontier-stagnation stop rule."""

    name = "random"

    def __init__(self, space, seed: int = 0,
                 round_size: int = DEFAULT_ROUND_SIZE,
                 patience: int = DEFAULT_PATIENCE):
        super().__init__(space, seed)
        if round_size < 1:
            raise DseError(f"round_size must be >= 1, got {round_size}")
        if patience < 1:
            raise DseError(f"patience must be >= 1, got {patience}")
        self._round_size = round_size
        self._patience = patience
        self._rng = random.Random(seed)
        self._drawn: set = set()    # ranks already proposed
        self._stale = 0             # consecutive frontier-stagnant rounds
        self._restarts = 0
        self._exhausted = False

    # -- protocol -------------------------------------------------------

    def next_batch(self, remaining: int) -> list:
        size = self.space.size
        if (self._exhausted or self._stale >= self._patience
                or len(self._drawn) >= size):
            return []
        want = min(self._round_size, remaining, size - len(self._drawn))
        fresh: list = []
        # Rejection sampling is cheap while the space dwarfs the draws;
        # bounded attempts keep small, mostly-drawn spaces from
        # spinning — they fall back to a rank scan instead.
        attempts = 0
        while len(fresh) < want and attempts < 20 * want + 100:
            attempts += 1
            rank = self._rng.randrange(size)
            if rank not in self._drawn:
                self._drawn.add(rank)
                fresh.append(rank)
        if len(fresh) < want and size <= 4 * (len(self._drawn) + want):
            for rank in range(size):
                if len(fresh) >= want:
                    break
                if rank not in self._drawn:
                    self._drawn.add(rank)
                    fresh.append(rank)
        if not fresh:
            self._exhausted = True
            return []
        self._restarts += 1
        return [self.space.config_at(rank) for rank in sorted(fresh)]

    def observe(self, evaluations) -> None:
        before = sorted(self._frontier)
        super().observe(evaluations)
        if sorted(self._frontier) == before:
            self._stale += 1
        else:
            self._stale = 0

    def provenance(self) -> dict:
        return {
            "restarts": self._restarts,
            "stale_rounds": self._stale,
        }


_STRATEGY_CLASSES = {cls.name: cls for cls in (
    ExhaustiveStrategy, RefineStrategy, RandomStrategy)}

#: strategy names accepted by ``explore(strategy=...)`` and the CLI's
#: ``--strategy`` flag
STRATEGIES = tuple(_STRATEGY_CLASSES)


def make_strategy(name: str, space, *, seed: int = 0,
                  **options) -> SearchStrategy:
    """Build the named strategy over ``space`` (``options`` are the
    strategy's own constructor keywords, e.g. the exhaustive ``cap``)."""
    if name not in _STRATEGY_CLASSES:
        raise DseError(
            f"unknown search strategy {name!r}; expected one of "
            f"{', '.join(STRATEGIES)}"
        )
    return _STRATEGY_CLASSES[name](space, seed=seed, **options)
