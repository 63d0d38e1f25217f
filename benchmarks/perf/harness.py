"""Shared machinery of the perf benchmark: paths and child environment,
the op recorder, the output checker, and the run loop that turns a
workload into the end-to-end or per-layer metrics.

A workload (``wl_*.py``) provides:

* ``setup()`` — repeatable set-up (captures, server start, one untimed
  warm-up pass); run ``setup_repeats`` times, the median is ``setup_s``;
* ``verify(check)`` — reference checks outside any timed region;
* ``run_pass(rec)`` — one pass of fixed work, every user-visible call
  recorded as an op sample and checked (``rec.check``);
* ``traced(tracer, check, seconds)`` — the explicit chain of public
  layer calls under bracketed spans, returning per-layer metric values;
* ``teardown()`` — stop what ``setup`` started.
"""

from __future__ import annotations

import gc
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager
from pathlib import Path

import spec
import stats
from calibrate import Timed
from tracer import Tracer

PERF_DIR = Path(__file__).resolve().parent
ROOT = PERF_DIR.parents[1]
SRC = ROOT / "src"
OUT = PERF_DIR / "out"
TMP = OUT / "tmp"


def child_env() -> dict:
    """Environment for every child: the checkout's ``src`` on the path,
    a pinned hash seed, no ambient trace cache, temp files inside the
    checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = str(TMP)
    env.pop("REPRO_TRACE_CACHE", None)
    env.pop("REPRO_FAULTS", None)
    return env


def prepare_dirs() -> None:
    shutil.rmtree(TMP, ignore_errors=True)
    TMP.mkdir(parents=True, exist_ok=True)


def peak_rss_mb() -> float:
    """Largest resident set of the harness or any waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def fingerprint() -> dict:
    """Machine and tool versions recorded beside every result."""
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    commit = None
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "git_commit": commit,
    }


class Checker:
    """Counts ops attempted and failed, and the largest cycle error
    against a reference — the paper's accuracy claim."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.cycle_err_max = 0
        self.failures: list = []

    def fail(self, label: str, detail: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{label}: {detail}")

    def ok(self, label: str, condition: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not condition:
            self.fail(label, detail or "check failed")
        return bool(condition)

    def cycles(self, label: str, got, want) -> bool:
        """One checked op: ``got`` cycles against the reference."""
        self.attempted += 1
        if got is None or want is None:
            if got is not want:
                self.fail(label, f"cycles {got} vs reference {want}")
            return got is want
        err = abs(got - want)
        self.cycle_err_max = max(self.cycle_err_max, err)
        if err:
            self.fail(label, f"cycles {got} vs reference {want}")
        return err == 0

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.cycle_err_max == 0


class Recorder:
    """Per-kind op samples of the timed passes.

    Every wall is divided by the machine's slowdown around the op (see
    :mod:`calibrate`).  ``work`` is what the op's throughput is counted
    in (simulated events or depth configs); ``exact`` are deterministic
    counts that must repeat bit-for-bit on every pass."""

    def __init__(self, check: Checker):
        self.check = check
        #: kind -> one list of speed-normalised op walls per pass
        self.walls: dict = {}
        self.work: dict = {}
        self.exact: dict = {}
        self.pass_walls: list = []
        #: the slowdown of every bracket, for the run record
        self.slowdowns: list = []

    def add(self, kind: str, wall: float, work: float = 0,
            slowdown: float = 1.0) -> None:
        self.check.attempted += 1
        passes = self.walls.setdefault(kind, [])
        while len(passes) <= len(self.pass_walls):
            passes.append([])
        passes[-1].append(wall / slowdown)
        self.slowdowns.append(slowdown)
        self.work[kind] = work

    def expect_same(self, kind: str, exact) -> None:
        """Deterministic counts of an op: identical on every pass."""
        first = self.exact.setdefault(kind, exact)
        self.check.ok(f"{kind} exact counts repeat", first == exact,
                      f"{first} -> {exact}")

    @contextmanager
    def op(self, kind: str):
        """Time one op; an exception counts it failed, not the run.
        Yields a dict the body fills with ``work``.  The heap is
        collected first so no op pays for its predecessor's garbage."""
        info: dict = {}
        gc.collect()
        timed = Timed()
        try:
            with timed:
                yield info
        except Exception as exc:  # boundary: the run must finish and report
            traceback.print_exc(file=sys.stderr)
            self.check.attempted += 1
            self.check.fail(kind, f"raised {type(exc).__name__}: {exc}")
            return
        self.add(kind, timed.wall, info.get("work", 0),
                 slowdown=timed.slowdown)

    def samples(self) -> dict:
        return {k: sum(len(p) for p in passes)
                for k, passes in self.walls.items()}

    def op_walls(self, kinds) -> dict:
        """Kind -> wall of one op: the median within each pass, then
        the median across the passes."""
        return {k: statistics.median(
            [statistics.median(p) for p in self.walls[k] if p])
            for k in kinds if self.walls.get(k)}

    def pass_totals(self, kinds) -> tuple:
        """(work, wall) of one pass over ``kinds``: per kind, the
        pass's ops summed and the median taken across passes — so a
        kind counts as often as the pass runs it, and one slow pass
        cannot move the total."""
        work = wall = 0.0
        for kind in kinds:
            passes = [p for p in self.walls.get(kind, ()) if p]
            if passes:
                wall += statistics.median(sum(p) for p in passes)
                work += self.work[kind] * statistics.median(
                    len(p) for p in passes)
        return work, wall


def end_to_end(rec: Recorder, wl, setup_s: float) -> dict:
    """The five end-to-end values from one run's samples.

    ``work_per_s`` is the fixed work of a pass over its wall (per-kind
    medians across passes); ``call_p50_ms`` is the median over the
    primary kinds."""
    work, total = rec.pass_totals(wl.throughput_kinds)
    primary = rec.op_walls(wl.primary_kinds)
    cold = rec.op_walls([wl.cold_kind])
    return {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "work_per_s": work / total if total else 0.0,
        "call_p50_ms":
            1e3 * statistics.median(primary.values()) if primary else 0.0,
        "cold_call_ms": 1e3 * cold.get(wl.cold_kind, 0.0),
    }


def timed_setup(wl, repeats: int) -> list:
    """Run the workload's set-up ``repeats`` times from scratch; the
    state of the last one is what the passes use.  Returns the
    speed-normalised walls."""
    walls = []
    for i in range(repeats):
        if i:
            wl.teardown()
        with Timed() as timed:
            wl.setup()
        walls.append(timed.seconds)
    return walls


def run_passes(wl, rec: Recorder, seconds: float) -> None:
    """Whole passes until ``seconds`` have gone by; at least two, so
    the exact counts are compared across passes even in a smoke run."""
    start = time.perf_counter()
    while (len(rec.pass_walls) < 2
           or time.perf_counter() - start < seconds):
        t0 = time.perf_counter()
        wl.run_pass(rec)
        rec.pass_walls.append(time.perf_counter() - t0)


def run_workload(wl, *, seconds: float, trace: bool, import_s: float,
                 setup_repeats: int) -> dict:
    """One benchmark run of one workload.  Returns the result line's
    fields plus the run record (``record``) for ``out/*.json``."""
    check = Checker()
    record: dict = {"workload": wl.name, "trace": trace,
                    "seconds": seconds}
    try:
        setup_walls = timed_setup(wl, setup_repeats)
        setup_s = import_s + statistics.median(setup_walls)
        t0 = time.perf_counter()
        wl.verify(check)
        record["verify_s"] = time.perf_counter() - t0
        if trace:
            tracer = Tracer()
            values = wl.traced(tracer, check, seconds)
        else:
            rec = Recorder(check)
            run_passes(wl, rec, seconds)
    finally:
        wl.teardown()
    if trace:
        OUT.mkdir(parents=True, exist_ok=True)
        tracer.write(OUT / f"trace-{wl.name}.jsonl")
        metrics = {name: values.get(name, 0)
                   for name, _u, _b in spec.PER_LAYER}
        units = spec.PER_LAYER_UNITS
        record.update(spans=len(tracer.spans),
                      slowdown=stats.summary(tracer.slowdowns))
    else:
        # after teardown, so children (worker, server) count in the RSS
        metrics = end_to_end(rec, wl, setup_s)
        units = spec.END_TO_END_UNITS
        record.update(passes=len(rec.pass_walls),
                      pass_wall_s=rec.pass_walls, samples=rec.samples(),
                      op_wall_s=rec.op_walls(rec.walls), exact=rec.exact,
                      slowdown=stats.summary(rec.slowdowns))
    record.update({
        "setup_walls_s": setup_walls,
        "import_s": import_s,
        "failed_share": check.failed_share,
        "cycle_err_max": check.cycle_err_max,
        "failures": check.failures,
    })
    return {
        "correct": check.correct,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
        "record": record,
    }
