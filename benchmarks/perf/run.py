"""The perf benchmark's one command.

One workload, as the acceptance driver runs it::

    python3 benchmarks/perf/run.py --workload run_cold --seed 3 \\
        --seconds 12 --trace 0

prints every metric by name with its unit and, as the last line of
standard output, one JSON object with exactly the keys ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``, the per-layer ones with ``--trace 1``).  Exit code 0
unless an op failed or mismatched its reference.

Without ``--workload`` it runs all five, one child process at a time,
``--repeats`` times each (seed, seed+1, ...), and writes the samples
with their medians, quartiles and the run record to
``benchmarks/perf/out/`` for ``compare.py``.  ``--smoke`` is the same
at toy sizes (< 30 s) and only validates the output schema.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import subprocess
import sys
import time
from pathlib import Path

PERF_DIR = Path(__file__).resolve().parent
ROOT = PERF_DIR.parents[1]
SRC = ROOT / "src"

#: workload name -> (module, class)
WORKLOAD_CLASSES = {
    "run_cold": ("wl_run_cold", "RunCold"),
    "capture_scale": ("wl_capture_scale", "CaptureScale"),
    "sweep_vectorized": ("wl_sweep_vectorized", "SweepVectorized"),
    "sweep_fallback": ("wl_sweep_fallback", "SweepFallback"),
    "serve_sweep": ("wl_serve_sweep", "ServeSweep"),
}


def pin_environment() -> None:
    """Re-exec once with a pinned hash seed and no ambient trace cache,
    so in-process simulation is as deterministic as the children's."""
    if (os.environ.get("PYTHONHASHSEED") == "0"
            and "REPRO_TRACE_CACHE" not in os.environ):
        return
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("REPRO_TRACE_CACHE", None)
    os.execve(sys.executable, [sys.executable, *sys.argv], env)


def print_metrics(workload: str, metrics: dict) -> None:
    """Every metric by name, with its unit."""
    for name, entry in metrics.items():
        print(f"{workload:18s} {name:40s} {entry['value']:>16.6g} "
              f"{entry['unit']}")


def run_one(args) -> int:
    """One workload, one run: the driver's contract."""
    import spec

    if not (SRC / "repro").is_dir():
        print(f"error: {SRC / 'repro'} not found: the benchmark needs the "
              "repository's sources", file=sys.stderr)
        return 2
    # The "build": byte-compile once so no run pays it inside a timing.
    compileall.compile_dir(str(SRC / "repro"), quiet=2)
    sys.path.insert(1, str(SRC))
    from calibrate import Timed

    with Timed() as imports:
        import harness

        module, cls = WORKLOAD_CLASSES[args.workload]
        workload = getattr(__import__(module), cls)(args.seed,
                                                    smoke=args.smoke)

    harness.prepare_dirs()
    result = harness.run_workload(
        workload, seconds=args.seconds, trace=bool(args.trace),
        import_s=imports.seconds,
        setup_repeats=1 if args.smoke else workload.setup_repeats)
    record = result.pop("record")
    record.update(seed=args.seed, smoke=args.smoke,
                  machine=harness.fingerprint())
    harness.OUT.mkdir(parents=True, exist_ok=True)
    out = harness.OUT / (f"{args.workload}-trace{args.trace}"
                         f"-seed{args.seed}.json")
    out.write_text(json.dumps(dict(result, record=record), indent=2)
                   + "\n", encoding="utf-8")

    print_metrics(args.workload, dict(
        result["metrics"],
        failed_share={"value": record["failed_share"], "unit": "ratio"},
        cycle_err_max={"value": record["cycle_err_max"], "unit": "cycles"}))
    for failure in record["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    problems = spec.result_problems(result, bool(args.trace))
    for problem in problems:
        print(f"SCHEMA {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] and not problems else 1


def child_result(workload: str, seed: int, seconds: float, trace: int,
                 smoke: bool) -> dict:
    """Run one workload in a child process; its last line is the
    result."""
    cmd = [sys.executable, str(PERF_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload}: no result (exit {proc.returncode})")
    result = json.loads(lines[-1])
    result["exit_code"] = proc.returncode
    result["seed"] = seed
    return result


def run_all(args) -> int:
    """Every workload, ``--repeats`` times, workloads interleaved so
    machine drift falls on all of them alike."""
    import spec
    import stats

    sys.path.insert(1, str(SRC))
    import harness

    names = list(spec.WORKLOADS)
    seconds = 1 if args.smoke else args.seconds
    repeats = 1 if args.smoke else args.repeats
    runs: dict = {name: [] for name in names}
    layers: dict = {}
    ok = True
    for repeat in range(repeats):
        for name in names:
            result = child_result(name, args.seed + repeat, seconds, 0,
                                  args.smoke)
            ok &= result["exit_code"] == 0
            runs[name].append(result)
            print(f"[{repeat + 1}/{repeats}] {name}: " + ", ".join(
                f"{m}={e['value']:.6g} {e['unit']}"
                for m, e in result["metrics"].items()), flush=True)
    if args.trace:
        for name in names:
            result = child_result(name, args.seed, seconds, 1, args.smoke)
            ok &= result["exit_code"] == 0
            layers[name] = result
            print_metrics(name, result["metrics"])
    summary = {
        name: {metric: stats.summary(
            [r["metrics"][metric]["value"] for r in results])
            for metric in spec.END_TO_END_UNITS}
        for name, results in runs.items()}
    print(f"\n{'workload':18s} {'metric':14s} {'median':>12s} "
          f"{'q1':>12s} {'q3':>12s} {'spread':>8s} {'n':>3s}  unit")
    for name, metrics in summary.items():
        for metric, s in metrics.items():
            print(f"{name:18s} {metric:14s} {s['median']:>12.6g} "
                  f"{s['q1']:>12.6g} {s['q3']:>12.6g} "
                  f"{100 * stats.spread(s):>7.2f}% {s['n']:>3d}  "
                  f"{spec.END_TO_END_UNITS[metric]}")
    document = {
        "record": {"seed": args.seed, "repeats": repeats,
                   "seconds": seconds, "smoke": args.smoke,
                   "machine": harness.fingerprint(),
                   "written_at": time.strftime("%Y-%m-%dT%H:%M:%SZ",
                                               time.gmtime())},
        "summary": summary,
        "runs": runs,
        "per_layer": layers,
    }
    out = Path(args.out) if args.out else harness.OUT / "bench.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0 if ok else 1


def main(argv=None) -> int:
    import spec

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOAD_CLASSES),
                        help="run one workload (default: all five)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS,
                        help="how long the timed passes of one run last")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced pass (per-layer metrics)")
    parser.add_argument("--repeats", type=int, default=5,
                        help="runs per workload when running all five")
    parser.add_argument("--smoke", action="store_true",
                        help="toy sizes; validates the output schema")
    parser.add_argument("--out", help="where the all-workload document "
                                      "goes (default out/bench.json)")
    parser.add_argument("--write-manifest", action="store_true",
                        help="regenerate BENCHMARK.json from spec.py")
    args = parser.parse_args(argv)
    if args.write_manifest:
        (ROOT / "BENCHMARK.json").write_text(
            json.dumps(spec.manifest(), indent=2) + "\n", encoding="utf-8")
        return 0
    pin_environment()
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
