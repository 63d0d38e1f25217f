"""Compare two benchmark documents (``run.py`` without ``--workload``).

    python3 benchmarks/perf/compare.py A.json B.json
    python3 benchmarks/perf/compare.py --aa [--repeats N] [--seconds S]

One row per (workload, end-to-end metric): both medians with their
quartiles, B's change as a share of A's median (A is the base of every
ratio printed), the metric's bound, and a verdict — ``improved``,
``unchanged``, ``regressed``, or ``unresolved`` when A's own
inter-quartile spread exceeds the bound.  ``--aa`` runs the current
tree twice with the same seeds and compares the two; exit code 1 on any
``regressed`` row, and on a failed or mismatched op in either document.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import spec
import stats

PERF_DIR = Path(__file__).resolve().parent


def metric_values(document: dict, workload: str, metric: str) -> list:
    return [run["metrics"][metric]["value"]
            for run in document["runs"][workload]]


def rows(a: dict, b: dict) -> list:
    """(workload, metric, summary A, summary B, worsening, bound,
    verdict) for every pair both documents measured."""
    out = []
    for workload in spec.WORKLOADS:
        if workload not in a["runs"] or workload not in b["runs"]:
            continue
        for metric, _unit, better, bound in spec.END_TO_END:
            sa = stats.summary(metric_values(a, workload, metric))
            sb = stats.summary(metric_values(b, workload, metric))
            out.append((workload, metric, sa, sb,
                        stats.worsening(sa["median"], sb["median"], better),
                        bound, stats.verdict(sa, sb, better, bound)))
    return out


def failed_ops(document: dict) -> int:
    return sum(run["failed"] + (not run["correct"])
               for runs in document["runs"].values() for run in runs)


def report(a: dict, b: dict) -> int:
    print(f"{'workload':18s} {'metric':13s} {'A median [q1, q3]':>36s} "
          f"{'B median [q1, q3]':>36s} {'B worse than A':>15s} "
          f"{'bound':>6s}  verdict")
    regressed = 0
    for workload, metric, sa, sb, worse, bound, verdict in rows(a, b):
        unit = spec.END_TO_END_UNITS[metric]

        def cell(s: dict) -> str:
            return (f"{s['median']:.5g} [{s['q1']:.5g}, {s['q3']:.5g}] "
                    f"{unit} n={s['n']}")

        print(f"{workload:18s} {metric:13s} {cell(sa):>36s} {cell(sb):>36s} "
              f"{100 * worse:>+13.2f} % {100 * bound:>5.0f}%  {verdict}")
        regressed += verdict == "regressed"
    bad_ops = failed_ops(a) + failed_ops(b)
    if bad_ops:
        print(f"{bad_ops} failed or mismatched op(s) across both documents")
    return 1 if regressed or bad_ops else 0


def run_tree(out: Path, args) -> dict:
    subprocess.run(
        [sys.executable, str(PERF_DIR / "run.py"), "--seed", str(args.seed),
         "--repeats", str(args.repeats), "--seconds", str(args.seconds),
         "--out", str(out)], check=False)
    return json.loads(out.read_text(encoding="utf-8"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("documents", nargs="*", metavar="JSON",
                        help="A.json B.json")
    parser.add_argument("--aa", action="store_true",
                        help="run the current tree twice and compare")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    args = parser.parse_args(argv)
    if args.aa:
        out = PERF_DIR / "out"
        a = run_tree(out / "aa-A.json", args)
        b = run_tree(out / "aa-B.json", args)
    elif len(args.documents) == 2:
        a, b = (json.loads(Path(p).read_text(encoding="utf-8"))
                for p in args.documents)
    else:
        parser.error("give A.json B.json, or --aa")
    return report(a, b)


if __name__ == "__main__":
    sys.exit(main())
