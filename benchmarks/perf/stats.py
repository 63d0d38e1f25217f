"""Sample arithmetic for the perf benchmark: percentiles, quartile
summaries, run-to-run spread and the A-vs-B verdict rule.

Pure functions over lists of numbers, so ``test_harness.py`` can pin
every rule on synthetic data.  Quartiles come from
``statistics.quantiles(values, n=4)`` — the same estimator the
acceptance driver applies to the ten-run spread.
"""

from __future__ import annotations

import statistics


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of an unsorted sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    idx = max(0, min(len(ordered) - 1, int(round(q * (len(ordered) - 1)))))
    return ordered[idx]


def summary(values) -> dict:
    """Median, quartiles, extremes and sample count of one metric."""
    values = list(values)
    if not values:
        raise ValueError("summary of an empty sample")
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "n": len(values),
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "max": max(values),
    }


def spread(stats: dict) -> float:
    """Inter-quartile distance as a share of the median."""
    if stats["median"] == 0:
        return 0.0 if stats["q3"] == stats["q1"] else float("inf")
    return (stats["q3"] - stats["q1"]) / abs(stats["median"])


def worsening(a_median: float, b_median: float, better: str) -> float:
    """How much worse B's median is than A's, as a share of A's (the
    base of every ratio this module reports); negative when B is
    better."""
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    if a_median == 0:
        return 0.0 if b_median == 0 else float("inf")
    delta = (b_median - a_median) / abs(a_median)
    return delta if better == "lower" else -delta


def verdict(a: dict, b: dict, better: str, bound: float) -> str:
    """Compare two summaries of one (metric, workload) pair.

    ``unresolved`` when A's own inter-quartile spread exceeds the bound
    (the runs cannot tell a regression of that size from noise);
    ``regressed`` when B's median is worse than A's by more than the
    bound; ``improved`` when it is better by more than A's spread;
    ``unchanged`` otherwise.
    """
    noise = spread(a)
    if noise > bound:
        return "unresolved"
    worse = worsening(a["median"], b["median"], better)
    if worse > bound:
        return "regressed"
    if worse < 0 and -worse > noise:
        return "improved"
    return "unchanged"
