"""Simulator-vs-simulator comparison utilities (Fig. 8a machinery)."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class AccuracyRow:
    """One design's accuracy comparison between two simulators."""

    design: str
    reference_cycles: int
    measured_cycles: int

    @property
    def error(self) -> float:
        """Relative error of measured vs reference cycles."""
        if self.reference_cycles == 0:
            return 0.0 if self.measured_cycles == 0 else float("inf")
        return (self.measured_cycles - self.reference_cycles) \
            / self.reference_cycles

    @property
    def exact(self) -> bool:
        return self.measured_cycles == self.reference_cycles

    def describe(self) -> str:
        if self.exact:
            return "Exact"
        return f"{self.error:+.2%}"


def geomean(values) -> float:
    """Geometric mean of positive floats."""
    values = list(values)
    if not values:
        return 0.0
    product = 1.0
    for v in values:
        product *= v
    return product ** (1.0 / len(values))
