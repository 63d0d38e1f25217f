"""Analysis utilities: taxonomy classification, accuracy, table rendering."""

from .accuracy import AccuracyRow, geomean
from .tables import fmt_seconds, render_table
from .taxonomy import Classification, classify

__all__ = [
    "AccuracyRow",
    "Classification",
    "classify",
    "fmt_seconds",
    "geomean",
    "render_table",
]
