"""Shared design instances for the paper-table printers.

Each ``bench_*`` module regenerates one table or figure of the paper:
execute it directly (``python benchmarks/bench_table3_functionality.py``)
to print the table; ``tests/test_paper_tables.py`` runs every ``rows()``
builder in tier-1 and checks its fidelity column.  Wall-clock claims are
made with ``benchmarks/perf`` only.
"""

from __future__ import annotations

from repro import compile_design, designs
from repro.analysis import render_table

_COMPILED_CACHE: dict = {}

#: smaller Type B/C instances keep co-simulation affordable in CI runs
TABLE3_PARAMS = {
    "fig4_ex2": {"n": 400}, "fig4_ex3": {"n": 400},
    "fig4_ex4a": {"n": 400}, "fig4_ex4b": {"n": 400},
    "fig4_ex4a_d": {"polls": 600}, "fig4_ex4b_d": {"polls": 600},
    "fig4_ex5": {"n": 400}, "fig2_timer": {"n": 400},
    "deadlock": {"n": 100}, "branch": {"n": 800},
    "multicore": {"n": 250},
}


def compiled_design(name: str, **params):
    key = (name, tuple(sorted(params.items())))
    if key not in _COMPILED_CACHE:
        _COMPILED_CACHE[key] = compile_design(
            designs.get(name).make(**params)
        )
    return _COMPILED_CACHE[key]


def table3_compiled(name: str):
    return compiled_design(name, **TABLE3_PARAMS.get(name, {}))


def render_rows(table: list, title: str) -> str:
    """Render ``rows()`` output — one dict per row, keyed by column
    header — as the printed table."""
    return render_table(list(table[0]),
                        [tuple(row.values()) for row in table], title=title)
