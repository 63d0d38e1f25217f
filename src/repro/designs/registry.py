"""Design registry: every benchmark design of the paper, by name.

Each entry is a :class:`DesignSpec` with the paper's Table 4 metadata
(design type, module/FIFO counts, blocking/NB mix, cyclicity) and a
builder returning a fresh :class:`~repro.hls.Design`.

Note on module counts: the paper counts the top-level dataflow wrapper as
a module (e.g. ``fig4_ex5`` is listed with 4 modules: controller, two
processors, plus the wrapper).  Our Design layer has no explicit wrapper,
so ``modules`` here is the paper's count minus one unless stated.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from importlib import import_module

from ..errors import DesignError, UnknownDesignError


@dataclass(frozen=True)
class DesignSpec:
    """Registry entry for one benchmark design."""

    name: str
    build: object                    # callable(**params) -> Design
    design_type: str                 # "A", "B", or "C"
    description: str
    blocking: str = "B"              # "B", "NB", or "B+NB"
    cyclic: bool = False
    source: str = ""                 # paper table/figure of origin
    default_params: dict = field(default_factory=dict)
    #: expected behaviours, for tests and the Table 3 harness
    expectations: dict = field(default_factory=dict)

    def make(self, **overrides):
        """Build a fresh Design, with ``overrides`` on ``default_params``
        (e.g. ``spec.make(n=100)`` for a smaller run)."""
        params = dict(self.default_params)
        params.update(overrides)
        try:
            return self.build(**params)
        except TypeError:
            import inspect

            accepts = inspect.signature(self.build).parameters
            unknown = sorted(set(params) - set(accepts))
            if not unknown or any(p.kind is p.VAR_KEYWORD
                                  for p in accepts.values()):
                raise
            raise DesignError(
                f"design {self.name!r} has no parameter(s) "
                f"{', '.join(unknown)}; it accepts: {', '.join(accepts)}"
            ) from None


_REGISTRY: dict[str, DesignSpec] = {}

#: benchmark-group aliases accepted wherever a design name is (``repro
#: run``, ``repro dse``, service requests); each resolves to the group's
#: representative design.
ALIASES: dict[str, str] = {
    "typea_large": "vector_add_stream",
    "typebc": "fig4_ex5",
}

#: file suffixes recognized as design specs
SPEC_SUFFIXES = (".yaml", ".yml", ".json")

#: design module -> the names it registers at import.  :func:`get`
#: imports only the module that defines the name it is asked for; the
#: listing functions (and the unknown-name hint) load all eight.  A name
#: missing here loads everything — slow, never wrong — and
#: ``tests/test_units_misc.py`` holds the table equal to what registers.
_MODULES: dict[str, str] = {
    "branch": "branch",
    "deadlock": "deadlock",
    "fig4": "fig4_ex1 fig4_ex2 fig4_ex3 fig4_ex4a fig4_ex4a_d fig4_ex4b "
            "fig4_ex4b_d fig4_ex5",
    "multicore": "multicore",
    "timer": "fig2_timer",
    "typea_basic": "fxp_sqrt fir_filter window_conv_fixed window_conv_float "
                   "ap_alu parallel_loops imperfect_loops loop_max_bound "
                   "perfect_nested pipelined_nested sequential_accumulators "
                   "accumulators_asserts accumulators_dataflow static_memory "
                   "pointer_casting double_pointer axi4_master "
                   "axis_no_side_channel multiple_array_access "
                   "resolved_array_access uram_ecc fixed_hamming",
    "typea_kastner": "fft_unoptimized fft_multistage huffman_encoding "
                     "matmul merge_sort_parallel",
    "typea_large": "vector_add_stream flowgnn_gin flowgnn_gcn flowgnn_gat "
                   "flowgnn_pna flowgnn_dgn inr_arch skynet",
}
_MODULE_OF = {name: module for module, names in _MODULES.items()
              for name in names.split()}


def _load(modules=_MODULES) -> None:
    """Import design modules (they self-register), all unless told which.
    No "loaded" flag: an imported module is a dictionary lookup, and the
    import locks make a concurrent first ``get`` wait for a whole module."""
    for module in modules:
        import_module(f"{__package__}.{module}")


def register(spec: DesignSpec) -> DesignSpec:
    """Add ``spec`` to the registry (design modules call this at import).

    Raises:
        ValueError: if the name is already registered.
    """
    if spec.name in _REGISTRY:
        raise ValueError(f"duplicate design name {spec.name!r}")
    _REGISTRY[spec.name] = spec
    return spec


def get(name: str) -> DesignSpec:
    """Look up a design by registry name or group alias.

    Raises:
        UnknownDesignError: for unknown names; the message lists every
            registered design *and* the group aliases, so the hint names
            exactly what ``repro run`` accepts.  (It subclasses
            ``KeyError``, so dict-style handling keeps working.)
    """
    target = ALIASES.get(name, name)
    if target in _MODULE_OF:
        _load((_MODULE_OF[target],))
    if target not in _REGISTRY:
        _load()  # not in the index; the hint lists every design anyway
    try:
        return _REGISTRY[target]
    except KeyError:
        aliases = ", ".join(f"{a} (-> {t})" for a, t in sorted(ALIASES.items()))
        raise UnknownDesignError(
            f"unknown design {name!r}; known: {', '.join(sorted(_REGISTRY))}; "
            f"aliases: {aliases}"
        ) from None


def looks_like_spec_path(name: str) -> bool:
    """True when a CLI design argument denotes a spec file, not a registry
    name (by suffix, or by being an existing file path)."""
    return name.lower().endswith(SPEC_SUFFIXES) or (
        (os.sep in name or "/" in name) and os.path.isfile(name))


def resolve(name_or_path: str) -> DesignSpec:
    """Resolve a CLI design argument: registry name, alias, or spec file.

    Arguments ending in ``.yaml``/``.yml``/``.json`` (or naming an
    existing file) load through the declarative DSL
    (:func:`repro.designs.dsl.load_design_spec`); anything else goes
    through :func:`get` and never imports the DSL.
    """
    if looks_like_spec_path(name_or_path):
        from . import dsl

        return dsl.load_design_spec(name_or_path)
    return get(name_or_path)


def names(design_type: str | None = None) -> list[str]:
    """Sorted design names, optionally filtered by taxonomy type."""
    _load()
    if design_type is None:
        return sorted(_REGISTRY)
    return sorted(n for n, s in _REGISTRY.items()
                  if s.design_type == design_type)


def all_specs() -> list[DesignSpec]:
    """Every registered design, sorted by name."""
    _load()
    return [_REGISTRY[n] for n in sorted(_REGISTRY)]


def table4_specs() -> list[DesignSpec]:
    """The eleven Type B/C designs of the paper's Table 4, in its order."""
    _load()
    order = [
        "fig4_ex2", "fig4_ex3", "fig4_ex4a", "fig4_ex4a_d",
        "fig4_ex4b", "fig4_ex4b_d", "fig4_ex5", "fig2_timer",
        "deadlock", "branch", "multicore",
    ]
    return [_REGISTRY[n] for n in order]


def table5_specs() -> list[DesignSpec]:
    """The Type A suite mirroring LightningSimV2's benchmarks (Table 5)."""
    return [s for s in all_specs()
            if s.design_type == "A" and s.source.startswith("table5")]
