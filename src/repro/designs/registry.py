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

from dataclasses import dataclass, field

from ..errors import UnknownDesignError


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
        return self.build(**params)


_REGISTRY: dict[str, DesignSpec] = {}

#: benchmark-group aliases accepted wherever a design name is (``repro
#: run``, ``repro dse``, service requests); each resolves to the group's
#: representative design.
ALIASES: dict[str, str] = {
    "typea_large": "vector_add_stream",
    "typebc": "fig4_ex5",
}


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
    _ensure_loaded()
    try:
        return _REGISTRY[ALIASES.get(name, name)]
    except KeyError:
        aliases = ", ".join(f"{a} (-> {t})" for a, t in sorted(ALIASES.items()))
        raise UnknownDesignError(
            f"unknown design {name!r}; known: {', '.join(sorted(_REGISTRY))}; "
            f"aliases: {aliases}"
        ) from None


def resolve(name_or_path: str) -> DesignSpec:
    """Resolve a CLI design argument: registry name, alias, or spec file.

    Arguments ending in ``.yaml``/``.yml``/``.json`` (or naming an
    existing file) load through the declarative DSL
    (:func:`repro.designs.dsl.load_design_spec`); anything else goes
    through :func:`get`.
    """
    from . import dsl

    if dsl.looks_like_spec_path(name_or_path):
        return dsl.load_design_spec(name_or_path)
    return get(name_or_path)


def names(design_type: str | None = None) -> list[str]:
    """Sorted design names, optionally filtered by taxonomy type."""
    _ensure_loaded()
    if design_type is None:
        return sorted(_REGISTRY)
    return sorted(n for n, s in _REGISTRY.items()
                  if s.design_type == design_type)


def all_specs() -> list[DesignSpec]:
    """Every registered design, sorted by name."""
    _ensure_loaded()
    return [_REGISTRY[n] for n in sorted(_REGISTRY)]


def table4_specs() -> list[DesignSpec]:
    """The eleven Type B/C designs of the paper's Table 4, in its order."""
    _ensure_loaded()
    order = [
        "fig4_ex2", "fig4_ex3", "fig4_ex4a", "fig4_ex4a_d",
        "fig4_ex4b", "fig4_ex4b_d", "fig4_ex5", "fig2_timer",
        "deadlock", "branch", "multicore",
    ]
    return [_REGISTRY[n] for n in order]


def table5_specs() -> list[DesignSpec]:
    """The Type A suite mirroring LightningSimV2's benchmarks (Table 5)."""
    _ensure_loaded()
    return [s for s in all_specs()
            if s.design_type == "A" and s.source.startswith("table5")]


_loaded = False


def _ensure_loaded() -> None:
    """Import all design modules exactly once (they self-register)."""
    global _loaded
    if _loaded:
        return
    _loaded = True
    from . import (  # noqa: F401 - imported for registration side effects
        branch,
        deadlock,
        fig4,
        multicore,
        timer,
        typea_basic,
        typea_kastner,
        typea_large,
    )
