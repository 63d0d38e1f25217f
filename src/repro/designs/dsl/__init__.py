"""Declarative design frontend: YAML/JSON specs + procedural generator.

This package decouples *describing* a dataflow design from *coding* it:

* :mod:`~repro.designs.dsl.schema` — the spec model and validation;
* :mod:`~repro.designs.dsl.parser` — YAML/JSON text -> :class:`DslSpec`;
* :mod:`~repro.designs.dsl.lower` — spec -> :class:`repro.hls.Design`
  by synthesizing kernel source per role template;
* :mod:`~repro.designs.dsl.generator` — seeded procedural specs across
  the paper's Type A/B/C taxonomy (``repro gen``);
* :mod:`~repro.designs.dsl.export` — Python design -> spec round trip.

Typical usage::

    from repro.designs import dsl

    spec = dsl.load_spec("examples/fig4_ex1.yaml")
    design = dsl.build_design(spec, n=100)        # constant override
    entry = dsl.to_design_spec(spec)              # registry-compatible

    corpus = [dsl.generate("C", modules=5, seed=s) for s in range(100)]
    print(dsl.spec_to_yaml(corpus[0]))

Every ``repro`` CLI command that takes a design name also takes a spec
path (``repro run examples/fig4_ex1.yaml``); ``repro gen`` emits spec
files; ``repro dse <dir>`` sweeps a directory of generated specs.
"""

from ..registry import SPEC_SUFFIXES, looks_like_spec_path
from .export import (
    export_design,
    export_registry_design,
    spec_to_dict,
    spec_to_yaml,
)
from .generator import generate
from .lower import build_design, to_design_spec
from .parser import load_spec, parse_spec
from .schema import (
    DESIGN_TYPES,
    ROLES,
    AxiSpec,
    BufferSpec,
    DslSpec,
    FifoSpec,
    ModuleSpec,
    ScalarSpec,
    parse_type,
    type_to_str,
    validate_spec,
)


def load_design_spec(path, **_ignored):
    """Load a spec file and wrap it as a registry-compatible entry.

    Convenience composition of :func:`load_spec` + :func:`to_design_spec`
    — the single call the CLI and DSE plumbing use for spec-file design
    arguments.
    """
    return to_design_spec(load_spec(path))


__all__ = [
    "AxiSpec", "BufferSpec", "DESIGN_TYPES", "DslSpec", "FifoSpec",
    "ModuleSpec", "ROLES", "SPEC_SUFFIXES", "ScalarSpec", "build_design",
    "export_design", "export_registry_design", "generate",
    "load_design_spec", "load_spec", "looks_like_spec_path", "parse_spec",
    "parse_type", "spec_to_dict", "spec_to_yaml", "to_design_spec",
    "type_to_str", "validate_spec",
]
