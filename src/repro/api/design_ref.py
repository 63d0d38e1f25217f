"""Design references: one resolution path for every entry point.

A *design reference* is the small, picklable description of where a
design comes from, so the compiled artifact can be rebuilt on the other
side of a process boundary (``Session.run_many`` workers, ``repro.dse``
pool shards) without shipping the whole object graph:

* ``("registry", name, params)`` — recompile from the design registry
  (group aliases accepted);
* ``("specfile", path, params)`` — re-parse a declarative DSL spec file
  (generated designs' kernels are ``exec``-built and don't pickle);
* ``("compiled", compiled)`` — ship the already-compiled design through
  pickle (ad-hoc designs built outside the registry).

:func:`resolve_design` turns anything a user may hand
:class:`repro.api.Session` into ``(ref, compile_fn, spec)``;
:func:`compile_from_ref` is its worker-side inverse.  Before this
module existed the same resolve→compile wiring was re-implemented by
``cli.cmd_run`` and three near-copies inside ``dse/explorer.py``.
"""

from __future__ import annotations

from ..compile import CompiledDesign, compile_design
from ..designs import registry
from ..designs.registry import DesignSpec
from ..hls.design import Design


def resolve_design(design, params: dict | None = None):
    """Resolve a user-facing design argument.

    Args:
        design: a registry name or group alias, a DSL spec file path, a
            :class:`~repro.designs.registry.DesignSpec`, an
            :class:`~repro.hls.Design`, or a
            :class:`~repro.compile.CompiledDesign`.
        params: builder parameter overrides (``n=256``); only meaningful
            for designs that are built from a spec (name, path,
            DesignSpec).

    Returns:
        ``(ref, compile_fn, spec)`` — the picklable design reference, a
        zero-argument callable producing the :class:`CompiledDesign`
        (lazy for name/path references: resolution errors surface
        eagerly, compilation cost is deferred until needed), and the
        :class:`DesignSpec` when one exists (``None`` for raw
        Design/CompiledDesign objects).

    Raises:
        UnknownDesignError: for unknown registry names (with the full
            name/alias hint).
        SpecError: for malformed spec files.
        TypeError: for argument types that cannot name a design, or
            ``params`` passed with an already-built design.
    """
    params = dict(params or {})
    if isinstance(design, str):
        spec = registry.resolve(design)  # eager: surface unknown names now
        if registry.looks_like_spec_path(design):
            ref = ("specfile", design, params)
        else:
            ref = ("registry", design, params)
        return ref, (lambda: compile_design(spec.make(**params))), spec
    if isinstance(design, DesignSpec):
        compiled = compile_design(design.make(**params))
        return ("compiled", compiled), (lambda: compiled), design
    if params:
        raise TypeError(
            "design parameters only apply to designs built from a spec "
            "(registry name, spec path, or DesignSpec); got params "
            f"{sorted(params)} with {type(design).__name__}"
        )
    if isinstance(design, Design):
        compiled = compile_design(design)
        return ("compiled", compiled), (lambda: compiled), None
    if isinstance(design, CompiledDesign):
        return ("compiled", design), (lambda: design), None
    raise TypeError(
        "expected a design name, spec path, DesignSpec, hls.Design or "
        f"CompiledDesign; got {type(design).__name__}"
    )


def compile_from_ref(ref) -> CompiledDesign:
    """Rebuild the compiled design a reference describes (worker side)."""
    tag = ref[0]
    if tag == "registry":
        _tag, name, params = ref
        return compile_design(registry.get(name).make(**params))
    if tag == "specfile":
        _tag, path, params = ref
        from ..designs import dsl

        return compile_design(dsl.load_design_spec(path).make(**params))
    if tag == "compiled":
        return ref[1]
    raise ValueError(f"unknown design reference tag {ref[0]!r}")


def shardable(ref) -> bool:
    """Whether the design behind ``ref`` can reach a pool worker.  Name
    and path references always can; an ad-hoc compiled design must
    cross the process boundary whole, and ``@hls.kernel``-wrapped
    functions don't pickle under the spawn/forkserver start methods
    (fork merely inherits them).  Callers probe once and degrade to
    in-process evaluation instead of crashing platform-dependently."""
    if ref[0] != "compiled":
        return True
    import pickle

    try:
        pickle.dumps(ref[1])
    except Exception:
        return False
    return True
