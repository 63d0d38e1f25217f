"""Spec text -> validated :class:`DslSpec` (YAML or JSON).

The parser is deliberately tolerant about the container format — text
that is JSON is read as JSON, anything else as YAML, and PyYAML is
imported only then, so ``.json`` specs work (and stay cheap) without
it — and deliberately strict about content: every stanza
goes through :func:`repro.designs.dsl.schema.validate_spec`, and all
errors are :class:`~repro.errors.SpecError` naming the file and stanza.
"""

from __future__ import annotations

import json

from ...errors import SpecError
from .schema import (
    DESIGN_TYPES,
    AxiSpec,
    BufferSpec,
    DslSpec,
    FifoSpec,
    ModuleSpec,
    ScalarSpec,
    _Checker,
    validate_spec,
)

_TOP_KEYS_REQUIRED = {"design", "modules"}
_TOP_KEYS_OPTIONAL = {"description", "type", "constants", "fifos",
                      "buffers", "scalars", "axi"}

_DECL_FIELDS = {
    "fifos": (FifoSpec, {"name"}, {"type", "depth"}),
    "buffers": (BufferSpec, {"name", "size"}, {"type", "init"}),
    "scalars": (ScalarSpec, {"name"}, {"type"}),
    "axi": (AxiSpec, {"name", "size"},
            {"type", "init", "read_latency", "write_latency"}),
}

def _load_mapping(text: str, origin: str) -> dict:
    try:
        # JSON first: a ``.json`` file or an inline ``/v1/*`` spec never
        # imports PyYAML (YAML text is not JSON and falls through)
        data = json.loads(text)
    except json.JSONDecodeError as json_exc:
        try:
            import yaml
        except ImportError:  # pragma: no cover - minimal installs only
            raise SpecError(
                f"spec {origin!r}: invalid JSON: {json_exc} "
                "(PyYAML not installed; only JSON specs are supported)"
            ) from None
        try:
            data = yaml.safe_load(text)
        except yaml.YAMLError as exc:
            raise SpecError(f"spec {origin!r}: invalid YAML: {exc}") from None
    if not isinstance(data, dict):
        raise SpecError(
            f"spec {origin!r}: top level must be a mapping, got "
            f"{type(data).__name__}"
        )
    return data


def parse_spec(text: str, origin: str = "<string>") -> DslSpec:
    """Parse and validate one design spec from YAML/JSON text.

    Args:
        text: the spec document.
        origin: label used in error messages (usually the file path).

    Returns:
        A validated :class:`DslSpec`.

    Raises:
        SpecError: on malformed syntax, unknown fields, dangling
            references, or role constraint violations.
    """
    data = _load_mapping(text, origin)
    check = _Checker(origin)
    check.check_keys(data, "top level", _TOP_KEYS_REQUIRED,
                     _TOP_KEYS_OPTIONAL)
    name = check.expect_str(data["design"], "design")
    design_type = data.get("type", "A")
    if design_type not in DESIGN_TYPES:
        raise check.fail(
            "type", f"expected one of {'/'.join(DESIGN_TYPES)}, "
                    f"got {design_type!r}"
        )
    constants = check.expect_map(data.get("constants", {}) or {},
                                 "constants")

    spec = DslSpec(
        name=name,
        description=str(data.get("description", "") or ""),
        design_type=design_type,
        constants=dict(constants),
        origin=origin,
    )
    for kind, (cls, required, optional) in _DECL_FIELDS.items():
        entries = data.get(kind, []) or []
        if not isinstance(entries, list):
            raise check.fail(kind, "expected a list of mappings")
        for i, entry in enumerate(entries):
            where = f"{kind}[{i}]"
            entry = check.expect_map(entry, where)
            check.check_keys(entry, where, required, optional)
            check.expect_str(entry["name"], f"{where}: name")
            getattr(spec, kind).append(cls(**entry))

    modules = data.get("modules", []) or []
    if not isinstance(modules, list):
        raise check.fail("modules", "expected a list of mappings")
    for i, entry in enumerate(modules):
        where = f"modules[{i}]"
        entry = check.expect_map(entry, where)
        if "name" not in entry:
            raise check.fail(where, "missing required field(s) ['name']")
        mname = check.expect_str(entry["name"], f"{where}: name")
        if "source" in entry and "role" in entry:
            raise check.fail(f"{where} {mname!r}",
                             "a module needs exactly one of 'role' or "
                             "'source', not both")
        if "source" in entry:
            check.check_keys(entry, f"{where} {mname!r}",
                             {"name", "source", "binds"}, set())
            spec.modules.append(ModuleSpec(
                name=mname, source=entry["source"],
                binds=check.expect_map(entry.get("binds", {}),
                                       f"{where}: binds"),
            ))
        else:
            params = {k: v for k, v in entry.items()
                      if k not in ("name", "role")}
            spec.modules.append(ModuleSpec(
                name=mname, role=entry.get("role"), params=params,
            ))
    return validate_spec(spec)


def load_spec(path) -> DslSpec:
    """Read, parse and validate a spec file (YAML or JSON by content)."""
    import os

    path = os.fspath(path)
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise SpecError(f"cannot read spec {path!r}: {exc}") from None
    return parse_spec(text, origin=path)
