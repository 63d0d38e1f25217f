"""Spec model for the declarative design DSL: dataclasses + validation.

A design spec is a plain mapping (typically parsed from YAML or JSON by
:mod:`repro.designs.dsl.parser`) with the following top-level keys::

    design:       <name>                      # required
    description:  <one line>                  # optional
    type:         A | B | C | D               # declared taxonomy label
    constants:    {n: 256, ...}               # named ints, overridable
    fifos:        [{name, type, depth}, ...]
    buffers:      [{name, type, size, init}, ...]
    scalars:      [{name, type}, ...]
    axi:          [{name, type, size, init, read_latency, write_latency}]
    modules:      [<module stanza>, ...]      # required, non-empty

A module stanza is either **role-based** (``role:`` plus role-specific
fields; the lowering pass synthesizes the kernel body, see
:mod:`repro.designs.dsl.lower`) or **source-based** (``source:`` holding
a Python kernel definition plus ``binds:`` mapping port names to declared
design objects or constants — the form the exporter emits).

Element types are spelled as strings: ``i8``/``i32``/``u16``/... for
two's-complement integers of any width, ``f32``/``f64`` for floats,
``fixed(W,I)``/``ufixed(W,I)`` for fixed point.

Validation is structural and eager: unknown keys, dangling FIFO
references, double-connected FIFO endpoints, and role constraint
violations all raise :class:`~repro.errors.SpecError` naming the spec
and the offending stanza.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from ...errors import SpecError
from ...ir import types as ty

#: roles the lowering pass can synthesize a kernel for
ROLES = ("producer", "worker", "splitter", "combiner", "sink", "controller")

#: producer write disciplines (see DESIGN.md section 12)
WRITE_MODES = ("blocking", "nb_retry", "nb_drop")

#: sink termination protocols
SINK_MODES = ("count", "sentinel", "poll")

DESIGN_TYPES = ("A", "B", "C", "D")

_TYPE_RE = re.compile(
    r"^(?:(?P<int>[iu])(?P<iw>\d+)"
    r"|f(?P<fw>32|64)"
    r"|(?P<ufx>u?)fixed\((?P<xw>\d+),(?P<xi>\d+)\))$"
)


def parse_type(text: str, where: str = "type") -> ty.Type:
    """Parse a spec type string (``i32``, ``u48``, ``f64``, ``fixed(32,16)``)."""
    if isinstance(text, ty.Type):
        return text
    match = _TYPE_RE.match(str(text).replace(" ", ""))
    if match is None:
        raise SpecError(
            f"{where}: unknown element type {text!r} (expected iN, uN, "
            "f32, f64, fixed(W,I) or ufixed(W,I))"
        )
    if match.group("int"):
        return ty.IntType(int(match.group("iw")),
                          signed=match.group("int") == "i")
    if match.group("fw"):
        return ty.FloatType(int(match.group("fw")))
    return ty.FixedType(int(match.group("xw")), int(match.group("xi")),
                        signed=not match.group("ufx"))


def type_to_str(element: ty.Type) -> str:
    """Render an IR element type back to the spec spelling."""
    if isinstance(element, ty.IntType):
        return f"{'i' if element.signed else 'u'}{element.width}"
    if isinstance(element, ty.FloatType):
        return f"f{element.width}"
    if isinstance(element, ty.FixedType):
        prefix = "fixed" if element.signed else "ufixed"
        return f"{prefix}({element.width},{element.int_bits})"
    raise SpecError(f"cannot express type {element!r} in a spec")


def type_to_hls_expr(element: ty.Type) -> str:
    """Spell an element type as an ``hls.``-namespace Python expression
    (used when synthesizing or canonicalizing kernel source)."""
    if isinstance(element, ty.IntType):
        if element.width == 1 and not element.signed:
            return "hls.i1"
        if element.signed:
            return f"hls.int_type({element.width})"
        return f"hls.int_type({element.width}, signed=False)"
    if isinstance(element, ty.FloatType):
        return f"hls.f{element.width}"
    if isinstance(element, ty.FixedType):
        signed = "" if element.signed else ", signed=False"
        return f"hls.fixed({element.width}, {element.int_bits}{signed})"
    raise SpecError(f"cannot lower element type {element!r}")


# ---------------------------------------------------------------------------
# spec dataclasses


@dataclass(frozen=True)
class FifoSpec:
    """One FIFO edge: name, element type string, depth."""

    name: str
    type: str = "i32"
    depth: int = 2


@dataclass(frozen=True)
class BufferSpec:
    """A shared array; ``init`` is a list, a number (fill), or a pattern
    mapping (``{pattern: range|const, mul, add, value}``)."""

    name: str
    type: str = "i32"
    size: int = 0
    init: object = None


@dataclass(frozen=True)
class ScalarSpec:
    """A named scalar output register."""

    name: str
    type: str = "i32"


@dataclass(frozen=True)
class AxiSpec:
    """An AXI-attached memory region."""

    name: str
    type: str = "i32"
    size: int = 0
    init: object = None
    read_latency: int = 12
    write_latency: int = 6


@dataclass(frozen=True)
class ModuleSpec:
    """One module stanza: role-based or source-based (exactly one)."""

    name: str
    role: str | None = None
    #: role fields (validated per role)
    params: dict = field(default_factory=dict)
    #: source form: kernel text + port bindings
    source: str | None = None
    binds: dict = field(default_factory=dict)


@dataclass
class DslSpec:
    """A fully validated declarative design description."""

    name: str
    description: str = ""
    design_type: str = "A"
    constants: dict = field(default_factory=dict)
    fifos: list = field(default_factory=list)
    buffers: list = field(default_factory=list)
    scalars: list = field(default_factory=list)
    axi: list = field(default_factory=list)
    modules: list = field(default_factory=list)
    #: where the spec came from, for error messages ("<string>" if inline)
    origin: str = "<string>"
    #: fifo name -> producing/consuming module name; filled by
    #: :func:`validate_spec` (parse_spec/generate always validate)
    fifo_writers: dict = field(default_factory=dict)
    fifo_readers: dict = field(default_factory=dict)

    @property
    def blocking(self) -> str:
        """Registry ``blocking`` label derived from the module stanzas.

        Every role template also performs blocking accesses somewhere
        (sentinel handshakes, done signals), so the label is ``B+NB``
        whenever any non-blocking access appears, never plain ``NB``.
        """
        has_nb = any(
            m.role in ("producer", "sink")
            and (m.params.get("write") in ("nb_retry", "nb_drop")
                 or m.params.get("mode") == "poll")
            for m in self.modules
        ) or any(m.source and (".read_nb(" in m.source
                               or ".write_nb(" in m.source)
                 for m in self.modules)
        return "B+NB" if has_nb else "B"


# ---------------------------------------------------------------------------
# validation helpers

_ROLE_FIELDS = {
    # role: (required, optional)
    "producer": ({"out"},
                 {"data", "count", "ii", "write", "done", "dropped",
                  "sentinel"}),
    "worker": ({"in", "out"}, {"count", "ii", "op", "mode"}),
    "splitter": ({"in", "out"}, {"count", "ii"}),
    "combiner": ({"in", "out"}, {"count", "ii"}),
    "sink": ({"in"},
             {"total", "count", "ii", "mode", "polls", "done"}),
    "controller": ({"out", "in", "data"}, {"count", "total", "ii"}),
}


class _Checker:
    """Accumulates naming context so every error names its stanza."""

    def __init__(self, origin: str):
        self.origin = origin

    def fail(self, where: str, message: str) -> "SpecError":
        return SpecError(f"spec {self.origin!r}: {where}: {message}")

    def expect_map(self, obj, where: str) -> dict:
        if not isinstance(obj, dict):
            raise self.fail(where, f"expected a mapping, got {type(obj).__name__}")
        return obj

    def expect_str(self, obj, where: str) -> str:
        if not isinstance(obj, str) or not obj:
            raise self.fail(where, f"expected a non-empty string, got {obj!r}")
        return obj

    def expect_int(self, obj, where: str, minimum: int | None = None) -> int:
        if isinstance(obj, bool) or not isinstance(obj, int):
            raise self.fail(where, f"expected an integer, got {obj!r}")
        if minimum is not None and obj < minimum:
            raise self.fail(where, f"must be >= {minimum}, got {obj}")
        return obj

    def check_keys(self, mapping: dict, where: str, required: set,
                   optional: set) -> None:
        keys = set(mapping)
        missing = sorted(required - keys)
        if missing:
            raise self.fail(where, f"missing required field(s) {missing}")
        unknown = sorted(keys - required - optional)
        if unknown:
            allowed = sorted(required | optional)
            raise self.fail(
                where, f"unknown field(s) {unknown} (allowed: {allowed})"
            )


def _as_name_list(value) -> list:
    if isinstance(value, str):
        return [value]
    if isinstance(value, list):
        return list(value)
    return [value]


def validate_spec(spec: DslSpec) -> DslSpec:
    """Validate cross references and role constraints; returns ``spec``.

    Raises:
        SpecError: naming the spec origin and the offending stanza.
    """
    check = _Checker(spec.origin)
    names: set[str] = set()

    def claim(name: str, where: str) -> None:
        if name in names:
            raise check.fail(where, f"duplicate name {name!r}")
        names.add(name)

    for kind, decls in (("fifos", spec.fifos), ("buffers", spec.buffers),
                        ("scalars", spec.scalars), ("axi", spec.axi)):
        for i, decl in enumerate(decls):
            where = f"{kind}[{i}] {decl.name!r}"
            claim(decl.name, where)
            parse_type(decl.type, f"spec {spec.origin!r}: {where}")
            if kind == "fifos":
                check.expect_int(decl.depth, f"{where}: depth", minimum=1)
            if kind in ("buffers", "axi"):
                check.expect_int(decl.size, f"{where}: size", minimum=1)
                _resolve_init(decl.init, decl.size, check, where)

    if not spec.modules:
        raise check.fail("modules", "a spec needs at least one module")

    for name, value in spec.constants.items():
        check.expect_int(value, f"constants[{name!r}]")

    fifo_names = {f.name for f in spec.fifos}
    buffer_names = {b.name for b in spec.buffers}
    scalar_names = {s.name for s in spec.scalars}
    #: fifo -> (module name, stanza label) per side
    writers: dict[str, tuple] = {}
    readers: dict[str, tuple] = {}
    current_module = [""]

    def claim_endpoint(table: dict, fifo: str, where: str, side: str) -> None:
        if fifo not in fifo_names:
            raise check.fail(where, f"unknown fifo {fifo!r} "
                                    f"(declared: {sorted(fifo_names)})")
        if fifo in table:
            raise check.fail(
                where,
                f"fifo {fifo!r} already has a {side} ({table[fifo][1]!r}); "
                "each fifo takes exactly one producer and one consumer"
            )
        table[fifo] = (current_module[0], where)

    for i, module in enumerate(spec.modules):
        where = f"modules[{i}] {module.name!r}"
        claim(module.name, where)
        current_module[0] = module.name
        if (module.role is None) == (module.source is None):
            raise check.fail(
                where, "a module needs exactly one of 'role' or 'source'"
            )
        if module.source is not None:
            _validate_source_module(spec, module, check, where,
                                    writers, readers, claim_endpoint)
            continue
        if module.role not in ROLES:
            raise check.fail(
                where, f"unknown role {module.role!r} "
                       f"(one of {', '.join(ROLES)})"
            )
        required, optional = _ROLE_FIELDS[module.role]
        check.check_keys(module.params, where, required, optional)
        _validate_role_module(spec, module, check, where,
                              writers, readers, claim_endpoint,
                              buffer_names, scalar_names)

    for fifo in sorted(fifo_names):
        if fifo not in writers:
            raise check.fail(f"fifo {fifo!r}", "no module writes it")
        if fifo not in readers:
            raise check.fail(f"fifo {fifo!r}", "no module reads it")
    spec.fifo_writers = {f: w[0] for f, w in writers.items()}
    spec.fifo_readers = {f: r[0] for f, r in readers.items()}
    return spec


def spec_is_cyclic(spec: DslSpec) -> bool:
    """True when the module graph induced by the spec's FIFO edges
    (producer -> consumer, as recorded by :func:`validate_spec`) has a
    cycle — without lowering the design."""
    graph: dict[str, set] = {m.name: set() for m in spec.modules}
    for fifo, writer in spec.fifo_writers.items():
        reader = spec.fifo_readers.get(fifo)
        if reader is not None:
            graph.setdefault(writer, set()).add(reader)
    state: dict[str, int] = {}

    def visit(node: str) -> bool:
        state[node] = 1
        for succ in graph.get(node, ()):
            mark = state.get(succ, 0)
            if mark == 1 or (mark == 0 and visit(succ)):
                return True
        state[node] = 2
        return False

    return any(state.get(n, 0) == 0 and visit(n) for n in graph)


def _validate_role_module(spec, module, check, where, writers, readers,
                          claim_endpoint, buffer_names, scalar_names):
    params = module.params
    role = module.role

    def const(key, default=None, minimum=1):
        value = params.get(key, default)
        if value is None:
            return None
        if isinstance(value, str):
            if value not in spec.constants:
                raise check.fail(
                    where, f"{key}: unknown constant {value!r} "
                           f"(declared: {sorted(spec.constants)})"
                )
            value = spec.constants[value]
        return check.expect_int(value, f"{where}: {key}", minimum=minimum)

    for key in ("count", "ii", "polls"):
        if key in params:
            const(key)

    ins = _as_name_list(params.get("in", []))
    outs = _as_name_list(params.get("out", []))
    if role in ("worker", "splitter", "sink", "controller") and len(ins) != 1:
        raise check.fail(where, f"{role} takes exactly one 'in'")
    if role in ("producer", "worker", "combiner", "controller") \
            and len(outs) != 1:
        raise check.fail(where, f"{role} takes exactly one 'out'")
    if role == "splitter" and len(outs) < 2:
        raise check.fail(where, "splitter needs at least two 'out' fifos")
    if role == "combiner" and len(ins) < 2:
        raise check.fail(where, "combiner needs at least two 'in' fifos")

    for fifo in outs:
        claim_endpoint(writers, fifo, where, "producer")
    for fifo in ins:
        claim_endpoint(readers, fifo, where, "consumer")

    if role == "producer":
        write = params.get("write", "blocking")
        if write not in WRITE_MODES:
            raise check.fail(
                where, f"write: unknown mode {write!r} "
                       f"(one of {', '.join(WRITE_MODES)})"
            )
        if "data" in params and params["data"] not in buffer_names:
            raise check.fail(where, f"data: unknown buffer {params['data']!r}")
        if "done" in params:
            if write == "blocking":
                raise check.fail(
                    where, "a done-driven producer free-runs on "
                           "non-blocking writes; use write: nb_retry or "
                           "nb_drop (blocking writes would stall the "
                           "done poll)"
                )
            claim_endpoint(readers, params["done"], where, "consumer")
        elif write == "nb_retry":
            raise check.fail(
                where, "write: nb_retry requires a 'done' fifo (the retry "
                       "loop only terminates on a done signal)"
            )
        if "done" not in params and const("count") is None:
            raise check.fail(where, "producer needs 'count' or 'done'")
        if "dropped" in params:
            if write != "nb_drop":
                raise check.fail(
                    where, "'dropped' only applies to write: nb_drop"
                )
            if params["dropped"] not in scalar_names:
                raise check.fail(
                    where, f"dropped: unknown scalar {params['dropped']!r}"
                )
    elif role == "sink":
        mode = params.get("mode", "count")
        if mode not in SINK_MODES:
            raise check.fail(
                where, f"mode: unknown sink mode {mode!r} "
                       f"(one of {', '.join(SINK_MODES)})"
            )
        if mode == "count" and const("count") is None:
            raise check.fail(where, "sink mode 'count' needs 'count'")
        if mode == "poll":
            if const("polls") is None:
                raise check.fail(where, "sink mode 'poll' needs 'polls'")
        if "done" in params:
            claim_endpoint(writers, params["done"], where, "producer")
        if "total" in params and params["total"] not in scalar_names:
            raise check.fail(
                where, f"total: unknown scalar {params['total']!r}"
            )
    elif role in ("worker", "splitter", "combiner"):
        mode = params.get("mode", "count")
        if mode not in ("count", "sentinel"):
            raise check.fail(where, f"mode: unknown mode {mode!r}")
        if mode == "count" and const("count") is None:
            raise check.fail(where, f"{role} mode 'count' needs 'count'")
    elif role == "controller":
        if params["data"] not in buffer_names:
            raise check.fail(where, f"data: unknown buffer {params['data']!r}")
        if const("count") is None:
            raise check.fail(where, "controller needs 'count'")
        if "total" in params and params["total"] not in scalar_names:
            raise check.fail(
                where, f"total: unknown scalar {params['total']!r}"
            )


def _validate_source_module(spec, module, check, where, writers, readers,
                            claim_endpoint):
    source = check.expect_str(module.source, f"{where}: source")
    if "def " not in source:
        raise check.fail(where, "source must contain a function definition")
    if not isinstance(module.binds, dict) or not module.binds:
        raise check.fail(where, "source modules need a 'binds' mapping")
    declared = ({f.name for f in spec.fifos}
                | {b.name for b in spec.buffers}
                | {s.name for s in spec.scalars}
                | {a.name for a in spec.axi})
    for port, target in module.binds.items():
        if isinstance(target, bool):
            raise check.fail(where, f"binds[{port!r}]: booleans not allowed")
        if isinstance(target, (int, float)):
            continue
        if isinstance(target, str) and target in spec.constants:
            continue
        if not isinstance(target, str) or target not in declared:
            raise check.fail(
                where,
                f"binds[{port!r}]: {target!r} is neither a declared "
                "design object nor a constant/number"
            )
    # FIFO endpoint accounting: direction comes from the port annotation
    # (hls.StreamIn / hls.StreamOut), falling back to a read-call scan.
    for port, target in module.binds.items():
        if not isinstance(target, str) or target not in {
            f.name for f in spec.fifos
        }:
            continue
        quoted = re.escape(port)
        if re.search(rf"\b{quoted}\s*:\s*(hls\s*\.\s*)?StreamIn\b", source):
            claim_endpoint(readers, target, where, "consumer")
        elif re.search(rf"\b{quoted}\s*:\s*(hls\s*\.\s*)?StreamOut\b",
                       source):
            claim_endpoint(writers, target, where, "producer")
        elif re.search(rf"\b{quoted}\s*\.\s*read(_nb)?\s*\(", source):
            claim_endpoint(readers, target, where, "consumer")
        else:
            claim_endpoint(writers, target, where, "producer")


def _resolve_init(init, size: int, check: _Checker, where: str) -> list | None:
    """Expand a spec ``init`` stanza into a full-length value list."""
    if init is None:
        return None
    if isinstance(init, (int, float)) and not isinstance(init, bool):
        return [init] * size
    if isinstance(init, list):
        if len(init) > size:
            raise check.fail(
                where, f"init has {len(init)} elements, size is {size}"
            )
        return list(init) + [0] * (size - len(init))
    if isinstance(init, dict):
        pattern = init.get("pattern")
        if pattern == "range":
            mul = init.get("mul", 1)
            add = init.get("add", 0)
            return [mul * i + add for i in range(size)]
        if pattern == "const":
            return [init.get("value", 0)] * size
        raise check.fail(
            where, f"init: unknown pattern {pattern!r} "
                   "(one of 'range', 'const')"
        )
    raise check.fail(where, f"init: expected list, number or pattern "
                            f"mapping, got {init!r}")


def resolve_init(decl, check_origin: str = "<spec>") -> list | None:
    """Public wrapper for lowering: expand ``decl.init`` to a value list."""
    check = _Checker(check_origin)
    return _resolve_init(decl.init, decl.size, check, decl.name)
