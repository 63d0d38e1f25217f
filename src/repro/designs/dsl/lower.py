"""Lowering: validated :class:`DslSpec` -> :class:`repro.hls.Design`.

Role-based module stanzas are lowered by *synthesizing Python kernel
source* for the role template (producer / worker / splitter / combiner /
sink / controller, see DESIGN.md section 12) and compiling it through the
ordinary :func:`repro.hls.kernel_from_source` path — generated designs
therefore exercise exactly the same front-end, scheduler and simulators
as hand-written ones.  Source-based stanzas pass their kernel text
through verbatim (decorator lines are stripped so exported registry
designs round-trip).

The public entry points are :func:`build_design` (one ``hls.Design``)
and :func:`to_design_spec` (a registry-compatible
:class:`~repro.designs.registry.DesignSpec` whose builder accepts
constant overrides, e.g. ``spec.make(n=64)``).
"""

from __future__ import annotations

import re

from ... import hls
from ...errors import SpecError
from ..registry import DesignSpec
from .schema import DslSpec, parse_type, resolve_init, type_to_hls_expr

#: fixed II for role loops when the stanza does not set one
DEFAULT_II = 1


def _strip_decorators(source: str) -> str:
    lines = source.splitlines()
    start = 0
    while start < len(lines) and lines[start].lstrip().startswith("@"):
        start += 1
    return "\n".join(lines[start:])


class _Lowerer:
    def __init__(self, spec: DslSpec, overrides: dict):
        self.spec = spec
        self.constants = dict(spec.constants)
        unknown = sorted(set(overrides) - set(self.constants))
        if unknown:
            raise SpecError(
                f"spec {spec.origin!r}: override(s) {unknown} do not match "
                f"declared constants {sorted(self.constants)}"
            )
        self.constants.update(overrides)
        self.design = hls.Design(spec.name)
        self.decls: dict[str, object] = {}
        #: kernel source text -> Kernel, for this one build: modules
        #: whose text is equal share the kernel and everything compiled
        #: from it (IR, schedule, generated program)
        self.kernels: dict[str, hls.Kernel] = {}

    # -- declarations -----------------------------------------------------

    def declare(self) -> None:
        spec = self.spec
        for f in spec.fifos:
            self.decls[f.name] = self.design.stream(
                f.name, parse_type(f.type), depth=f.depth
            )
        for b in spec.buffers:
            self.decls[b.name] = self.design.buffer(
                b.name, parse_type(b.type), b.size,
                init=resolve_init(b, spec.origin),
            )
        for s in spec.scalars:
            self.decls[s.name] = self.design.scalar(s.name, parse_type(s.type))
        for a in spec.axi:
            self.decls[a.name] = self.design.axi(
                a.name, parse_type(a.type), a.size,
                init=resolve_init(a, spec.origin),
                read_latency=a.read_latency, write_latency=a.write_latency,
            )

    def const(self, value, default=None):
        if value is None:
            return default
        if isinstance(value, str):
            return self.constants[value]
        return value

    # -- modules ----------------------------------------------------------

    def add_modules(self) -> None:
        for module in self.spec.modules:
            if module.source is not None:
                self._add_source_module(module)
            else:
                source, binds = _ROLE_TEMPLATES[module.role](self, module)
                self._instantiate(module.name, source, binds)

    def _add_source_module(self, module) -> None:
        binds = {}
        for port, target in module.binds.items():
            if isinstance(target, str) and target in self.decls:
                binds[port] = self.decls[target]
            elif isinstance(target, str) and target in self.constants:
                binds[port] = self.constants[target]
            else:
                binds[port] = target
        self._instantiate(module.name, _strip_decorators(module.source),
                          binds)

    def _instantiate(self, name: str, source: str, binds: dict) -> None:
        kernel = self.kernels.get(source)
        if kernel is None:
            try:
                kernel = hls.kernel_from_source(source)
            except SyntaxError as exc:
                raise SpecError(
                    f"spec {self.spec.origin!r}: module {name!r}: kernel "
                    f"source does not parse: {exc}"
                ) from None
            self.kernels[source] = kernel
        self.design.add(kernel, instance_name=name, **binds)

    # -- role templates ---------------------------------------------------
    #
    # Each returns (kernel_source, binds).  The text must not mention the
    # module: the kernel function is named after the role, so modules of
    # one shape render equal text and compile once (``_instantiate``).
    # Diagnostics name the module through ``Instance.name``.  Declared
    # types and sizes are read off ``self.decls`` (indexed by name), never
    # by scanning the spec's lists.

    def _fifo_type(self, fifo_name: str) -> str:
        return _hls_type_expr(self.decls[fifo_name].element)

    def _total(self, p: dict, binds: dict) -> tuple:
        """(port text, closing lines) of an optional ``total:`` scalar."""
        if "total" not in p:
            return "", []
        scalar = binds["total"] = self.decls[p["total"]]
        return (f", total: hls.ScalarOut({_hls_type_expr(scalar.element)})",
                ["    total.set(acc)"])

    def producer(self, module):
        p = module.params
        out = p["out"]
        fty = self._fifo_type(out)
        write = p.get("write", "blocking")
        ii = self.const(p.get("ii"), DEFAULT_II)
        data = p.get("data")
        binds = {"out": self.decls[out]}
        if data is not None:
            buf = self.decls[data]
            # Done-driven producers free-run with an unbounded index, so
            # they must wrap; count-bounded loops that fit the buffer
            # index directly (modulo costs schedule latency).
            bounded = ("done" not in p
                       and self.const(p.get("count"), 0) <= buf.size)
            src_expr = "data[i]" if bounded else f"data[i % {buf.size}]"
            data_port = (f"data: hls.BufferIn({_hls_type_expr(buf.element)}, "
                         f"{buf.size}), ")
            binds["data"] = self.decls[data]
        else:
            src_expr = "i + 1"
            data_port = ""

        if "done" in p:
            binds["done"] = self.decls[p["done"]]
            body = [
                f"def producer_kernel({data_port}"
                f"out: hls.StreamOut({fty}), done: hls.StreamIn(hls.i1)):",
                "    i = 0",
                "    while True:",
                "        ok, _ = done.read_nb()",
                "        if ok:",
                "            break",
            ]
            if write == "nb_retry":
                body += [
                    f"        if out.write_nb({src_expr}):",
                    "            i += 1",
                ]
            else:  # nb_drop free-runner (fig4 ex4*_d shape)
                if "dropped" in p:
                    binds["dropped"] = self.decls[p["dropped"]]
                    body[0] = body[0][:-2] + ", dropped: hls.ScalarOut(hls.i32)):"
                    body.insert(1, "    drops = 0")
                    body += [
                        f"        if out.write_nb({src_expr}):",
                        "            pass",
                        "        else:",
                        "            drops += 1",
                        "        i += 1",
                        "    dropped.set(drops)",
                    ]
                else:
                    body += [
                        f"        out.write_nb({src_expr})",
                        "        i += 1",
                    ]
            return "\n".join(body) + "\n", binds

        count = self.const(p["count"])
        binds["n"] = count
        head = (f"def producer_kernel({data_port}n: hls.Const(), "
                f"out: hls.StreamOut({fty})")
        if write == "blocking":
            lines = [
                head + "):",
                "    for i in range(n):",
                f"        hls.pipeline(ii={ii})",
                f"        out.write({src_expr})",
            ]
        else:  # nb_drop with a sentinel handshake
            if "dropped" in p:
                binds["dropped"] = self.decls[p["dropped"]]
                lines = [head + ", dropped: hls.ScalarOut(hls.i32)):",
                         "    drops = 0"]
            else:
                lines = [head + "):"]
            lines += [
                "    for i in range(n):",
                f"        hls.pipeline(ii={ii})",
                f"        if out.write_nb({src_expr}):",
                "            pass",
            ]
            if "dropped" in p:
                lines += ["        else:",
                          "            drops += 1"]
            if p.get("sentinel", True):
                lines.append("    out.write(0 - 1)")
            if "dropped" in p:
                lines.append("    dropped.set(drops)")
        return "\n".join(lines) + "\n", binds

    def worker(self, module):
        p = module.params
        src, dst = p["in"], p["out"]
        in_ty = self._fifo_type(src)
        out_ty = self._fifo_type(dst)
        ii = self.const(p.get("ii"), DEFAULT_II)
        expr = _op_expr(p.get("op"), "value")
        binds = {"inp": self.decls[src], "out": self.decls[dst]}
        if p.get("mode", "count") == "sentinel":
            lines = [
                f"def worker_kernel(inp: hls.StreamIn({in_ty}), "
                f"out: hls.StreamOut({out_ty})):",
                "    while True:",
                f"        hls.pipeline(ii={ii})",
                "        value = inp.read()",
                "        if value < 0:",
                "            break",
                f"        out.write({expr})",
                "    out.write(0 - 1)",
            ]
        else:
            binds["n"] = self.const(p["count"])
            lines = [
                f"def worker_kernel(inp: hls.StreamIn({in_ty}), "
                f"n: hls.Const(), out: hls.StreamOut({out_ty})):",
                "    for i in range(n):",
                f"        hls.pipeline(ii={ii})",
                "        value = inp.read()",
                f"        out.write({expr})",
            ]
        return "\n".join(lines) + "\n", binds

    def splitter(self, module):
        p = module.params
        src = p["in"]
        outs = p["out"] if isinstance(p["out"], list) else [p["out"]]
        in_ty = self._fifo_type(src)
        ii = self.const(p.get("ii"), DEFAULT_II)
        binds = {"inp": self.decls[src], "n": self.const(p["count"])}
        ports = [f"inp: hls.StreamIn({in_ty})", "n: hls.Const()"]
        writes = []
        for k, out in enumerate(outs):
            ports.append(f"out{k}: hls.StreamOut({self._fifo_type(out)})")
            writes.append(f"        out{k}.write(value)")
            binds[f"out{k}"] = self.decls[out]
        lines = [
            f"def splitter_kernel({', '.join(ports)}):",
            "    for i in range(n):",
            f"        hls.pipeline(ii={ii})",
            "        value = inp.read()",
            *writes,
        ]
        return "\n".join(lines) + "\n", binds

    def combiner(self, module):
        p = module.params
        ins = p["in"] if isinstance(p["in"], list) else [p["in"]]
        dst = p["out"]
        ii = self.const(p.get("ii"), DEFAULT_II)
        binds = {"out": self.decls[dst], "n": self.const(p["count"])}
        ports = []
        reads = []
        terms = []
        for k, src in enumerate(ins):
            ports.append(f"in{k}: hls.StreamIn({self._fifo_type(src)})")
            reads.append(f"        v{k} = in{k}.read()")
            terms.append(f"v{k}")
            binds[f"in{k}"] = self.decls[src]
        ports += ["n: hls.Const()",
                  f"out: hls.StreamOut({self._fifo_type(dst)})"]
        lines = [
            f"def combiner_kernel({', '.join(ports)}):",
            "    for i in range(n):",
            f"        hls.pipeline(ii={ii})",
            *reads,
            f"        out.write({' + '.join(terms)})",
        ]
        return "\n".join(lines) + "\n", binds

    def sink(self, module):
        p = module.params
        src = p["in"]
        in_ty = self._fifo_type(src)
        ii = self.const(p.get("ii"), DEFAULT_II)
        mode = p.get("mode", "count")
        binds = {"inp": self.decls[src]}
        total_port, total_lines = self._total(p, binds)
        done_port = ""
        done_lines = []
        if "done" in p:
            done_port = ", done: hls.StreamOut(hls.i1)"
            done_lines = ["    done.write(1)"]
            binds["done"] = self.decls[p["done"]]

        if mode == "count":
            binds["n"] = self.const(p["count"])
            lines = [
                f"def sink_kernel(inp: hls.StreamIn({in_ty}), "
                f"n: hls.Const(){total_port}{done_port}):",
                "    acc = 0",
                "    for i in range(n):",
                f"        hls.pipeline(ii={ii})",
                "        acc += inp.read()",
            ]
        elif mode == "sentinel":
            lines = [
                f"def sink_kernel(inp: hls.StreamIn({in_ty})"
                f"{total_port}{done_port}):",
                "    acc = 0",
                "    while True:",
                f"        hls.pipeline(ii={ii})",
                "        value = inp.read()",
                "        if value < 0:",
                "            break",
                "        acc += value",
            ]
        else:  # poll: fixed non-blocking poll budget (fig4 collector shape)
            binds["polls"] = self.const(p["polls"])
            lines = [
                f"def sink_kernel(inp: hls.StreamIn({in_ty}), "
                f"polls: hls.Const(){total_port}{done_port}):",
                "    acc = 0",
                "    count = 0",
                "    while count < polls:",
                f"        hls.pipeline(ii={ii})",
                "        ok, value = inp.read_nb()",
                "        if ok:",
                "            acc += value",
                "        count += 1",
            ]
        lines += total_lines + done_lines
        return "\n".join(lines) + "\n", binds

    def controller(self, module):
        p = module.params
        dst, src = p["out"], p["in"]
        buf = self.decls[p["data"]]
        binds = {
            "out": self.decls[dst],
            "inp": self.decls[src],
            "data": self.decls[p["data"]],
            "n": self.const(p["count"]),
        }
        total_port, total_lines = self._total(p, binds)
        index = ("data[i]" if binds["n"] <= buf.size
                 else f"data[i % {buf.size}]")
        lines = [
            f"def controller_kernel(out: hls.StreamOut("
            f"{self._fifo_type(dst)}), inp: hls.StreamIn("
            f"{self._fifo_type(src)}), data: hls.BufferIn("
            f"{_hls_type_expr(buf.element)}, {buf.size}), "
            f"n: hls.Const(){total_port}):",
            "    acc = 0",
            "    for i in range(n):",
            f"        out.write({index})",
            "        acc += inp.read()",
        ] + total_lines
        return "\n".join(lines) + "\n", binds


_ROLE_TEMPLATES = {
    "producer": _Lowerer.producer,
    "worker": _Lowerer.worker,
    "splitter": _Lowerer.splitter,
    "combiner": _Lowerer.combiner,
    "sink": _Lowerer.sink,
    "controller": _Lowerer.controller,
}

_hls_type_expr = type_to_hls_expr


def _op_expr(op, var: str) -> str:
    """Render a worker op stanza to an expression over ``var``.

    ``op`` is None (passthrough), a string shorthand (``passthrough`` /
    ``double`` / ``negate``), or ``{kind: affine, mul: M, add: A}``.
    """
    if op is None or op == "passthrough":
        return var
    if op == "double":
        return f"{var} * 2"
    if op == "negate":
        return f"0 - {var}"
    if isinstance(op, dict) and op.get("kind") == "affine":
        mul = op.get("mul", 1)
        add = op.get("add", 0)
        expr = var if mul == 1 else f"{var} * {mul}"
        if add:
            expr = f"{expr} + {add}" if add > 0 else f"{expr} - {-add}"
        return expr
    raise SpecError(f"unknown worker op {op!r} (one of 'passthrough', "
                    "'double', 'negate', {kind: affine, mul, add})")


def build_design(spec: DslSpec, **const_overrides) -> hls.Design:
    """Lower a validated spec to a simulatable :class:`hls.Design`.

    Args:
        spec: output of :func:`repro.designs.dsl.parse_spec`.
        const_overrides: values overriding the spec's ``constants:``
            (unknown names raise :class:`~repro.errors.SpecError`).
    """
    lowerer = _Lowerer(spec, const_overrides)
    lowerer.declare()
    lowerer.add_modules()
    lowerer.design.validate()
    return lowerer.design


def to_design_spec(spec: DslSpec) -> DesignSpec:
    """Wrap a parsed spec as a registry-compatible :class:`DesignSpec`.

    The returned entry's ``make(**overrides)`` lowers the spec with the
    overrides applied to its declared constants, so spec files drop into
    every ``repro`` CLI path (``run``, ``classify``, ``report``, ``dse``)
    exactly like built-in registry designs.
    """
    from .schema import spec_is_cyclic

    return DesignSpec(
        name=spec.name,
        build=lambda **overrides: build_design(spec, **overrides),
        design_type=spec.design_type,
        description=spec.description or f"DSL spec ({spec.origin})",
        blocking=spec.blocking,
        cyclic=spec_is_cyclic(spec),
        source=f"dsl:{spec.origin}",
    )
