"""The ``@hls.kernel`` decorator and in-body helper functions.

A :class:`Kernel` captures the Python source of a hardware task.  It is
compiled (lazily, memoized per compile-time-constant binding) by the
front-end into IR.  The helpers :func:`pipeline`, :func:`array` and
:func:`unroll_hint` exist purely so that kernel bodies parse as ordinary
Python; they are recognized syntactically by the front-end and never
actually executed.
"""

from __future__ import annotations

import ast
import inspect
import textwrap
import threading
from functools import cached_property

from ..errors import CompileError
from . import ports as port_decls

#: compiled functions kept per kernel (least recently used go first): a
#: long-lived process that keeps meeting new constant bindings
#: (``repro serve`` under ``n=401, 402, ...``) must not grow without limit
_COMPILED_LIMIT = 64


class Kernel:
    """A hardware task definition (one dataflow module per instantiation)."""

    def __init__(self, fn, source: str | None = None):
        self.fn = fn
        self.name = fn.__name__
        if source is not None:
            self.source = textwrap.dedent(source)
        self.ports = self._parse_ports(fn)
        #: LRU memo: const-binding tuple -> compiled ir.Function (which
        #: owns its schedules and generated programs)
        self._compiled: dict = {}
        self._compile_lock = threading.Lock()

    @cached_property
    def source(self) -> str:
        """The kernel's dedented source text, read (a ``tokenize`` pass
        over the defining file) when the front-end first asks: loading a
        design module costs only the kernels a run compiles."""
        try:
            return textwrap.dedent(inspect.getsource(self.fn))
        except (OSError, TypeError) as exc:
            raise CompileError(
                f"cannot retrieve source of kernel {self.name}; pass "
                "source= explicitly for dynamically created kernels"
            ) from exc

    @staticmethod
    def _evaluate_annotation(fn, decl):
        """Resolve stringified annotations (PEP 563 modules)."""
        if isinstance(decl, str):
            namespace = dict(getattr(fn, "__globals__", {}))
            closure = getattr(fn, "__closure__", None)
            if closure:
                for name, cell in zip(fn.__code__.co_freevars, closure):
                    namespace[name] = cell.cell_contents
            try:
                decl = eval(decl, namespace)  # noqa: S307 - trusted source
            except Exception as exc:
                raise CompileError(
                    f"kernel {fn.__name__}: cannot evaluate annotation "
                    f"{decl!r}: {exc}"
                ) from exc
        return decl

    @classmethod
    def _parse_ports(cls, fn) -> dict:
        annotations = dict(getattr(fn, "__annotations__", {}))
        annotations.pop("return", None)
        signature = inspect.signature(fn)
        ports = {}
        for pname in signature.parameters:
            decl = cls._evaluate_annotation(fn, annotations.get(pname))
            if decl is None:
                raise CompileError(
                    f"kernel {fn.__name__}: parameter {pname!r} has no port "
                    "annotation"
                )
            if isinstance(decl, type) and issubclass(decl, port_decls.PortDecl):
                raise CompileError(
                    f"kernel {fn.__name__}: parameter {pname!r} annotation "
                    "must be an instance, e.g. hls.StreamIn(hls.i32)"
                )
            if not isinstance(decl, port_decls.PortDecl):
                raise CompileError(
                    f"kernel {fn.__name__}: parameter {pname!r} annotation "
                    f"{decl!r} is not a port declaration"
                )
            ports[pname] = decl
        return ports

    @property
    def const_params(self) -> list[str]:
        return [
            n for n, d in self.ports.items()
            if isinstance(d, (port_decls.Const, port_decls.In))
        ]

    @property
    def return_type(self):
        decl = getattr(self.fn, "__annotations__", {}).get("return")
        return self._evaluate_annotation(self.fn, decl)

    def compile(self, const_bindings: dict | None = None):
        """Compile this kernel to IR, specialized for the given constants."""
        const_bindings = dict(const_bindings or {})
        key = tuple(sorted(const_bindings.items()))
        # One function per binding even when threads race: instances
        # share it, and a key that is present was validated on the way in.
        with self._compile_lock:
            function = self._compiled.pop(key, None)
            if function is None:
                function = self._compile_checked(const_bindings)
                if len(self._compiled) >= _COMPILED_LIMIT:
                    del self._compiled[next(iter(self._compiled))]
            self._compiled[key] = function
        return function

    def _compile_checked(self, const_bindings: dict):
        const_params = self.const_params
        missing = [n for n in const_params if n not in const_bindings]
        if missing:
            raise CompileError(
                f"kernel {self.name}: missing const parameter(s) {missing}"
            )
        extra = [n for n in const_bindings if n not in const_params]
        if extra:
            raise CompileError(
                f"kernel {self.name}: {extra} are not const parameters"
            )
        from ..frontend.compiler import compile_kernel

        return compile_kernel(self, const_bindings)

    def __repr__(self):  # pragma: no cover - cosmetic
        return f"<Kernel {self.name}({', '.join(self.ports)})>"


def kernel(fn) -> Kernel:
    """Mark a Python function as an HLS hardware task."""
    return Kernel(fn)


def kernel_from_source(source: str, name: str | None = None,
                       namespace: dict | None = None) -> Kernel:
    """Create a kernel from a source string (for generated designs).

    ``source`` must contain exactly one function definition; ``namespace``
    supplies the globals it is evaluated against (the :mod:`repro.hls`
    module is always available as ``hls``).
    """
    import repro.hls as hls_module

    env = {"hls": hls_module}
    env.update(namespace or {})
    code = textwrap.dedent(source)
    tree = ast.parse(code, "<kernel>")
    if name is None:
        defs = [n for n in tree.body if isinstance(n, ast.FunctionDef)]
        if len(defs) != 1:
            raise CompileError(
                "kernel_from_source expects exactly one function"
            )
        name = defs[0].name
    exec(compile(tree, "<kernel>", "exec"), env)  # noqa: S102 - test helper
    return Kernel(env[name], source=code)


# --- in-body helper markers --------------------------------------------------

def pipeline(ii: int = 1) -> None:
    """Pipeline pragma: place as the first statement of a loop body.

    Mirrors ``#pragma HLS pipeline II=<ii>``.  Recognized syntactically by
    the front-end; calling it outside a compiled kernel is a no-op.
    """


def array(element, shape):
    """Declare a kernel-local array: ``buf = hls.array(hls.i32, 16)``.

    Recognized syntactically by the front-end.
    """
    raise RuntimeError("hls.array() is only meaningful inside a kernel body")


def trip_count(n: int) -> None:
    """Loop trip-count hint for the static C-synthesis report.

    Mirrors ``#pragma HLS loop_tripcount``; place as the first statement of
    a loop body (after a pipeline pragma if both are used).
    """


def unroll() -> None:
    """Full-unroll pragma: place as the first statement of a loop body.

    Mirrors ``#pragma HLS unroll``.  The loop bounds must be compile-time
    constants; the front-end replicates the body once per iteration.
    """


def cast(type_, value):
    """Explicit numeric conversion: ``y = hls.cast(hls.fixed(16, 8), x)``.

    Recognized syntactically by the front-end.
    """
    raise RuntimeError("hls.cast() is only meaningful inside a kernel body")
