"""Design wiring: instantiate kernels and connect them with FIFO streams.

A :class:`Design` is the reproduction's equivalent of a Vitis HLS dataflow
region plus its testbench inputs: it owns stream declarations (with depths),
shared buffers (with initial contents), scalar output registers, and AXI
ports, and records which kernel instance is bound to which port.

Validation enforces the HLS dataflow contract the paper relies on: every
stream has exactly one producer endpoint and one consumer endpoint.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import DesignError
from ..ir import types as ty
from . import ports as port_decls
from .kernel import Kernel

DEFAULT_FIFO_DEPTH = 2


@dataclass
class StreamDecl:
    """A FIFO channel declaration."""

    name: str
    element: ty.Type
    depth: int = DEFAULT_FIFO_DEPTH
    writer: "tuple[Instance, str] | None" = None
    reader: "tuple[Instance, str] | None" = None

    def __post_init__(self):
        if self.depth < 1:
            raise DesignError(f"stream {self.name}: depth must be >= 1")


@dataclass
class BufferDecl:
    """A shared on-chip array with optional initial contents."""

    name: str
    element: ty.Type
    shape: tuple
    init: list | None = None

    @property
    def size(self) -> int:
        n = 1
        for d in self.shape:
            n *= d
        return n


@dataclass
class ScalarDecl:
    """A named scalar output register."""

    name: str
    element: ty.Type
    init = 0


@dataclass
class AxiDecl:
    """An AXI-attached memory region (off-chip)."""

    name: str
    element: ty.Type
    size: int
    init: list | None = None
    read_latency: int = 12
    write_latency: int = 6


@dataclass
class Instance:
    """One kernel instantiation inside a design."""

    name: str
    kernel: Kernel
    bindings: dict = field(default_factory=dict)
    const_bindings: dict = field(default_factory=dict)


class Design:
    """A complete simulatable design: kernels + wiring + testbench data."""

    def __init__(self, name: str):
        self.name = name
        self.streams: dict[str, StreamDecl] = {}
        self.buffers: dict[str, BufferDecl] = {}
        self.scalars: dict[str, ScalarDecl] = {}
        self.axis: dict[str, AxiDecl] = {}
        self.instances: list[Instance] = []
        self._names: set[str] = set()
        self._instance_names: set[str] = set()

    # --- declaration helpers ---------------------------------------------

    def _claim(self, name: str) -> str:
        if name in self._names:
            raise DesignError(f"design {self.name}: duplicate name {name!r}")
        self._names.add(name)
        return name

    def stream(self, name: str, element: ty.Type,
               depth: int = DEFAULT_FIFO_DEPTH) -> StreamDecl:
        decl = StreamDecl(self._claim(name), element, depth)
        self.streams[name] = decl
        return decl

    def buffer(self, name: str, element: ty.Type, shape,
               init: list | None = None) -> BufferDecl:
        if isinstance(shape, int):
            shape = (shape,)
        decl = BufferDecl(self._claim(name), element, tuple(shape), init)
        if init is not None and len(init) != decl.size:
            raise DesignError(
                f"buffer {name}: init has {len(init)} elements, "
                f"expected {decl.size}"
            )
        self.buffers[name] = decl
        return decl

    def scalar(self, name: str, element: ty.Type) -> ScalarDecl:
        decl = ScalarDecl(self._claim(name), element)
        self.scalars[name] = decl
        return decl

    def axi(self, name: str, element: ty.Type, size: int,
            init: list | None = None, read_latency: int = 12,
            write_latency: int = 6) -> AxiDecl:
        decl = AxiDecl(self._claim(name), element, size, init,
                       read_latency, write_latency)
        if init is not None and len(init) > size:
            raise DesignError(f"axi {name}: init larger than region")
        self.axis[name] = decl
        return decl

    # --- instantiation ------------------------------------------------------

    def add(self, kernel: Kernel, instance_name: str | None = None,
            **bindings) -> Instance:
        """Instantiate ``kernel`` with port bindings.

        Stream ports bind to :class:`StreamDecl`, buffers to
        :class:`BufferDecl`, scalar outputs to :class:`ScalarDecl`, AXI
        ports to :class:`AxiDecl`, and const parameters to plain Python
        numbers.
        """
        if not isinstance(kernel, Kernel):
            raise DesignError(
                f"design {self.name}: add() expects an @hls.kernel, got "
                f"{kernel!r}"
            )
        name = instance_name or self._unique_instance_name(kernel.name)
        instance = Instance(name, kernel)
        expected = set(kernel.ports)
        provided = set(bindings)
        if expected != provided:
            missing = sorted(expected - provided)
            extra = sorted(provided - expected)
            raise DesignError(
                f"instance {name}: port mismatch"
                + (f", missing {missing}" if missing else "")
                + (f", unexpected {extra}" if extra else "")
            )
        for pname, decl in kernel.ports.items():
            bound = bindings[pname]
            self._bind(instance, pname, decl, bound)
        self.instances.append(instance)
        self._instance_names.add(name)
        return instance

    def _unique_instance_name(self, base: str) -> str:
        name = base
        suffix = 1
        while name in self._instance_names:
            suffix += 1
            name = f"{base}_{suffix}"
        return name

    def _bind(self, instance: Instance, pname: str, decl, bound) -> None:
        if isinstance(decl, (port_decls.Const, port_decls.In)):
            if not isinstance(bound, (int, float)):
                raise DesignError(
                    f"{instance.name}.{pname}: const parameter must be a "
                    f"number, got {bound!r}"
                )
            instance.const_bindings[pname] = bound
            return
        if isinstance(decl, (port_decls.StreamIn, port_decls.StreamOut)):
            if not isinstance(bound, StreamDecl):
                raise DesignError(
                    f"{instance.name}.{pname}: expected a stream, got "
                    f"{bound!r}"
                )
            if bound.element != decl.element:
                raise DesignError(
                    f"{instance.name}.{pname}: stream element type "
                    f"{bound.element} does not match port type {decl.element}"
                )
            endpoint = (instance, pname)
            if isinstance(decl, port_decls.StreamOut):
                if bound.writer is not None:
                    raise DesignError(
                        f"stream {bound.name}: second producer "
                        f"{instance.name}.{pname} (already written by "
                        f"{bound.writer[0].name}.{bound.writer[1]})"
                    )
                bound.writer = endpoint
            else:
                if bound.reader is not None:
                    raise DesignError(
                        f"stream {bound.name}: second consumer "
                        f"{instance.name}.{pname} (already read by "
                        f"{bound.reader[0].name}.{bound.reader[1]})"
                    )
                bound.reader = endpoint
        elif isinstance(decl, port_decls.Buffer):
            if not isinstance(bound, BufferDecl):
                raise DesignError(
                    f"{instance.name}.{pname}: expected a buffer, got "
                    f"{bound!r}"
                )
            if bound.element != decl.element or bound.shape != decl.shape:
                raise DesignError(
                    f"{instance.name}.{pname}: buffer {bound.name} is "
                    f"{bound.element}{bound.shape}, port wants "
                    f"{decl.element}{decl.shape}"
                )
        elif isinstance(decl, port_decls.ScalarOut):
            if not isinstance(bound, ScalarDecl):
                raise DesignError(
                    f"{instance.name}.{pname}: expected a scalar, got "
                    f"{bound!r}"
                )
            if bound.element != decl.element:
                raise DesignError(
                    f"{instance.name}.{pname}: scalar type mismatch"
                )
        elif isinstance(decl, port_decls.AxiMaster):
            if not isinstance(bound, AxiDecl):
                raise DesignError(
                    f"{instance.name}.{pname}: expected an AXI region, got "
                    f"{bound!r}"
                )
            if bound.element != decl.element:
                raise DesignError(
                    f"{instance.name}.{pname}: AXI element type mismatch"
                )
        else:  # pragma: no cover - defensive
            raise DesignError(f"unknown port declaration {decl!r}")
        instance.bindings[pname] = bound

    # --- validation ------------------------------------------------------

    def validate(self) -> None:
        """Check the dataflow contract; raises :class:`DesignError`."""
        if not self.instances:
            raise DesignError(f"design {self.name}: no instances")
        for stream in self.streams.values():
            if stream.writer is None:
                raise DesignError(
                    f"stream {stream.name}: no producer connected"
                )
            if stream.reader is None:
                raise DesignError(
                    f"stream {stream.name}: no consumer connected"
                )

    # --- introspection ------------------------------------------------------

    def stream_depths(self) -> dict[str, int]:
        return {name: s.depth for name, s in self.streams.items()}

    def module_graph(self) -> dict[str, set[str]]:
        """Directed module dependency graph induced by streams
        (producer -> consumer)."""
        graph: dict[str, set[str]] = {i.name: set() for i in self.instances}
        for stream in self.streams.values():
            if stream.writer and stream.reader:
                graph[stream.writer[0].name].add(stream.reader[0].name)
        return graph

    def is_cyclic(self) -> bool:
        """True if the module dependency graph contains a cycle."""
        graph = self.module_graph()
        state: dict[str, int] = {}

        def visit(node: str) -> bool:
            state[node] = 1
            for succ in graph[node]:
                mark = state.get(succ, 0)
                if mark == 1:
                    return True
                if mark == 0 and visit(succ):
                    return True
            state[node] = 2
            return False

        return any(state.get(n, 0) == 0 and visit(n) for n in graph)

    def __repr__(self):  # pragma: no cover - cosmetic
        return (
            f"<Design {self.name}: {len(self.instances)} modules, "
            f"{len(self.streams)} streams>"
        )
