"""Type system for the OmniSim reproduction IR.

The type lattice mirrors what Vitis HLS exposes to C++ designs:

* arbitrary-width two's-complement integers (``ap_int`` / ``ap_uint``),
* fixed-point numbers (``ap_fixed`` / ``ap_ufixed``) stored as scaled
  integers,
* IEEE floats (``float`` / ``double``),
* arrays (possibly multi-dimensional), and
* hardware port types: FIFO streams and AXI masters.

Every scalar type knows how to *wrap* an arbitrary Python number into its
representable range, which is what the interpreter uses after every
arithmetic operation (Vitis ``AP_WRAP`` overflow semantics).
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class Type:
    """Base class for all IR types."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return str(self)

    @property
    def is_scalar(self) -> bool:
        return isinstance(self, (IntType, FixedType, FloatType))


@dataclass(frozen=True)
class VoidType(Type):
    def __str__(self) -> str:
        return "void"


@dataclass(frozen=True)
class IntType(Type):
    """Two's-complement integer of arbitrary ``width`` bits."""

    width: int
    signed: bool = True

    def __post_init__(self):
        if self.width < 1:
            raise ValueError(f"integer width must be >= 1, got {self.width}")

    def __str__(self) -> str:
        return f"{'i' if self.signed else 'u'}{self.width}"

    @property
    def min_value(self) -> int:
        return -(1 << (self.width - 1)) if self.signed else 0

    @property
    def max_value(self) -> int:
        if self.signed:
            return (1 << (self.width - 1)) - 1
        return (1 << self.width) - 1

    def wrap(self, value) -> int:
        """Wrap ``value`` into this type's range (two's complement)."""
        value = int(value)
        mask = (1 << self.width) - 1
        value &= mask
        if self.signed and value >> (self.width - 1):
            value -= 1 << self.width
        return value


@dataclass(frozen=True)
class FixedType(Type):
    """Fixed-point number: ``width`` total bits, ``int_bits`` integer bits.

    Stored in the interpreter as a raw scaled integer; ``frac_bits`` gives
    the scale factor 2**frac_bits.  Matches ``ap_fixed<W, I>`` with wrap
    overflow and truncation rounding.
    """

    width: int
    int_bits: int
    signed: bool = True

    def __str__(self) -> str:
        prefix = "fixed" if self.signed else "ufixed"
        return f"{prefix}<{self.width},{self.int_bits}>"

    @property
    def frac_bits(self) -> int:
        return self.width - self.int_bits

    @property
    def scale(self) -> int:
        return 1 << self.frac_bits if self.frac_bits >= 0 else 1

    def wrap_raw(self, raw) -> int:
        """Wrap a raw (already scaled) integer into range."""
        return IntType(self.width, self.signed).wrap(int(raw))

    def from_float(self, value: float) -> int:
        """Quantize a Python float to this type's raw representation."""
        return self.wrap_raw(int(math.floor(value * self.scale)))

    def to_float(self, raw: int) -> float:
        return raw / self.scale


@dataclass(frozen=True)
class FloatType(Type):
    """IEEE floating point; only 32- and 64-bit widths are supported."""

    width: int = 32

    def __post_init__(self):
        if self.width not in (32, 64):
            raise ValueError("float width must be 32 or 64")

    def __str__(self) -> str:
        return f"f{self.width}"

    def wrap(self, value) -> float:
        value = float(value)
        if self.width == 32:
            # Round-trip through single precision.
            import struct

            return struct.unpack("f", struct.pack("f", value))[0]
        return value


@dataclass(frozen=True)
class ArrayType(Type):
    """N-dimensional array stored row-major; ``shape`` is a tuple of ints."""

    element: Type
    shape: tuple

    def __post_init__(self):
        if not self.shape:
            raise ValueError("array shape must be non-empty")
        if not all(isinstance(d, int) and d > 0 for d in self.shape):
            raise ValueError(f"bad array shape {self.shape}")

    def __str__(self) -> str:
        dims = "x".join(str(d) for d in self.shape)
        return f"[{dims} x {self.element}]"

    @property
    def size(self) -> int:
        n = 1
        for d in self.shape:
            n *= d
        return n

    def flat_index_strides(self) -> tuple:
        """Row-major strides for multi-dimensional indexing."""
        strides = []
        acc = 1
        for d in reversed(self.shape):
            strides.append(acc)
            acc *= d
        return tuple(reversed(strides))


@dataclass(frozen=True)
class StreamType(Type):
    """A FIFO stream carrying elements of ``element`` type."""

    element: Type

    def __str__(self) -> str:
        return f"stream<{self.element}>"


@dataclass(frozen=True)
class AxiType(Type):
    """An AXI master port addressing elements of ``element`` type."""

    element: Type

    def __str__(self) -> str:
        return f"axi<{self.element}>"


@dataclass(frozen=True)
class TupleType(Type):
    """Aggregate result type (used by non-blocking reads: (ok, data))."""

    elements: tuple

    def __str__(self) -> str:
        return "(" + ", ".join(str(e) for e in self.elements) + ")"


# Canonical singletons -------------------------------------------------------

void = VoidType()
i1 = IntType(1, signed=False)
i8 = IntType(8)
i16 = IntType(16)
i32 = IntType(32)
i64 = IntType(64)
u8 = IntType(8, signed=False)
u16 = IntType(16, signed=False)
u32 = IntType(32, signed=False)
u64 = IntType(64, signed=False)
f32 = FloatType(32)
f64 = FloatType(64)


def int_type(width: int, signed: bool = True) -> IntType:
    return IntType(width, signed)


def fixed(width: int, int_bits: int, signed: bool = True) -> FixedType:
    return FixedType(width, int_bits, signed)


def common_type(a: Type, b: Type) -> Type:
    """C-like usual arithmetic conversion between two scalar types."""
    if a == b:
        return a
    # Floats dominate.
    if isinstance(a, FloatType) or isinstance(b, FloatType):
        wa = a.width if isinstance(a, FloatType) else 0
        wb = b.width if isinstance(b, FloatType) else 0
        return FloatType(max(32, wa, wb))
    # Fixed dominates ints.
    if isinstance(a, FixedType) and isinstance(b, FixedType):
        frac = max(a.frac_bits, b.frac_bits)
        ib = max(a.int_bits, b.int_bits)
        return FixedType(ib + frac, ib, a.signed or b.signed)
    if isinstance(a, FixedType):
        return a
    if isinstance(b, FixedType):
        return b
    # Both ints: widen.
    assert isinstance(a, IntType) and isinstance(b, IntType)
    signed = a.signed or b.signed
    return IntType(max(a.width, b.width), signed)


def default_value(t: Type):
    """Zero value of a scalar type, in interpreter representation."""
    if isinstance(t, IntType):
        return 0
    if isinstance(t, FixedType):
        return 0  # raw representation
    if isinstance(t, FloatType):
        return 0.0
    raise TypeError(f"no default value for {t}")
