"""Scalar arithmetic semantics shared by the interpreter and constant folding.

All integers use two's-complement wrap-around at their declared width
(Vitis ``AP_WRAP``); fixed-point values are raw scaled integers with
truncation on multiply/divide; division semantics follow C (truncation
toward zero) rather than Python (floor).
"""

from __future__ import annotations

from ..errors import SimulationError
from ..ir import types as ty


def _cdiv(a: int, b: int) -> int:
    """C-style integer division (truncate toward zero)."""
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def _crem(a: int, b: int) -> int:
    """C-style remainder: sign follows the dividend."""
    return a - _cdiv(a, b) * b


def eval_binop(op: str, a, b, type_: ty.Type):
    """Evaluate a binary op on two values already in ``type_`` representation."""
    if isinstance(type_, ty.FloatType):
        return type_.wrap(_eval_float(op, a, b))
    if isinstance(type_, ty.FixedType):
        return type_.wrap_raw(_eval_fixed(op, a, b, type_))
    if isinstance(type_, ty.IntType):
        return type_.wrap(_eval_int(op, a, b, type_))
    raise SimulationError(f"binop on non-scalar type {type_}")


def _eval_int(op: str, a: int, b: int, type_: ty.IntType) -> int:
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        if b == 0:
            raise SimulationError("integer division by zero")
        return _cdiv(a, b)
    if op == "rem":
        if b == 0:
            raise SimulationError("integer remainder by zero")
        return _crem(a, b)
    if op == "and":
        return a & b
    if op == "or":
        return a | b
    if op == "xor":
        return a ^ b
    if op == "shl":
        return a << (b % type_.width)
    if op == "lshr":
        mask = (1 << type_.width) - 1
        return (a & mask) >> (b % type_.width)
    if op == "ashr":
        return a >> (b % type_.width)
    raise SimulationError(f"unknown int op {op}")


def _eval_fixed(op: str, a: int, b: int, type_: ty.FixedType) -> int:
    frac = type_.frac_bits
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return (a * b) >> frac
    if op == "div":
        if b == 0:
            raise SimulationError("fixed-point division by zero")
        return _cdiv(a << frac, b)
    if op in ("and", "or", "xor", "shl", "lshr", "ashr", "rem"):
        return _eval_int(op, a, b, ty.IntType(type_.width, type_.signed))
    raise SimulationError(f"unknown fixed op {op}")


def _eval_float(op: str, a: float, b: float) -> float:
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        if b == 0.0:
            raise SimulationError("floating-point division by zero")
        return a / b
    raise SimulationError(f"float op {op} not supported")


def eval_cmp(op: str, a, b, operand_type: ty.Type) -> int:
    """Compare two values of ``operand_type``; returns 0 or 1."""
    # Raw fixed-point comparison is order-preserving, so no conversion needed.
    if op == "eq":
        return int(a == b)
    if op == "ne":
        return int(a != b)
    if op == "lt":
        return int(a < b)
    if op == "le":
        return int(a <= b)
    if op == "gt":
        return int(a > b)
    if op == "ge":
        return int(a >= b)
    raise SimulationError(f"unknown compare op {op}")


def eval_unop(op: str, a, type_: ty.Type):
    if op == "neg":
        if isinstance(type_, ty.FloatType):
            return type_.wrap(-a)
        if isinstance(type_, ty.FixedType):
            return type_.wrap_raw(-a)
        return type_.wrap(-a)
    if op == "not":
        if not isinstance(type_, ty.IntType):
            raise SimulationError("bitwise not on non-integer")
        return type_.wrap(~a)
    if op == "lnot":
        return int(not a)
    raise SimulationError(f"unknown unary op {op}")


def convert_scalar(value, from_type: ty.Type, to_type: ty.Type):
    """Convert ``value`` between scalar type representations."""
    if from_type == to_type:
        return value
    # Normalize to a Python float/int "real" value first.
    if isinstance(from_type, ty.FixedType):
        real = from_type.to_float(value)
    else:
        real = value
    if isinstance(to_type, ty.IntType):
        return to_type.wrap(int(real))
    if isinstance(to_type, ty.FixedType):
        if isinstance(from_type, ty.IntType):
            # Integer to fixed keeps the integral value exactly.
            return to_type.wrap_raw(int(real) << max(to_type.frac_bits, 0))
        return to_type.from_float(float(real))
    if isinstance(to_type, ty.FloatType):
        return to_type.wrap(float(real))
    raise SimulationError(f"cannot convert {from_type} to {to_type}")


def as_python_number(value, type_: ty.Type):
    """Convert an interpreter value into a plain Python number for output."""
    if isinstance(type_, ty.FixedType):
        return type_.to_float(value)
    return value
