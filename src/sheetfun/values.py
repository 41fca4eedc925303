"""Runtime values and the NaN-payload encoding of errors.

Every value the engine manipulates is one of Number, Text, ErrorValue,
ArrayValue or FunctionValue.  Values are immutable and compared
structurally.

The scalar operators are defined here once, in ``BINARY_OPS``,
``COMPARE_OPS``, ``UNARY_OPS``, ``truth`` and ``choose_index``; the
interpreter, compiled code and the specializer's folds all take them
from here, so their results agree bit for bit by construction.
``value_key`` is the one definition of two values being the same, bit
for bit; the specializer's cache and recalculation's cutoff use it.

Numbers travel through compiled code as raw Python floats.  Errors are
encoded as quiet NaNs carrying the error's registry index in the low 32
bits, so hardware arithmetic propagates them with no explicit checks:
``enc(#NA) + 1.0`` is still the #NA NaN.  The tag bits distinguish our
NaNs from ones produced by ordinary arithmetic; an untagged NaN decodes
to the canonical #NUM! error.
"""

from __future__ import annotations

import math
import operator
import struct

__all__ = [
    "Value", "Number", "Text", "ErrorValue", "ArrayValue", "FunctionValue",
    "HOLE", "make_number", "set_box_hook",
    "to_double_or_nan", "from_double_or_nan", "error_nan",
    "display", "literal", "format_number", "value_key",
    "fdiv", "fpow", "fneg", "fnot", "fconcat_values",
    "BINARY_OPS", "COMPARE_OPS", "UNARY_OPS", "truth", "choose_index",
    "ERROR_NA", "ERROR_DIV0", "ERROR_VALUE", "ERROR_NUM", "ERROR_NAME",
    "ERROR_REF", "ERROR_CYCLE",
]


class Value:
    """Base class for all runtime values."""

    __slots__ = ()


class Number(Value):
    __slots__ = ("value",)

    def __init__(self, value: float):
        self.value = float(value)

    def __eq__(self, other):
        return isinstance(other, Number) and other.value == self.value

    def __hash__(self):
        return hash(("num", self.value))

    def __repr__(self):
        return f"Number({self.value!r})"


class Text(Value):
    __slots__ = ("value",)

    def __init__(self, value: str):
        self.value = value

    def __eq__(self, other):
        return isinstance(other, Text) and other.value == self.value

    def __hash__(self):
        return hash(("text", self.value))

    def __repr__(self):
        return f"Text({self.value!r})"


# --- error values and the NaN encoding -------------------------------------

# Bit layout of an error NaN (little-endian u64 view of the double):
#   bit 63      sign, 0 on encode (arithmetic may flip it; decode ignores it)
#   bits 52-62  exponent, all ones
#   bit 51      quiet bit, set
#   bits 48-50  MAGIC_TAG = 0b101, marks the NaN as an encoded error
#   bits 0-31   index of the error in the session registry
MAGIC_TAG = 0b101
_EXP_MASK = 0x7FF0_0000_0000_0000
_QUIET_BIT = 0x0008_0000_0000_0000
_TAG_SHIFT = 48
_TAG_MASK = 0x7 << _TAG_SHIFT
_INDEX_MASK = 0xFFFF_FFFF
_ERR_PREFIX = _EXP_MASK | _QUIET_BIT | (MAGIC_TAG << _TAG_SHIFT)

_pack = struct.Struct("<d").pack
_unpack = struct.Struct("<Q").unpack
_packq = struct.Struct("<Q").pack
_unpackd = struct.Struct("<d").unpack


def _bits_of(d: float) -> int:
    return _unpack(_pack(d))[0]


def _double_of(bits: int) -> float:
    return _unpackd(_packq(bits))[0]


class ErrorValue(Value):
    """An interned error such as #NA or #DIV/0!.

    Errors are interned per session: the same name always yields the same
    object and the same registry index, so the index can stand in for the
    error inside a NaN payload, and two errors are equal when they are the
    same object.
    """

    __slots__ = ("index", "name", "_nan")

    _by_name: dict[str, "ErrorValue"] = {}
    _by_index: list["ErrorValue"] = []

    def __init__(self, index: int, name: str):
        self.index = index
        self.name = name
        self._nan = _double_of(_ERR_PREFIX | index)

    @classmethod
    def intern(cls, name: str) -> "ErrorValue":
        e = cls._by_name.get(name)
        if e is None:
            index = len(cls._by_index)
            if index > _INDEX_MASK:
                raise OverflowError("error registry exhausted")
            e = cls(index, name)
            cls._by_name[name] = e
            cls._by_index.append(e)
        return e

    @classmethod
    def from_index(cls, index: int) -> "ErrorValue | None":
        if 0 <= index < len(cls._by_index):
            return cls._by_index[index]
        return None

    @classmethod
    def registered(cls) -> list["ErrorValue"]:
        return list(cls._by_index)

    def __repr__(self):
        return f"ErrorValue({self.name})"


ERROR_NA = ErrorValue.intern("#NA")
ERROR_DIV0 = ErrorValue.intern("#DIV/0!")
ERROR_VALUE = ErrorValue.intern("#VALUE!")
ERROR_NUM = ErrorValue.intern("#NUM!")
ERROR_NAME = ErrorValue.intern("#NAME?")
ERROR_REF = ErrorValue.intern("#REF!")
ERROR_CYCLE = ErrorValue.intern("#CYCLE!")

_NA_NAN = ERROR_NA._nan
_VALUE_NAN = ERROR_VALUE._nan
_DIV0_NAN = ERROR_DIV0._nan
_NUM_NAN = ERROR_NUM._nan


def error_nan(e: ErrorValue) -> float:
    """The NaN encoding of an error."""
    return e._nan


class ArrayValue(Value):
    """A rectangular array; ``rows`` is a tuple of equal-length tuples."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        self.rows = tuple(tuple(r) for r in rows)

    def __eq__(self, other):
        return isinstance(other, ArrayValue) and other.rows == self.rows

    def __hash__(self):
        return hash(("arr", self.rows))

    def __iter__(self):
        for row in self.rows:
            yield from row

    def __repr__(self):
        return f"ArrayValue({self.rows!r})"


class _Hole:
    """Placeholder for an unsupplied argument in a partial application."""

    __slots__ = ()
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "HOLE"


HOLE = _Hole()


class FunctionValue(Value):
    """A closure: a target function plus captured arguments.

    ``captured`` has one entry per parameter of the target; HOLE marks the
    parameters still to be supplied.  ``arity`` is the number of holes.
    Two closures are equal when they share the target and their captured
    arguments are pairwise equal.
    """

    __slots__ = ("target", "name", "captured", "arity")

    def __init__(self, target: int, name: str, captured):
        self.target = target
        self.name = name
        self.captured = tuple(captured)
        self.arity = sum(1 for c in self.captured if c is HOLE)

    def __eq__(self, other):
        return (
            isinstance(other, FunctionValue)
            and other.target == self.target
            and other.captured == self.captured
        )

    def __hash__(self):
        return hash(("fv", self.target, self.captured))

    def __repr__(self):
        return f"FunctionValue({display(self)})"


def value_key(v):
    """A hashable key that equals another value's key exactly when the two
    values agree bit for bit: Numbers by bit pattern (so 0 and -0 differ),
    errors by name, closures by target and captured keys (HOLE included).
    The specializer's cache and recalculation's cutoff both use it."""
    t = type(v)
    if t is Number:
        return _pack(v.value)
    if t is Text:
        return ("t", v.value)
    if t is ErrorValue:
        return ("e", v.name)
    if t is FunctionValue:
        return ("f", v.target, tuple(value_key(c) for c in v.captured))
    if t is ArrayValue:
        return ("a", tuple(tuple(value_key(x) for x in row) for row in v.rows))
    if v is HOLE:
        return ("?",)
    return ("o", id(v))


# --- boxing ------------------------------------------------------------------

_box_hook = None


def set_box_hook(hook) -> None:
    """Install a callable invoked on every Number boxing (None to clear).

    Used by tests to count allocations in compiled code.
    """
    global _box_hook
    _box_hook = hook


def make_number(d: float) -> Value:
    """Box a raw double as a Value; error NaNs come back as their error."""
    if d != d:
        if _box_hook is not None:
            _box_hook(d)
        return from_double_or_nan(d)
    if _box_hook is not None:
        _box_hook(d)
    return Number(d)


# --- conversions -------------------------------------------------------------

def to_double_or_nan(v: Value) -> float:
    """Unbox a value to a raw double; non-numbers become error NaNs."""
    if type(v) is Number:
        return v.value
    if type(v) is ErrorValue:
        return v._nan
    return _VALUE_NAN


def from_double_or_nan(d: float) -> Value:
    """Box a raw double; tagged NaNs decode to their error.

    Any NaN without the tag (e.g. from 0/0 in hardware) decodes to #NUM!.
    The sign bit is ignored: negation flips it but the payload survives.
    """
    if d == d:
        return Number(d)
    bits = _bits_of(d)
    if bits & _TAG_MASK == _TAG_MASK & _ERR_PREFIX:
        e = ErrorValue.from_index(bits & _INDEX_MASK)
        if e is not None:
            return e
    return ERROR_NUM


# --- display -----------------------------------------------------------------

def format_number(d: float) -> str:
    """Shortest round-trip decimal text; integral values print without dot."""
    if d != d:
        return from_double_or_nan(d).name
    if d == math.inf:
        return "inf"
    if d == -math.inf:
        return "-inf"
    if d == int(d) and abs(d) < 1e16:
        return str(int(d))
    return repr(d)


def literal(v: Value) -> str:
    """Formula-style rendering that reads back as the same value: text
    quoted, so values nest unambiguously, a negative zero signed, and an
    infinity as a number literal that overflows to it."""
    if type(v) is Text:
        return '"' + v.value.replace('"', '""') + '"'
    if type(v) is Number:
        d = v.value
        if d == 0.0 and math.copysign(1.0, d) < 0:
            return "-0"
        if abs(d) == math.inf:
            return "1E999" if d > 0 else "-1E999"
    return display(v)


def display(v) -> str:
    """Human-facing rendering of a value (text bare, at top level)."""
    t = type(v)
    if t is Number:
        return format_number(v.value)
    if t is Text:
        return v.value
    if t is ErrorValue:
        return v.name
    if t is ArrayValue:
        return "{" + ";".join(
            ",".join(literal(c) for c in row) for row in v.rows
        ) + "}"
    if t is FunctionValue:
        args = ",".join(map(literal, v.captured))
        return f"{v.name}({args})"
    if v is HOLE:
        return "#NA"
    raise TypeError(f"not a value: {v!r}")


# --- scalar operators --------------------------------------------------------
# All execution paths (interpreter, compiled code, constant folding) go
# through these, so results agree bit for bit.  The double operators take
# and return raw doubles with errors as NaNs.

def fdiv(a: float, b: float) -> float:
    if b:
        return a / b       # NaN operands propagate through hardware
    if a != a:
        return a
    return _DIV0_NAN


def fpow(a: float, b: float) -> float:
    try:
        r = a ** b
    except OverflowError:
        return -math.inf if (a < 0 and b % 2 == 1) else math.inf
    except ZeroDivisionError:
        return math.inf    # IEEE pow(+-0, negative)
    if type(r) is complex:
        return _NUM_NAN    # negative base, fractional exponent
    return r


def fneg(a: float) -> float:
    if a != a:
        return a           # keep the payload; decode ignores the sign flip
    return -a


def fnot(a: float) -> float:
    if a != a:
        return a
    return 0.0 if a else 1.0


BINARY_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
              "/": fdiv, "^": fpow}

# On proper (non-NaN) doubles; the caller passes an error operand through.
COMPARE_OPS = {"=": operator.eq, "<>": operator.ne, "<": operator.lt,
               "<=": operator.le, ">": operator.gt, ">=": operator.ge}

UNARY_OPS = {"-": fneg, "NOT": fnot}


def truth(v: Value):
    """Classify a value as a condition: True/False, or the error Value."""
    d = to_double_or_nan(v)
    if d != d:
        return from_double_or_nan(d)
    return d != 0.0


def choose_index(d: float, n: int) -> int | None:
    """The 0-based branch a proper double selects among ``n`` CHOOSE
    branches (the selector is truncated), or None when out of range."""
    try:
        k = math.trunc(d)
    except (OverflowError, ValueError):
        return None
    return k - 1 if 1 <= k <= n else None


def fconcat_values(a: Value, b: Value) -> Value:
    """The & operator: text concatenation with number formatting."""
    sa = _concat_text(a)
    if isinstance(sa, ErrorValue):
        return sa
    sb = _concat_text(b)
    if isinstance(sb, ErrorValue):
        return sb
    return Text(sa + sb)


def _concat_text(v: Value):
    t = type(v)
    if t is Text:
        return v.value
    if t is Number:
        return format_number(v.value)
    if t is ErrorValue:
        return v
    return ERROR_VALUE
