"""Value model: tagged-NaN errors, boxing, scalar helpers."""

import math
import random
import struct

import pytest

from sheetfun.values import (
    ERROR_CYCLE, ERROR_DIV0, ERROR_NA, ERROR_NAME, ERROR_NUM, ERROR_REF,
    ERROR_VALUE, ArrayValue, ErrorValue, FunctionValue, HOLE, Number, Text,
    display, error_nan, fconcat_values, fdiv, fneg, fpow, format_number,
    from_double_or_nan, literal, make_number, set_box_hook, to_double_or_nan,
    value_key,
)

from test_operators import POOL

SEVEN = [ERROR_NA, ERROR_DIV0, ERROR_VALUE, ERROR_NUM, ERROR_NAME,
         ERROR_REF, ERROR_CYCLE]


def bits(d: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", d))[0]


def expected_nan_bits(index: int) -> int:
    # Independent reconstruction: quiet NaN, tag 0b101 in bits 48..50,
    # registry index in the low 32 bits.
    return (0x7FF << 52) | (1 << 51) | (0b101 << 48) | index


def test_canonical_error_order():
    assert [e.name for e in SEVEN] == [
        "#NA", "#DIV/0!", "#VALUE!", "#NUM!", "#NAME?", "#REF!", "#CYCLE!"]
    assert [e.index for e in SEVEN] == list(range(7))


def test_error_nan_bit_layout():
    for e in SEVEN:
        assert bits(error_nan(e)) == expected_nan_bits(e.index)
        assert math.isnan(error_nan(e))


def test_error_round_trip_all_registered():
    custom = ErrorValue.intern("#ERR:boom")
    for e in SEVEN + [custom]:
        back = from_double_or_nan(error_nan(e))
        assert back is e


def test_intern_is_idempotent():
    assert ErrorValue.intern("#NA") is ERROR_NA
    a = ErrorValue.intern("#ERR:x1")
    assert ErrorValue.intern("#ERR:x1") is a


def test_unknown_nan_decodes_to_num_error():
    # Quiet NaN without our tag.
    plain = struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000000))[0]
    assert from_double_or_nan(plain) is ERROR_NUM
    assert from_double_or_nan(float("nan")) is ERROR_NUM
    # Tagged but with an index that was never registered.
    stray = struct.unpack(
        "<d", struct.pack("<Q", expected_nan_bits(999_999)))[0]
    assert from_double_or_nan(stray) is ERROR_NUM


def test_random_untagged_nans_decode_to_num_error():
    rng = random.Random(20240817)
    tag_mask = 0b111 << 48
    n = 0
    while n < 2000:
        payload = rng.getrandbits(52)
        if payload == 0:
            continue                     # would be an infinity
        u = (0x7FF << 52) | payload
        if (u & tag_mask) == (0b101 << 48):
            continue                     # carries our tag; skip
        d = struct.unpack("<d", struct.pack("<Q", u))[0]
        assert from_double_or_nan(d) is ERROR_NUM
        n += 1


def test_payload_survives_arithmetic():
    for e in SEVEN:
        d = error_nan(e)
        for r in (d + 1.5, 2.0 * d, d - 3.0, d / 7.0, 1.5 + d):
            assert from_double_or_nan(r) is e


def test_negation_keeps_payload():
    # Unary minus flips the sign bit of a NaN; decoding ignores it.
    d = error_nan(ERROR_REF)
    assert from_double_or_nan(fneg(d)) is ERROR_REF
    assert from_double_or_nan(-d) is ERROR_REF


def test_to_double_conversions():
    assert to_double_or_nan(Number(2.5)) == 2.5
    assert bits(to_double_or_nan(ERROR_NA)) == expected_nan_bits(0)
    # Non-numbers convert to the #VALUE! payload.
    assert from_double_or_nan(to_double_or_nan(Text("x"))) is ERROR_VALUE


def test_make_number_boxes_and_unboxes():
    v = make_number(3.0)
    assert type(v) is Number and v.value == 3.0
    assert make_number(error_nan(ERROR_DIV0)) is ERROR_DIV0


def test_box_hook_counts():
    seen = []
    set_box_hook(lambda d: seen.append(d))
    try:
        make_number(1.0)
        make_number(error_nan(ERROR_NA))
    finally:
        set_box_hook(None)
    assert seen == [1.0, error_nan(ERROR_NA)] or len(seen) == 2


def test_fdiv_cases():
    assert fdiv(6.0, 3.0) == 2.0
    assert from_double_or_nan(fdiv(1.0, 0.0)) is ERROR_DIV0
    assert from_double_or_nan(fdiv(0.0, 0.0)) is ERROR_DIV0
    # An error numerator wins over the division error.
    assert from_double_or_nan(fdiv(error_nan(ERROR_NA), 0.0)) is ERROR_NA
    assert from_double_or_nan(fdiv(3.0, error_nan(ERROR_REF))) is ERROR_REF


def test_fpow_cases():
    assert fpow(2.0, 10.0) == 1024.0
    assert from_double_or_nan(fpow(-2.0, 0.5)) is ERROR_NUM
    assert fpow(1e308, 4.0) == math.inf
    assert fpow(-1e308, 3.0) == -math.inf
    assert fpow(0.0, -2.0) == math.inf
    # IEEE: pow(1, anything) and pow(anything, 0) are 1.
    assert fpow(1.0, float("nan")) == 1.0
    assert fpow(float("nan"), 0.0) == 1.0
    assert fpow(error_nan(ERROR_NA), 0.0) == 1.0


def test_concat():
    assert fconcat_values(Text("a"), Text("b")) == Text("ab")
    assert fconcat_values(Text("n="), Number(3.0)) == Text("n=3")
    assert fconcat_values(ERROR_NA, Text("x")) is ERROR_NA
    assert fconcat_values(Text("x"), ERROR_REF) is ERROR_REF
    assert fconcat_values(ArrayValue([[Number(1.0)]]), Text("x")) \
        is ERROR_VALUE


def test_value_equal():
    assert Number(1.0) == Number(1.0)
    assert not Number(1.0) == Number(2.0)
    assert not Number(1.0) == Text("1")
    assert ERROR_NA == ERROR_NA
    f1 = FunctionValue(3, "F", [Number(1.0), HOLE])
    f2 = FunctionValue(3, "F", [Number(1.0), HOLE])
    assert f1 == f2
    assert not f1 == FunctionValue(3, "F", [Number(2.0), HOLE])
    a1 = ArrayValue([[Number(1.0), Text("a")], [ERROR_NA, f1]])
    a2 = ArrayValue([[Number(1.0), Text("a")], [ERROR_NA, f2]])
    assert a1 == a2
    assert not a1 == ArrayValue([[Number(1.0), Text("a")]])
    # Equal values hash equal; an error is equal only to itself, as every
    # error is interned.
    for x, y in ((Number(1.0), Number(1.0)), (Text("a"), Text("a")),
                 (ERROR_NA, ERROR_NA), (f1, f2), (a1, a2)):
        assert hash(x) == hash(y)
    assert not ERROR_NA == ERROR_DIV0


def test_format_number():
    assert format_number(3.0) == "3"
    assert format_number(-17.0) == "-17"
    assert format_number(2.5) == "2.5"
    assert format_number(1e300) == "1e+300"
    # A NaN reads as the error it encodes, and an untagged one as #NUM!.
    assert format_number(error_nan(ERROR_DIV0)) == "#DIV/0!"
    assert format_number(float("nan")) == "#NUM!"


def test_display():
    assert display(Number(4.0)) == "4"
    assert display(Text("hi")) == "hi"
    assert display(ERROR_DIV0) == "#DIV/0!"
    arr = ArrayValue([[Number(1.0), Number(2.0)], [Number(3.0), Text("x")]])
    assert display(arr) == '{1,2;3,"x"}'
    fv = FunctionValue(9, "ADD", [Number(1.0), HOLE])
    assert display(fv) == "ADD(1,#NA)"
    assert literal(Text("say \"hi\"")) == '"say ""hi"""'
    # A negative zero is signed where it must read back, not on display.
    assert display(Number(-0.0)) == "0"
    assert literal(Number(-0.0)) == "-0"
    assert literal(Number(0.0)) == "0"


def test_function_value_arity():
    fv = FunctionValue(1, "G", [HOLE, Number(2.0), HOLE])
    assert fv.arity == 2


def _identical(a, b) -> bool:
    """Bit-for-bit equality, written out independently of value_key."""
    if type(a) is not type(b):
        return False
    if type(a) is Number:
        return bits(a.value) == bits(b.value)
    if type(a) is FunctionValue:
        return a.target == b.target and len(a.captured) == len(b.captured) \
            and all(x is y if x is HOLE or y is HOLE else _identical(x, y)
                    for x, y in zip(a.captured, b.captured))
    if type(a) is ArrayValue:
        return len(a.rows) == len(b.rows) and all(
            len(r) == len(q) and all(map(_identical, r, q))
            for r, q in zip(a.rows, b.rows))
    return a == b


def _copy(v):
    """An equal value that is a different object (errors are interned)."""
    if type(v) is Number:
        return Number(v.value)
    if type(v) is Text:
        return Text(v.value)
    if type(v) is FunctionValue:
        return FunctionValue(v.target, v.name,
                             [c if c is HOLE else _copy(c) for c in v.captured])
    if type(v) is ArrayValue:
        return ArrayValue([[_copy(x) for x in row] for row in v.rows])
    return v


def test_value_key_is_bit_equality_over_the_operator_pool():
    # The specializer's cache and recalculation's cutoff both rest on it:
    # two values get the same key exactly when they agree bit for bit.
    pool = POOL + [
        FunctionValue(3, "F", [Number(0.0), HOLE]),
        FunctionValue(3, "F", [Number(-0.0), HOLE]),
        FunctionValue(3, "F", [HOLE, Number(0.0)]),
        FunctionValue(4, "F", [Number(0.0), HOLE]),
        FunctionValue(3, "F", [Text("abc"), ERROR_NA]),
        ArrayValue([[Number(0.0), Text("abc")]]),
        ArrayValue([[Number(-0.0), Text("abc")]]),
        ArrayValue([[Number(0.0)], [Text("abc")]]),
        ArrayValue([[ERROR_NA, Text("")]]),
    ]
    for a in pool:
        hash(value_key(a))
        for b in pool + [_copy(v) for v in pool]:
            assert (value_key(a) == value_key(b)) == _identical(a, b), (a, b)
    assert value_key(Number(0.0)) != value_key(Number(-0.0))
    assert value_key(Text("#NA")) != value_key(ERROR_NA)
    assert value_key(HOLE) != value_key(ERROR_NA)
