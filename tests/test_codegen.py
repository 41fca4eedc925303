"""Compiled bodies: IR shape, boxing discipline, tail calls, equivalence."""

import inspect
import os
import random
import struct
import sys

import pytest

from sheetfun import Number, Text, Workbook
from sheetfun.values import (
    ERROR_CYCLE, ERROR_DIV0, ERROR_NA, ERROR_NAME, ERROR_NUM, ERROR_REF,
    ERROR_VALUE, ErrorValue, set_box_hook,
)

from conftest import a1, call, fill

SEVEN = [ERROR_NA, ERROR_DIV0, ERROR_VALUE, ERROR_NUM, ERROR_NAME,
         ERROR_REF, ERROR_CYCLE]


def bits(x: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", x))[0]


def info_of(w, name):
    return w.function_table.get(w.function_table.lookup_name(name))


# --- golden IR ---------------------------------------------------------------

def test_add3_out_ir_is_straight_line(define):
    w = define({
        "B1": "0", "B2": "0", "B3": "0",
        "B4": "=B1+B2+B3",
        "B5": '=DEFINE("ADD3", B4, B1, B2, B3)',
    })
    assert info_of(w, "ADD3").compiled.out_ir == [
        "arg 0", "unwrap", "arg 1", "unwrap", "add",
        "arg 2", "unwrap", "add", "box", "return",
    ]
    assert call(w, "ADD3", 11, 22, 33) == Number(66.0)


def test_constant_condition_collapses(define):
    w = define({
        "B1": "0",
        "B2": "=IF(1, B1+1, 1/0)",
        "B3": '=DEFINE("CC", B2, B1)',
        "C1": "0",
        "C2": "=IF(0, 1/0, C1*2)",
        "C3": '=DEFINE("CC2", C2, C1)',
    })
    for name in ("CC", "CC2"):
        listing = info_of(w, name).compiled.listing
        assert "brf" not in listing and "jmp" not in listing
        assert "div" not in listing
    assert call(w, "CC", 4) == Number(5.0)
    assert call(w, "CC2", 4) == Number(8.0)


def test_not_in_condition_swaps_branches(define):
    w = define({
        "B1": "0",
        "B2": "=IF(NOT(B1>3), 1, 2)",
        "B3": '=DEFINE("NSW", B2, B1)',
    })
    lines = [ln.strip() for ln in info_of(w, "NSW").compiled.listing.splitlines()]
    assert "not" not in lines
    assert call(w, "NSW", 2) == Number(1.0)
    assert call(w, "NSW", 5) == Number(2.0)


def test_builtin_call_modes(define):
    w = define({
        "B1": "0",
        "B2": "=SQRT(B1)+ISERROR(B1)",
        "B3": '=DEFINE("MIX", B2, B1)',
        "I1": "0",
        "I2": '=I1+DEFINE("ZZ", I1)',
        "I3": '=DEFINE("DEFBODY", I2, I1)',
    })
    listing = info_of(w, "MIX").compiled.listing
    assert "calld SQRT 1" in listing      # numeric fast path, no boxing
    assert "call ISERROR 1" in listing    # general path through values
    assert call(w, "MIX", 16) == Number(4.0)
    # Only a sheet cell runs DEFINE; in a body it is #VALUE!.
    assert "error #VALUE!" in info_of(w, "DEFBODY").compiled.listing
    assert call(w, "DEFBODY", 1) is ERROR_VALUE
    assert w.function_table.lookup_name("ZZ") is None


def test_a_builtin_with_a_double_form_is_called_unboxed(define):
    # At every argument count it takes, and whatever its arguments may
    # hold: the text B1&"" gives MOD's double form a #VALUE! NaN.
    w = define({
        "B1": "0", "B2": "0",
        "B3": '=FLOOR(B1)+FLOOR(B1, B2)+MOD(B1&"", B2)',
        "B4": '=DEFINE("FL", B3, B1, B2)',
    })
    ir = info_of(w, "FL").compiled.out_ir
    assert [ln for ln in ir if ln.startswith("call")] == [
        "calld FLOOR 1", "calld FLOOR 2", "calld MOD 2"]
    assert call(w, "FL", 7.5, 2) is ERROR_VALUE
    assert call(w, "FL", ERROR_NA, 2) is ERROR_NA


def test_zero_input_function(define):
    w = define({"B2": "42", "B3": '=DEFINE("NILF", B2)'})
    assert call(w, "NILF") == Number(42.0)
    assert info_of(w, "NILF").compiled.out_ir == ["const 42", "box", "return"]


def test_a_constant_operand_escapes_line_breaks(define):
    w = define({
        "B1": "0",
        "B2": '=IF(B1, "x\n.out B9", IF(B1>1, ERR("a\rb"), "c\\"))',
        "B3": '=DEFINE("NL", B2, B1)',
    })
    compiled = info_of(w, "NL").compiled
    texts = [ln for ln in compiled.out_ir if ln.startswith("text")]
    assert texts == ['text "x\\n.out B9"', 'text "a\\rb"', 'text "c\\\\"']
    assert compiled.listing.count("\n.out ") == 1
    assert call(w, "NL", 1) == Text("x\n.out B9")


def test_out_ir_splits_the_listing_at_newlines_only(define):
    # str.splitlines would also break at U+0085 and U+2028.
    w = define({"B1": "0", "B2": '=B1&"x\x85y\u2028z"',
                "B3": '=DEFINE("LS", B2, B1)'})
    assert info_of(w, "LS").compiled.out_ir == [
        "arg 0", 'text "x\x85y\u2028z"', "concat", "return"]


# Together these bodies emit every IR mnemonic, in each compile mode that
# can emit it; tests/codegen_listings.txt holds their full listings.
EVERY_MNEMONIC_CELLS = {
    # A guard knot: both cells go lazy.
    "B1": "0", "B2": "=B1*2", "B3": "=B1+10",
    "B4": "=IF(B1, IF(B2=1, B3, 2), IF(B3=1, B2, 3))",
    "B5": '=DEFINE("KNOT", B4, B1)',
    # A guarded cell reached on two paths, whose guards are memoized and
    # shared with the output.
    "C1": "0", "C2": "=1/C1", "C3": "=C2+1", "C4": "=C2*2",
    "C5": "=IF(C1>0, C3, IF(C1<-1, C4, 7))",
    "C6": '=DEFINE("SHG", C5, C1)',
    # Double mode: operators, builtins with and without boxing, workbook
    # reads, constant conditions, and IF, CHOOSE, AND and OR on numbers.
    "D1": "0", "D2": "0",
    "D3": "=-(D1^2)-SQRT(D1)+ISERROR(D2)+NOT(D1)+S!A1+SUM(S!A1:A2)"
          "-(D2&1)+MOD(D1, 3)",
    "D4": "=D3*IF(D1<3, D3, IF(#NA, 1, 2))+CHOOSE(D1, 1, D3, #DIV/0!)"
          "+AND(D1, D2>0)+OR(D1=0, 2<D2)/CHOOSE(2, D3, 5)+IF(0, 1, D2)",
    "D5": '=IF(D4>0, D4, "neg")',
    "D6": '=DEFINE("NUM", D5, D1, D2)',
    # Value mode: text, arrays, and IF, CHOOSE, AND and OR on values.
    "E1": "0", "E2": "0",
    "E3": '=E2&"x"',
    "E4": '=E3&IF(E1, E3, CHOOSE(E2, "a", E1, {1,2}))&AND(E1, NOT(E2))'
          '&OR(E1, E3)&CHOOSE(E1, E3, 7)&IF(NOT(E1<>E2), 1, 0)',
    "E5": '=DEFINE("TXT", E4, E1, E2)',
    # A call and a tail call.
    "F1": "0", "F2": "=IF(F1=0, 1, F1*FACD(F1-1))",
    "F3": '=DEFINE("FACD", F2, F1)',
    "G1": "0", "G2": "=IF(G1<=0, 0, LOOP(G1-1))",
    "G3": '=DEFINE("LOOP", G2, G1)',
    # Closures and APPLY, in and out of tail position.
    "H1": "0", "H2": "0",
    "H3": "=APPLY(H2, H1)+1",
    "H4": '=IF(H3>2, APPLY(CLOSURE("FACD", #NA), H3), APPLY(H2, 3))',
    "H5": '=DEFINE("AP", H4, H1, H2)',
}

MNEMONICS = set(
    "arg slot const error text value unwrap box store add sub mul div pow "
    "neg not cmp nantest brf brbad jmp choose memo calld call concat "
    "getcell getarea sdf tailsdf apply tailapply closure return".split())


def test_listing_of_every_mnemonic_is_unchanged(define):
    w = define(EVERY_MNEMONIC_CELLS)
    listings = [info_of(w, name).compiled.listing
                for name in ("KNOT", "SHG", "NUM", "TXT", "FACD", "LOOP", "AP")]
    lines = "".join(listings).splitlines()
    assert {ln.split()[0] for ln in lines if ln.startswith("  ")} \
        == MNEMONICS | {"guard:"}
    flags = {f for ln in lines if ln.startswith(".cell")
             for f in ln.split()[4:]}
    assert flags == {"guarded", "lazy"}
    with open(os.path.join(os.path.dirname(__file__),
                           "codegen_listings.txt"), encoding="utf-8") as f:
        assert "\n".join(listings) == f.read()


# --- boxing discipline -------------------------------------------------------

def test_straight_line_numeric_body_boxes_once(define):
    w = define({
        "B1": "0", "B2": "0",
        "B3": "=(B1+B2)*B1-B2/2",
        "B4": '=DEFINE("SLN", B3, B1, B2)',
    })
    args = [Number(3.0), Number(4.0)]
    target = w.function_table.lookup_name("SLN")
    boxes = []
    set_box_hook(lambda d: boxes.append(d))
    try:
        got = w.function_table.call(target, args, w)
    finally:
        set_box_hook(None)
    assert got == Number((3 + 4) * 3 - 4 / 2)
    assert len(boxes) == 1


def test_guard_memo_shared_across_cells(define):
    w = define({
        "B1": "0",
        "B2": "=1/B1",
        "B3": "=2/B1",
        "B4": "=IF(B1>0, B2+B2+B3*B3, 7)",
        "B5": '=DEFINE("SHG", B4, B1)',
    })
    compiled = info_of(w, "SHG").compiled
    # One memo slot: both cells reuse the same cached condition.
    assert compiled.n_memo == 1
    assert sum("guarded" in ln for ln in compiled.listing.splitlines()
               if ln.startswith(".cell")) == 2
    assert call(w, "SHG", 2) == Number(0.5 + 0.5 + 1.0)
    assert call(w, "SHG", -1) == Number(7.0)


# --- control flow at runtime -------------------------------------------------

def test_compiled_if_propagates_every_error(define):
    w = define({
        "B1": "0",
        "B2": "=IF(B1>0, B1+1, B1*2)",
        "B3": '=DEFINE("PROP", B2, B1)',
    })
    for e in SEVEN:
        assert call(w, "PROP", e) is e
    custom = ErrorValue.intern("#ERR:zap")
    assert call(w, "PROP", custom) is custom
    assert call(w, "PROP", 3) == Number(4.0)
    assert call(w, "PROP", -3) == Number(-6.0)
    assert call(w, "PROP", "s") is ERROR_VALUE


def test_tail_recursion_runs_in_constant_stack(define):
    w = define({
        "C1": "0",
        "C2": "=IF(C1<=0, 0, LOOP(C1-1))",
        "C3": '=DEFINE("LOOP", C2, C1)',
    })
    listing = info_of(w, "LOOP").compiled.listing
    assert "tailsdf" in listing
    depth = len(inspect.stack())
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 60)
    try:
        got = call(w, "LOOP", 200000)
    finally:
        sys.setrecursionlimit(old)
    assert got == Number(0.0)


def test_workbook_cells_read_at_call_time(define):
    w = define({
        "B1": "0",
        "B2": "=S!A5*B1+SUM(S!A1:A2)",
        "B3": '=DEFINE("RD", B2, B1)',
    })
    fill(w, "S", {"A5": "3", "A1": "10", "A2": "5"})
    w.recalculate()
    assert call(w, "RD", 2) == Number(21.0)
    fill(w, "S", {"A5": "4", "A1": "0"})
    w.recalculate()
    assert call(w, "RD", 2) == Number(13.0)


# --- equivalence with the interpreter ----------------------------------------

_LEAVES = [-7.0, -2.5, -1.0, -0.25, 0.0, 0.5, 1.0, 2.0, 3.0, 9.0]
_VECTOR_POOL = [-5.5, -1.0, -0.25, 0.0, 0.5, 1.0, 3.0, 17.0, 0.1]


def _gen(rng, depth, refs):
    if depth == 0 or rng.random() < 0.25:
        if refs and rng.random() < 0.6:
            return rng.choice(refs)
        v = rng.choice(_LEAVES)
        return f"({v!r})" if v < 0 else f"{v!r}"
    pick = rng.random()
    a = _gen(rng, depth - 1, refs)
    b = _gen(rng, depth - 1, refs)
    if pick < 0.40:
        op = rng.choice(["+", "-", "*", "/", "^"])
        return f"({a}{op}{b})"
    if pick < 0.52:
        op = rng.choice(["<", "<=", "=", "<>", ">", ">="])
        return f"({a}{op}{b})"
    if pick < 0.64:
        c = _gen(rng, depth - 1, refs)
        return f"IF({a},{b},{c})"
    if pick < 0.72:
        branches = ",".join(_gen(rng, depth - 1, refs)
                            for _ in range(rng.randint(2, 4)))
        return f"CHOOSE({a},{branches})"
    if pick < 0.80:
        name = rng.choice(["AND", "OR"])
        return f"{name}({a},{b})"
    if pick < 0.86:
        return f"NOT({a})"
    if pick < 0.94:
        name = rng.choice(["MOD", "MIN", "MAX", "QUOTIENT"])
        return f"{name}({a},{b})"
    name = rng.choice(["SQRT", "ABS", "EXP", "LN", "TRUNC", "FLOOR"])
    return f"{name}({a})"


def _same(a, b) -> bool:
    if type(a) is not type(b):
        return False
    if type(a) is Number:
        return bits(a.value) == bits(b.value)
    return a is b or a == b


def test_compiled_matches_interpreter_on_random_bodies():
    rng = random.Random(20240817)
    for trial in range(30):
        nin = rng.randint(1, 3)
        inputs = [f"B{i + 1}" for i in range(nin)]
        body = {}
        refs = list(inputs)
        for row in (4, 5, 6, 7):
            body[f"B{row}"] = "=" + _gen(rng, rng.randint(1, 3), refs)
            refs.append(f"B{row}")

        wf = Workbook()
        wf.add_sheet("F", kind="function")
        fill(wf, "F", body)
        args = ", ".join(inputs)
        fill(wf, "F", {"B9": f'=DEFINE("EQ", B7, {args})'})
        wf.recalculate()
        assert not wf.diagnostics, (trial, wf.diagnostics)

        for vec in range(6):
            xs = [rng.choice(_VECTOR_POOL) for _ in range(nin)]
            wi = Workbook()
            wi.add_sheet("F")
            fill(wi, "F", body)
            for ref, x in zip(inputs, xs):
                fill(wi, "F", {ref: repr(x)})
            wi.recalculate()
            want = wi.get_value(a1("F", "B7"))
            got = call(wf, "EQ", *xs)
            assert _same(want, got), (trial, vec, body, xs, want, got)
