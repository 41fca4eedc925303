"""Workbook evaluation: interpreter semantics, recalculation, builtins."""

import math
import random
import struct
import sys
from types import SimpleNamespace

import pytest

from sheetfun import CellAddr, Number, Text, Workbook, display, engine
from sheetfun.engine import Builtin, Registry, SplitMix64, default_registry
from sheetfun.values import (
    ERROR_CYCLE, ERROR_DIV0, ERROR_NA, ERROR_NAME, ERROR_NUM, ERROR_REF,
    ERROR_VALUE, ErrorValue,
)

from conftest import a1, call, fill, make_wb


def ev(wb, formula, sheet="S"):
    return wb.eval_formula(formula, sheet)


def test_splitmix64_reference_vector():
    # Published first outputs for seed 0 (the xoshiro test constant).
    g = SplitMix64(0)
    assert g.next_u64() == 0xE220A8397B1DCDAF
    assert g.next_u64() == 0x6E789E6AA1B965F4
    assert g.next_u64() == 0x06C45D188009454F


def test_splitmix64_doubles_in_range():
    g = SplitMix64(99)
    xs = [g.next_double() for _ in range(1000)]
    assert all(0.0 <= x < 1.0 for x in xs)
    assert len(set(xs)) == 1000


def test_arithmetic_and_errors(wb):
    assert ev(wb, "=2+3*4") == Number(14.0)
    assert ev(wb, "=7/2") == Number(3.5)
    assert ev(wb, "=1/0") is ERROR_DIV0
    assert ev(wb, "=MOD(7,0)") is ERROR_DIV0
    assert ev(wb, "=SQRT(-4)") is ERROR_NUM
    assert ev(wb, "=-(3+4)") == Number(-7.0)
    assert ev(wb, '="a"&1') == Text("a1")
    assert ev(wb, '=1&2') == Text("12")


def test_comparisons_are_numeric_only(wb):
    assert ev(wb, "=1<2") == Number(1.0)
    assert ev(wb, "=2<=1") == Number(0.0)
    assert ev(wb, '="a"=1') is ERROR_VALUE
    assert ev(wb, '="a"="a"') is ERROR_VALUE
    assert ev(wb, "=NA()=1") is ERROR_NA
    # Left operand's error wins.
    assert ev(wb, "=NA()=1/0") is ERROR_NA


def test_if_and_choose(wb):
    assert ev(wb, '=IF(2>1,"y","n")') == Text("y")
    assert ev(wb, "=IF(0,1,2)") == Number(2.0)
    assert ev(wb, "=IF(NA(),1,2)") is ERROR_NA
    assert ev(wb, "=CHOOSE(2,10,20,30)") == Number(20.0)
    assert ev(wb, "=CHOOSE(2.9,10,20,30)") == Number(20.0)
    assert ev(wb, "=CHOOSE(0,10,20)") is ERROR_VALUE
    assert ev(wb, "=CHOOSE(3,10,20)") is ERROR_VALUE
    assert ev(wb, "=CHOOSE(NA(),1,2)") is ERROR_NA


def test_and_or_short_circuit(wb):
    assert ev(wb, "=AND(0, 1/0)") == Number(0.0)
    assert ev(wb, "=OR(1, 1/0)") == Number(1.0)
    assert ev(wb, "=AND(1, 1/0)") is ERROR_DIV0
    assert ev(wb, "=AND(2, 3)") == Number(1.0)
    assert ev(wb, "=OR(0, 0)") == Number(0.0)
    assert ev(wb, "=NOT(0)") == Number(1.0)
    assert ev(wb, "=NOT(5)") == Number(0.0)


def test_cell_values_and_refs(wb):
    fill(wb, "S", {"A1": "3", "A2": "=A1*2", "A3": '"txt"', "A4": "#NA"})
    assert wb.get_value(a1("S", "A2")) == Number(6.0)
    assert wb.get_value(a1("S", "A3")) == Text("txt")
    assert wb.get_value(a1("S", "A4")) is ERROR_NA
    assert wb.get_value(a1("S", "Z99")) == Number(0.0)     # empty reads 0
    assert wb.get_value(a1("Nope", "A1")) is ERROR_REF
    assert ev(wb, "=S!A1+1") == Number(4.0)


def test_cycle_detection(wb):
    fill(wb, "S", {"B1": "=B2+1", "B2": "=B1+1"})
    assert wb.get_value(a1("S", "B1")) is ERROR_CYCLE
    fill(wb, "S", {"C1": "=C1"})
    assert wb.get_value(a1("S", "C1")) is ERROR_CYCLE


def test_memoization_within_generation():
    counter = [0]

    def tick(args, rt):
        counter[0] += 1
        return Number(float(counter[0]))

    reg = default_registry().clone()
    reg.register(Builtin("TICK", 0, 0, tick, volatile=True))
    wb = Workbook(registry=reg)
    wb.add_sheet("S")
    fill(wb, "S", {"A1": "=TICK()", "A2": "=A1+A1", "A3": "=A1"})
    wb.recalculate()
    # One evaluation of A1 per generation, however many readers.
    assert wb.get_value(a1("S", "A2")) == Number(2.0)
    assert wb.get_value(a1("S", "A3")) == wb.get_value(a1("S", "A1"))
    assert counter[0] == 1
    wb.recalculate()
    assert counter[0] == 2


def test_volatile_rand_changes_between_recalcs(wb):
    fill(wb, "S", {"A1": "=RAND()"})
    wb.recalculate()
    v1 = wb.get_value(a1("S", "A1"))
    assert wb.get_value(a1("S", "A1")) == v1    # stable within generation
    wb.recalculate()
    assert wb.get_value(a1("S", "A1")) != v1


def test_rand_seed_replay():
    w1 = Workbook(seed=5)
    w1.add_sheet("S")
    w2 = Workbook(seed=5)
    w2.add_sheet("S")
    a = [w1.eval_formula("=RAND()", "S").value for _ in range(10)]
    b = [w2.eval_formula("=RAND()", "S").value for _ in range(10)]
    assert a == b


def test_areas_and_aggregates(wb):
    fill(wb, "S", {"A1": "1", "A2": "5", "B1": "3", "B2": "-2"})
    assert ev(wb, "=SUM(S!A1:B2)") == Number(7.0)
    assert ev(wb, "=MIN(S!A1:B2)") == Number(-2.0)
    assert ev(wb, "=MAX(S!A1:B2, 99)") == Number(99.0)
    fill(wb, "S", {"C1": "#REF!"})
    assert ev(wb, "=SUM(S!A1:C1)") is ERROR_REF
    fill(wb, "S", {"D1": '"x"'})
    assert ev(wb, "=SUM(S!D1:D1)") is ERROR_VALUE


def test_local_area_on_ordinary_sheet(wb):
    fill(wb, "S", {"A1": "2", "A2": "3", "A3": "=SUM(A1:A2)"})
    assert wb.get_value(a1("S", "A3")) == Number(5.0)


def test_numeric_builtins(wb):
    assert ev(wb, "=SQRT(9)") == Number(3.0)
    assert ev(wb, "=ABS(-3)") == Number(3.0)
    assert ev(wb, "=MOD(7,3)") == Number(1.0)
    assert ev(wb, "=MOD(-7,3)") == Number(2.0)      # sign follows divisor
    assert ev(wb, "=QUOTIENT(7,2)") == Number(3.0)
    assert ev(wb, "=QUOTIENT(-7,2)") == Number(-3.0)  # truncates toward zero
    assert ev(wb, "=TRUNC(2.9)") == Number(2.0)
    assert ev(wb, "=TRUNC(-2.9)") == Number(-2.0)
    assert ev(wb, "=FLOOR(-2.1)") == Number(-3.0)
    assert ev(wb, "=FLOOR(7, 2)") == Number(6.0)
    assert ev(wb, "=FLOOR(5, 0)") is ERROR_DIV0
    assert ev(wb, "=LN(EXP(2))") == Number(2.0)
    assert ev(wb, "=LN(0)") is ERROR_NUM


def test_strictness_and_iserror(wb):
    assert ev(wb, "=SQRT(NA())") is ERROR_NA
    assert ev(wb, "=ISERROR(1/0)") == Number(1.0)
    assert ev(wb, "=ISERROR(5)") == Number(0.0)
    assert ev(wb, '=ERR("boom")') == ErrorValue.intern("#ERR:boom")
    assert ev(wb, "=ERR(5)") is ERROR_VALUE
    assert ev(wb, "=TRUE()") == Number(1.0)
    assert ev(wb, "=FALSE()") == Number(0.0)


def test_unknown_function(wb):
    assert ev(wb, "=NOSUCH(1)") is ERROR_NAME


def test_arity_errors(wb):
    assert ev(wb, "=SQRT(1,2)") is ERROR_VALUE
    assert ev(wb, "=SQRT()") is ERROR_VALUE


def test_registry_duplicate_rejected():
    reg = Registry()
    reg.register(Builtin("X", 0, 0, lambda a, rt: Number(1.0)))
    with pytest.raises(ValueError):
        reg.register(Builtin("X", 0, 0, lambda a, rt: Number(2.0)))


def test_registry_clone_is_isolated():
    reg = default_registry().clone()
    reg.register(Builtin("EXTRA", 0, 0, lambda a, rt: Number(1.0)))
    assert default_registry().get("EXTRA") is None


def test_a_registered_builtin_sees_error_arguments():
    # No pre-scan answers for it: it reads its arguments and keeps the
    # rule itself, here by counting the errors.
    reg = default_registry().clone()
    reg.register(Builtin("NERR", 1, 3, lambda args, rt: Number(float(
        sum(type(a) is ErrorValue for a in args)))))
    wb = Workbook(registry=reg)
    wb.add_sheet("S")
    assert ev(wb, '=NERR(NA(), 1, 1/0)') == Number(2.0)


def test_define_rejected_on_ordinary_sheet(wb):
    fill(wb, "S", {"A1": "0", "A2": "=A1", "A3": '=DEFINE("NOPE", A2, A1)'})
    wb.recalculate()
    assert wb.get_value(a1("S", "A3")) is ERROR_VALUE
    assert any("function sheet" in d for d in wb.diagnostics)


def test_define_requires_plain_refs(wb):
    fill(wb, "F", {"B3": '=DEFINE("BAD", B1+1, B2)'})
    wb.recalculate()
    assert wb.get_value(a1("F", "B3")) is ERROR_VALUE


def test_triangle_area_heron(define):
    # Heron's rule as a worksheet: s=(a+b+c)/2, area=sqrt(s(s-a)(s-b)(s-c)).
    w = define({
        "B1": "0", "B2": "0", "B3": "0",
        "B4": "=(B1+B2+B3)/2",
        "B5": "=SQRT(B4*(B4-B1)*(B4-B2)*(B4-B3))",
        "B6": '=DEFINE("TRIAREA", B5, B1, B2, B3)',
    })
    assert call(w, "TRIAREA", 3, 4, 5) == Number(6.0)
    assert call(w, "TRIAREA", 5, 12, 13) == Number(30.0)
    got = call(w, "TRIAREA", 2, 3, 4).value
    s = (2 + 3 + 4) / 2
    assert got == pytest.approx(math.sqrt(s * (s - 2) * (s - 3) * (s - 4)))
    # Degenerate triangle: negative radicand.
    assert call(w, "TRIAREA", 1, 1, 5) is ERROR_NUM


def test_now_is_a_serial_date(wb):
    v = ev(wb, "=NOW()")
    # Days since 1899-12-30; any current date is far past 2020.
    assert v.value > 43830


# --- incremental recalculation ----------------------------------------------

def _bits(v):
    """A value as plain data: Numbers by bit pattern, others as shown."""
    if type(v) is Number:
        return struct.pack("<d", v.value)
    return (type(v).__name__, display(v))


def _load(contents: dict, seed: int = 0, clean: bool = True) -> Workbook:
    """A fresh workbook holding ``contents`` ({(sheet, ref): text}) after
    one recalculation, which evaluates every cell.  Unless ``clean`` is
    off, no DEFINE may fail."""
    w = Workbook(seed=seed)
    w.add_sheet("S")
    w.add_sheet("F", kind="function")
    for (sheet, ref), text in contents.items():
        w.set_cell(a1(sheet, ref), text)
    w.recalculate()
    assert not (clean and w.diagnostics), w.diagnostics
    return w


def _edit(w: Workbook, contents: dict, edits: dict) -> None:
    for (sheet, ref), text in edits.items():
        contents[(sheet, ref)] = text
        w.set_cell(a1(sheet, ref), text)
    w.recalculate()


def _grid(w: Workbook, refs) -> dict:
    return {ref: _bits(w.get_value(a1("S", ref))) for ref in refs}


def _check_edges(w: Workbook) -> None:
    """Every reverse edge mirrors a recorded input, each input is recorded
    once, and every empty cell kept for its readers still has one."""
    cells = [c for sheet in w.sheets.values() for c in sheet.cells.values()]
    cells += w._absent.values()
    known = set(cells)
    for c in cells:
        assert len(set(c.inputs)) == len(c.inputs)
        for inp in c.inputs:
            assert inp in known and c in inp.readers
        for r in c.readers or ():
            assert r in known and c in r.inputs
    assert all(c.readers for c in w._absent.values())


# SCALE reads the ordinary cell S!H1 from its body; ADDP is called through
# CLOSURE and APPLY.
LIB_CELLS = {
    ("F", "B1"): "0", ("F", "B2"): "=B1*2+S!H1",
    ("F", "B3"): '=DEFINE("SCALE", B2, B1)',
    ("F", "C1"): "0", ("F", "C2"): "0", ("F", "C3"): "=C1-C2",
    ("F", "C4"): '=DEFINE("ADDP", C3, C1, C2)',
}
SCALE_BODIES = ["=B1*2+S!H1", "=B1*3-S!H1", "=IF(B1>2, B1, S!H1)"]
_COLS = "ABCDEFG"       # column G starts empty, but formulas read it


def _ref(rng):
    return f"{rng.choice(_COLS)}{rng.randint(1, 8)}"


def _formula(rng) -> str:
    a, b, c = _ref(rng), _ref(rng), _ref(rng)
    kind = rng.randrange(8)
    if kind == 0:
        return f"={a}+{b}*0.5"
    if kind == 1:
        return f"=IF({a}>{b}, {c}, {a}-1)"
    if kind == 2:
        r = rng.randint(1, 7)
        return f"=SUM(A{r}:{rng.choice('BCG')}{r + 1})"
    if kind == 3:
        return f"=SCALE({a})"
    if kind == 4:
        return f'=APPLY(CLOSURE("ADDP", {a}, #NA), {b})'
    if kind == 5:
        return f"=CHOOSE(1+MOD(ABS({a}), 2), {b}, {c})"
    if kind == 6:
        return f'={a}&"x"'
    return f"=ISERROR({a})+{b}"


def _constant(rng) -> str:
    return rng.choice([str(rng.randint(-3, 9)), "2.5", "-0", '"t"', "#NA"])


def test_random_edits_match_a_fresh_workbook():
    rng = random.Random(20261018)
    contents = dict(LIB_CELLS)
    contents[("S", "H1")] = "1"
    for col in _COLS[:-1]:
        for row in range(1, 9):
            contents[("S", f"{col}{row}")] = (
                _formula(rng) if rng.random() < 0.6 else _constant(rng))
    grid = [f"{col}{row}" for col in _COLS for row in range(1, 9)] + ["H1"]
    w = _load(contents)
    assert _grid(w, grid) == _grid(_load(contents), grid)
    for step in range(60):
        edits = {}
        for _ in range(rng.randint(1, 3)):
            pick = rng.random()
            if pick < 0.1:
                edits[("F", "B2")] = rng.choice(SCALE_BODIES)
            elif pick < 0.2:
                edits[("S", "H1")] = _constant(rng)
            else:
                ref = _ref(rng)     # column G: a cleared read gets a value
                edits[("S", ref)] = (_formula(rng) if rng.random() < 0.4
                                     else _constant(rng))
        _edit(w, contents, edits)
        assert _grid(w, grid) == _grid(_load(contents), grid), (step, edits)
        _check_edges(w)


# Each DEFINE cell of LIB_CELLS: its own text, an overwrite, a rename.
DEFINE_EDITS = {
    ("F", "B3"): ['=DEFINE("SCALE", B2, B1)', "5", '=DEFINE("SCALE2", B2, B1)'],
    ("F", "C4"): ['=DEFINE("ADDP", C3, C1, C2)', '"x"',
                  '=DEFINE("ADDQ", C3, C1, C2)'],
}


def test_random_define_edits_match_a_fresh_workbook():
    # The sibling of the test above, with DEFINE cells overwritten, renamed
    # and restored: a function lives exactly as long as its DEFINE.
    rng = random.Random(20261019)
    contents = dict(LIB_CELLS)
    contents[("S", "H1")] = "1"
    for col in _COLS[:-1]:
        for row in range(1, 9):
            contents[("S", f"{col}{row}")] = (
                _formula(rng) if rng.random() < 0.6 else _constant(rng))
    contents[("S", "H2")] = "=SCALE2(H1)"
    contents[("S", "H3")] = '=APPLY(CLOSURE("ADDQ", H1, #NA), 2)'
    grid = [f"{col}{row}" for col in _COLS for row in range(1, 9)] + [
        "H1", "H2", "H3"]
    w = _load(contents)
    for step in range(60):
        edits = {}
        for _ in range(rng.randint(1, 3)):
            pick = rng.random()
            if pick < 0.3:
                at = rng.choice(sorted(DEFINE_EDITS))
                edits[at] = rng.choice(DEFINE_EDITS[at])
            elif pick < 0.4:
                edits[("F", "B2")] = rng.choice(SCALE_BODIES)
            elif pick < 0.5:
                edits[("S", "H1")] = _constant(rng)
            else:
                edits[("S", _ref(rng))] = (_formula(rng) if rng.random() < 0.4
                                           else _constant(rng))
        _edit(w, contents, edits)
        assert _grid(w, grid) == _grid(_load(contents), grid), (step, edits)
        _check_edges(w)


# DBL is called from cells, through CLOSURE and APPLY, from a stored
# closure, and from the body of DBL1.
DBL_CELLS = {
    ("F", "B1"): "0", ("F", "B2"): "=B1*2",
    ("F", "B3"): '=DEFINE("DBL", B2, B1)',
    ("F", "C1"): "0", ("F", "C2"): "=DBL(C1)+1",
    ("F", "C3"): '=DEFINE("DBL1", C2, C1)',
    ("S", "A1"): "=DBL(3)", ("S", "A2"): '=APPLY(CLOSURE("DBL", #NA), 4)',
    ("S", "A3"): '=CLOSURE("DBL", 5)', ("S", "A4"): "=APPLY(A3)",
    ("S", "A5"): "=DBL1(3)", ("S", "A6"): "=A1+1",
}


@pytest.mark.parametrize("ref, text", [
    ("B3", "5"),                            # the DEFINE is overwritten
    ("B2", "=B2"),                          # the DEFINE fails: static cycle
    ("B3", '=DEFINE("TPL", B2, B1)'),       # the DEFINE names another function
])
def test_a_function_goes_with_its_define(ref, text):
    refs = ["A1", "A2", "A4", "A5", "A6"]
    contents = dict(DBL_CELLS)
    w = _load(contents)
    assert _grid(w, refs) == {r: _bits(Number(x)) for r, x in
                              zip(refs, (6.0, 8.0, 10.0, 7.0, 7.0))}
    table = w.function_table
    dbl = table.lookup_name("DBL")
    stored = w.get_value(a1("S", "A3"))
    assert table.apply(w.specializer.specialize(stored), [], w) == Number(10.0)
    assert any(k[0] == dbl for k in w.specializer.cache)
    contents[("F", ref)] = text
    w.set_cell(a1("F", ref), text)
    w.get_value(a1("S", "A6"))      # read before the DEFINE runs again
    w.recalculate()
    assert _grid(w, refs) == _grid(_load(contents, clean=False), refs)
    assert w.get_value(a1("S", "A1")) is ERROR_NAME
    assert w.get_value(a1("S", "A5")) is ERROR_NAME     # a linked call
    # The id stays reserved, so a closure made before reads #NAME?.
    assert table.lookup_name("DBL") == dbl and table.get(dbl) is None
    assert table.apply(stored, [], w) is ERROR_NAME
    assert not any(k[0] == dbl for k in w.specializer.cache)
    if "TPL" in text:
        assert w.eval_formula("=TPL(3)", "S") == Number(6.0)
    _check_edges(w)
    _edit(w, contents, {("F", ref): DBL_CELLS[("F", ref)]})
    assert _grid(w, refs) == _grid(_load(contents), refs)
    assert w.get_value(a1("S", "A5")) == Number(7.0)
    assert table.apply(stored, [], w) == Number(10.0)


def test_setting_an_empty_cell_that_was_read(wb):
    fill(wb, "S", {"A1": "=B5+1", "A2": "=SUM(B5:B6)", "A3": "=T!A1+1"})
    wb.recalculate()
    assert [wb.get_value(a1("S", r)) for r in ("A1", "A2")] == [
        Number(1.0), Number(0.0)]
    assert wb.get_value(a1("S", "A3")) is ERROR_REF
    wb.set_cell(a1("S", "B6"), "4")
    wb.recalculate()
    assert wb.get_value(a1("S", "A2")) == Number(4.0)
    wb.set_cell(a1("S", "B5"), "2")
    wb.recalculate()
    assert wb.get_value(a1("S", "A1")) == Number(3.0)
    assert wb.get_value(a1("S", "A2")) == Number(6.0)
    wb.add_sheet("T")               # the sheet A3 read did not exist
    wb.recalculate()
    assert wb.get_value(a1("S", "A3")) == Number(1.0)
    wb.set_cell(a1("T", "A1"), "5")
    wb.recalculate()
    assert wb.get_value(a1("S", "A3")) == Number(6.0)


def test_redefinition_reaches_every_caller(define):
    w = define({"B1": "0", "B2": "=B1*2", "B3": '=DEFINE("DBL", B2, B1)'})
    fill(w, "S", {"A1": "=DBL(3)", "A2": '=APPLY(CLOSURE("DBL", #NA), 4)',
                  "A3": '=CLOSURE("DBL", 5)', "A4": "=APPLY(A3)",
                  "A5": "=A1+1", "A6": "7"})
    w.recalculate()
    refs = ["A1", "A2", "A4", "A5", "A6"]
    assert [w.get_value(a1("S", r)) for r in refs] == [
        Number(x) for x in (6.0, 8.0, 10.0, 7.0, 7.0)]
    w.set_cell(a1("F", "B2"), "=B1*3")
    w.recalculate()
    assert [w.get_value(a1("S", r)) for r in refs] == [
        Number(x) for x in (9.0, 12.0, 15.0, 10.0, 7.0)]


def test_callee_defined_after_its_caller(wb):
    # G's DEFINE runs before H's; the call in G's body is linked to H's id
    # all the same, so the first recalculation already gives the value.
    w = wb
    fill(w, "F", {"B1": "0", "B2": "=H(B1)+1", "B3": '=DEFINE("G", B2, B1)',
                  "B5": "0", "B6": "=B5*10", "B7": '=DEFINE("H", B6, B5)'})
    fill(w, "S", {"A1": "=G(2)"})
    w.recalculate()
    assert w.get_value(a1("S", "A1")) == Number(21.0)
    w.recalculate()
    assert w.get_value(a1("S", "A1")) == Number(21.0)


BODIES = {"EVEN": "=IF({c}1=0, 1, ODD({c}1-1))",
          "ODD": "=IF({c}1=0, 0, EVEN({c}1-1))"}


@pytest.mark.parametrize("first", ["EVEN", "ODD"])
def test_mutual_recursion_in_either_row_order(wb, first):
    # Each body calls the other function, so one of the two DEFINEs always
    # runs before its callee is defined (column B before C within a row).
    w = wb
    second = "ODD" if first == "EVEN" else "EVEN"
    for c, name in (("B", first), ("C", second)):
        fill(w, "F", {f"{c}1": "0", f"{c}2": BODIES[name].format(c=c),
                      f"{c}3": f'=DEFINE("{name}", {c}2, {c}1)'})
    ns = [0, 1, 2, 7, 10, 2001]
    fill(w, "S", {f"A{i + 1}": f"=EVEN({n})" for i, n in enumerate(ns)})
    fill(w, "S", {f"B{i + 1}": f"=ODD({n})" for i, n in enumerate(ns)})
    w.recalculate()
    assert not w.diagnostics
    for i, n in enumerate(ns):
        even = Number(1.0 - n % 2)
        odd = Number(float(n % 2))
        assert w.get_value(a1("S", f"A{i + 1}")) == even
        assert w.get_value(a1("S", f"B{i + 1}")) == odd
        assert call(w, "EVEN", n) == even
        assert call(w, "ODD", n) == odd
        # The interpreter, on each body with the argument put in.
        assert ev(w, f"=IF({n}=0, 1, ODD({n}-1))") == even
        assert ev(w, f"=IF({n}=0, 0, EVEN({n}-1))") == odd


def test_call_of_an_undefined_name_in_a_body(wb):
    # USESNO's body calls NOSUCH, which nothing defines yet: the call gives
    # #NAME? after its arguments are evaluated, as in a cell.
    w = wb
    fill(w, "F", {"B1": "0", "B2": "=NOSUCH(RAND(), B1)",
                  "B3": '=DEFINE("USESNO", B2, B1)'})
    fill(w, "S", {"A1": "=USESNO(3)"})
    plain = make_wb()
    fill(plain, "S", {"A1": "=NOSUCH(RAND(), 3)"})
    rng = SplitMix64(0)
    for _ in range(3):
        w.recalculate()
        plain.recalculate()
        rng.next_u64()
        assert w.get_value(a1("S", "A1")) is ERROR_NAME
        assert plain.get_value(a1("S", "A1")) is ERROR_NAME
        assert w.rng.state == plain.rng.state == rng.state
    assert ev(w, "=NOSUCH(RAND())") is ERROR_NAME
    rng.next_u64()
    assert w.rng.state == rng.state
    # Defining the name later reaches the caller in one recalculation.
    fill(w, "F", {"C1": "0", "C2": "0", "C3": "=C2*100",
                  "C4": '=DEFINE("NOSUCH", C3, C1, C2)'})
    w.recalculate()
    assert w.get_value(a1("S", "A1")) == Number(300.0)


def test_a_broken_define_logs_once_until_cleared(wb):
    w = wb
    fill(w, "F", {"B1": "0", "B2": "=B2", "B3": '=DEFINE("SELFY", B2, B1)'})
    for _ in range(5):
        w.recalculate()
    assert len(w.diagnostics) == 1
    assert "static cycle" in w.diagnostics[0]
    w.diagnostics.clear()
    w.recalculate()
    assert len(w.diagnostics) == 1


def test_function_body_read_is_an_edge(define):
    # ADDC's compiled body reads S!C1; editing C1 reaches the calling cell.
    w = define({"B1": "0", "B2": "=B1+S!C1",
                "B3": '=DEFINE("ADDC", B2, B1)'})
    fill(w, "S", {"C1": "10", "A1": "=ADDC(1)", "A2": "=SUM(S!C1:C2)"})
    w.recalculate()
    assert w.get_value(a1("S", "A1")) == Number(11.0)
    assert "getcell S!C1" in w.function_table.get(
        w.function_table.lookup_name("ADDC")).compiled.listing
    w.set_cell(a1("S", "C1"), "20")
    w.recalculate()
    assert w.get_value(a1("S", "A1")) == Number(21.0)
    assert w.get_value(a1("S", "A2")) == Number(20.0)


def test_recalculation_skips_cells_no_edit_reached():
    counter = [0]

    def tick(args, rt):
        counter[0] += 1
        return args[0]

    reg = default_registry().clone()
    reg.register(Builtin("COUNT", 1, 1, tick))
    w = Workbook(registry=reg)
    w.add_sheet("S")
    fill(w, "S", {"A1": "1", "A2": "=COUNT(A1)", "B1": "2",
                  "B2": "=COUNT(B1)", "B3": "=COUNT(B2)"})
    w.recalculate()
    assert counter[0] == 3
    w.set_cell(a1("S", "A1"), "5")
    w.recalculate()
    assert counter[0] == 4
    w.recalculate()
    assert counter[0] == 4
    assert w.get_value(a1("S", "A2")) == Number(5.0)


def _counting_workbook():
    """A workbook whose COUNT(x) returns x and counts its evaluations."""
    counter = [0]

    def tick(args, rt):
        counter[0] += 1
        return args[0]

    reg = default_registry().clone()
    reg.register(Builtin("COUNT", 1, 1, tick))
    w = Workbook(registry=reg)
    w.add_sheet("S")
    w.add_sheet("F", kind="function")
    return w, counter


def test_redefinition_that_keeps_values_stops_at_the_callers():
    w, counter = _counting_workbook()
    fill(w, "F", {"B1": "0", "B2": "=B1*2", "B3": '=DEFINE("DBL", B2, B1)'})
    fill(w, "S", {"A1": "=COUNT(DBL(3))", "A2": "=COUNT(A1+1)",
                  "A3": "=COUNT(A2*2)", "B1": '=COUNT(APPLY(CLOSURE("DBL", 4)))',
                  "B2": "=COUNT(B1)", "C1": "=COUNT(5)"})
    w.recalculate()
    assert counter[0] == 6
    w.set_cell(a1("F", "B2"), "=2*B1")
    w.recalculate()
    assert counter[0] == 8          # A1 and B1 call DBL; nothing reads more
    assert [w.get_value(a1("S", r)).value for r in ("A3", "B2")] == [14, 8]
    w.set_cell(a1("F", "B2"), "=3*B1")
    w.recalculate()
    assert counter[0] == 13         # new values reach every reader
    assert [w.get_value(a1("S", r)).value for r in ("A3", "B2")] == [20, 12]


def test_an_unchanged_value_stops_the_recalculation():
    w, counter = _counting_workbook()
    fill(w, "S", {"A1": "2", "A2": "=COUNT(A1)*0", "A3": "=COUNT(A2)+1",
                  "B1": "1", "B2": "=COUNT(IF(B1>0, 7, A1))",
                  "B3": "=COUNT(B2)+1"})
    w.recalculate()
    assert counter[0] == 4
    w.set_cell(a1("S", "A1"), "2.0")    # equal bit for bit: reaches nothing
    w.recalculate()
    assert counter[0] == 4
    w.set_cell(a1("S", "A1"), "3")      # A2 stays 0, so A3 is kept
    w.recalculate()
    assert counter[0] == 5
    w.set_cell(a1("S", "B1"), "2")      # the IF takes the same branch
    w.recalculate()
    assert counter[0] == 6
    assert w.get_value(a1("S", "B3")) == Number(8.0)
    w.set_cell(a1("S", "B1"), "0")      # now it reads A1
    w.recalculate()
    assert counter[0] == 8
    assert w.get_value(a1("S", "B3")) == Number(4.0)
    w.set_cell(a1("S", "A2"), "=0*COUNT(A1)")   # a formula with the same value
    w.recalculate()
    assert counter[0] == 9
    assert w.get_value(a1("S", "A3")) == Number(1.0)


def test_signed_zero_is_a_change():
    w, counter = _counting_workbook()
    fill(w, "S", {"A1": "0", "A2": "=COUNT(A1)", "A3": "=COUNT(A2)"})
    w.recalculate()
    w.set_cell(a1("S", "A1"), "-0")
    w.recalculate()
    assert counter[0] == 4
    assert math.copysign(1.0, w.get_value(a1("S", "A3")).value) == -1.0


def test_a_cell_read_by_many_formulas_keeps_its_readers_in_a_set(wb):
    fill(wb, "S", {"A1": "1", **{f"B{k}": f"=A1*{k}" for k in range(1, 21)}})
    wb.recalculate()
    hub = wb.sheets["S"].cells[(1, 1)]
    assert type(hub.readers) is set and len(hub.readers) == 20
    # A reader overwritten with a constant leaves the set.
    fill(wb, "S", {f"B{k}": "0" for k in range(1, 11)})
    assert len(hub.readers) == 10
    wb.set_cell(a1("S", "A1"), "3")
    wb.recalculate()
    assert wb.get_value(a1("S", "B11")) == Number(33.0)
    assert wb.get_value(a1("S", "B20")) == Number(60.0)
    assert {wb.get_value(a1("S", f"B{k}")).value for k in range(1, 11)} == {0}
    _check_edges(wb)


def test_a_large_recalculation_ends_with_a_young_collection(monkeypatch):
    # The collection falls here instead of in the next operation that
    # allocates; a recalculation of at most _COLLECT_AFTER cells skips it.
    collected = []
    monkeypatch.setattr(engine, "gc", SimpleNamespace(collect=collected.append))
    for n, want in ((engine._COLLECT_AFTER, []),
                    (engine._COLLECT_AFTER + 1, [0])):
        w = make_wb()
        fill(w, "S", {f"A{i}": "=1" for i in range(1, n + 1)})
        w.recalculate()
        assert collected == want


def test_compiled_rand_keeps_its_caller_volatile():
    w = make_wb({"B1": "1", "B2": "1",
                 "B3": "=IF(RAND()<B1, B2, EXPSAMPLE(B1, B2+1))",
                 "B4": '=DEFINE("EXPSAMPLE", B3, B1, B2)'}, seed=3)
    fill(w, "S", {"A1": "=EXPSAMPLE(0.5, 1)", "A2": "=A1*0"})
    seen = set()
    for _ in range(12):
        w.recalculate()
        seen.add(w.get_value(a1("S", "A1")).value)
    assert len(seen) > 1


def test_rand_draws_match_a_full_recalculation():
    # A2 reads the RAND cell below it, so that cell draws out of row order;
    # C1 draws through EXPSAMPLE's compiled body.
    cells = {("F", "B1"): "1", ("F", "B2"): "1",
             ("F", "B3"): "=IF(RAND()<B1, B2, EXPSAMPLE(B1, B2+1))",
             ("F", "B4"): '=DEFINE("EXPSAMPLE", B3, B1, B2)',
             ("S", "A1"): "=RAND()", ("S", "A2"): "=A4+B1",
             ("S", "A3"): "=RAND()*B1", ("S", "A4"): "=RAND()",
             ("S", "B1"): "2", ("S", "B2"): "=B1*3",
             ("S", "C1"): "=EXPSAMPLE(0.3, 1)", ("S", "C2"): "=RAND()+C1"}
    refs = ["A1", "A2", "A3", "A4", "B2", "C1", "C2"]
    inc, full = _load(dict(cells), seed=11), _load(dict(cells), seed=11)
    rng = random.Random(5)
    for _ in range(8):
        value = str(rng.randint(1, 9))
        inc.set_cell(a1("S", "B1"), value)
        cells[("S", "B1")] = value
        inc.recalculate()
        for (sheet, ref), text in cells.items():    # every cell changes
            full.set_cell(a1(sheet, ref), text)
        full.recalculate()
        assert _grid(inc, refs) == _grid(full, refs)


def test_rand_draws_in_row_order():
    # A1 reads A3, so A3 draws first; then B1, then A2.  Each
    # recalculation draws again in that order, whatever else it skips.
    w = Workbook(seed=7)
    w.add_sheet("S")
    fill(w, "S", {"A1": "=A3", "B1": "=RAND()", "A2": "=RAND()",
                  "A3": "=RAND()", "C3": "1", "C4": "=C3*2"})
    rng = SplitMix64(7)
    for value in ("2", "3", "4"):
        w.recalculate()
        want = [rng.next_double() for _ in range(3)]
        got = [w.get_value(a1("S", r)).value for r in ("A3", "B1", "A2")]
        assert got == want
        w.set_cell(a1("S", "C3"), value)


# --- deep chains and cycles -------------------------------------------------

def test_deep_chain_at_the_default_recursion_limit():
    limit = sys.getrecursionlimit()
    n = 100_000
    w = Workbook()
    w.add_sheet("S")
    for i in range(1, n):
        w.set_cell(CellAddr("S", 1, i), f"=A{i + 1}+1")
    w.set_cell(CellAddr("S", 1, n), "1")
    w.recalculate()
    assert w.get_value(CellAddr("S", 1, 1)) == Number(float(n))
    assert sys.getrecursionlimit() == limit
    # An edit at the bottom reaches the top through the same path.
    w.set_cell(CellAddr("S", 1, n), "2")
    w.recalculate()
    assert w.get_value(CellAddr("S", 1, 1)) == Number(float(n + 1))
    assert sys.getrecursionlimit() == limit
    # An edit that keeps the value: every other cell is verified, from the
    # top down, and none is evaluated.
    w.set_cell(CellAddr("S", 1, n - 1), f"=1+A{n}")
    w.recalculate()
    assert w.get_value(CellAddr("S", 1, 1)) == Number(float(n + 1))
    assert sys.getrecursionlimit() == limit


def _rand_chain(w: Workbook, col: str, n: int) -> None:
    for i in range(1, n):
        w.set_cell(a1("S", f"{col}{i}"), f"=RAND()+{col}{i + 1}*0")
    w.set_cell(a1("S", f"{col}{n}"), "=RAND()")


def test_deep_chain_retry_draws_each_number_once():
    # The chain is too deep for the stack: attempts cut off by it are
    # retried, and the generator goes back to where each attempt began.
    n = 1000
    w = Workbook(seed=3)
    w.add_sheet("S")
    _rand_chain(w, "B", n)
    w.set_cell(a1("S", "A1"), "=B1*0+C1")   # reads the chain first
    w.set_cell(a1("S", "C1"), "1")
    rng = SplitMix64(3)
    for _ in range(3):
        # The first recalculation reaches the chain by evaluating A1, the
        # others by verifying it.
        w.recalculate()
        for _ in range(n):
            rng.next_u64()
        assert w.rng.state == rng.state
        drawn = {w.get_value(a1("S", f"B{i}")).value for i in range(1, n + 1)}
        assert len(drawn) == n
        assert w.get_value(a1("S", "A1")) == Number(1.0)


def test_deep_chain_retry_undoes_what_the_attempt_computed():
    # Each chain cell also reads a RAND cell beside it, which a cut-off
    # attempt has already computed: it draws again in the retry, so every
    # number is still drawn once and no two cells share one.
    n = 500
    w = Workbook(seed=4)
    w.add_sheet("S")
    for i in range(1, n + 1):
        below = f"+A{i + 1}*0" if i < n else ""
        w.set_cell(a1("S", f"A{i}"), f"=RAND()+B{i}{below}")
        w.set_cell(a1("S", f"B{i}"), "=RAND()")
    rng = SplitMix64(4)
    for _ in range(2):
        w.recalculate()
        for _ in range(2 * n):
            rng.next_u64()
        assert w.rng.state == rng.state
        drawn = {w.get_value(a1("S", f"{c}{i}")).value
                 for c in "AB" for i in range(1, n + 1)}
        assert len(drawn) == 2 * n


def test_deep_chain_read_outside_a_recalculation():
    w = Workbook()
    w.add_sheet("S")
    for i in range(1, 3000):
        w.set_cell(CellAddr("S", 1, i), f"=A{i + 1}+1")
    assert w.eval_formula("=A1*2", "S") == Number(2 * 2999.0)


@pytest.mark.parametrize("n", [150, 5000])
def test_long_cycle_ends_with_cycle_errors(n):
    # 5,000 cells do not fit on the stack: cells waiting for a retry must
    # read as in flight, or the cycle is never closed.
    w = Workbook()
    w.add_sheet("S")
    for i in range(1, n + 1):
        w.set_cell(CellAddr("S", 1, i), f"=A{i % n + 1}+1")
    w.recalculate()
    assert all(w.get_value(CellAddr("S", 1, i)) is ERROR_CYCLE
               for i in range(1, n + 1))


def test_deep_chain_of_nested_formulas():
    # Each cell costs several Python frames; no fixed count of nested
    # cells would fit them all on the stack.
    w = Workbook()
    w.add_sheet("S")
    for i in range(1, 3000):
        w.set_cell(CellAddr("S", 1, i), f"=((((A{i + 1}+1)+1)+1)+1)")
    w.recalculate()
    assert w.get_value(CellAddr("S", 1, 1)) == Number(4.0 * 2999)


def test_two_cell_cycle_as_a_full_recalculation(wb):
    # Which member reads #CYCLE! depends on where the cycle is entered;
    # each recalculation enters it where a recalculation of every cell
    # would (the values are those of the whole-sheet recalculation).
    fill(wb, "S", {"C1": "=IF(ISERROR(C2), 7, 1)", "C2": "=C1+1",
                   "B1": "=B2+1", "B2": "=B1+1"})
    refs = ["C1", "C2", "B1", "B2"]
    wb.recalculate()
    assert [display(wb.get_value(a1("S", r))) for r in refs] == [
        "7", "#CYCLE!", "#CYCLE!", "#CYCLE!"]
    wb.set_cell(a1("S", "A1"), "=C2")      # now the cycle is entered at C2
    wb.recalculate()
    assert [display(wb.get_value(a1("S", r))) for r in ["A1"] + refs] == [
        "8", "7", "8", "#CYCLE!", "#CYCLE!"]
    wb.set_cell(a1("S", "A1"), "5")
    wb.recalculate()
    assert [display(wb.get_value(a1("S", r))) for r in refs] == [
        "7", "#CYCLE!", "#CYCLE!", "#CYCLE!"]


def test_recalculation_resumes_after_an_exception():
    fail = [True]

    def once(args, rt):
        if fail[0]:
            fail[0] = False
            raise RuntimeError("once")
        return args[0]

    reg = default_registry().clone()
    reg.register(Builtin("ONCE", 1, 1, once))
    w = Workbook(registry=reg)
    w.add_sheet("S")
    fill(w, "S", {"A1": "=ONCE(2)", "A2": "=RAND()", "A3": "=RAND()"})
    with pytest.raises(RuntimeError):
        w.recalculate()
    w.recalculate()                 # evaluates A1, A2, A3 in row order
    rng = SplitMix64(0)
    a2, a3 = rng.next_double(), rng.next_double()
    assert [w.get_value(a1("S", r)) for r in ("A3", "A2", "A1")] == [
        Number(a3), Number(a2), Number(2.0)]
