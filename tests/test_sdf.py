"""Function definition pipeline: resolution, inlining, guards, laziness."""

import pytest

from sheetfun import Number, Text, Workbook
from sheetfun.formula import parse_formula
from sheetfun.sdf import DefineError, build_body, canonical_name, _resolve
from sheetfun.values import (
    ERROR_DIV0, ERROR_NAME, ERROR_NUM, ERROR_VALUE, ErrorValue, HOLE, display,
    literal,
)
from sheetfun import codegen, sdf, values
from sheetfun.sdf import SdfInfo

from conftest import a1, call, fill, wrap


ERR_DEFINE = ErrorValue.intern("#ERR:DEFINE")


def cell_lines(info):
    return [ln for ln in info.compiled.listing.splitlines()
            if ln.startswith(".cell")]


# --- pipeline shape ----------------------------------------------------------

def test_single_use_cell_is_inlined(define):
    w = define({
        "B1": "0",
        "B2": "=B1+1",
        "B3": "=B2*2",
        "B4": '=DEFINE("INL", B3, B1)',
    })
    info = w.function_table.get(w.function_table.lookup_name("INL"))
    assert info.compiled.n_slots == 0
    assert cell_lines(info) == []
    assert call(w, "INL", 5) == Number(12.0)


def test_multi_use_cell_keeps_a_slot(define):
    w = define({
        "B1": "0",
        "B2": "=B1+1",
        "B3": "=B2*B2",
        "B4": '=DEFINE("SQ1", B3, B1)',
    })
    info = w.function_table.get(w.function_table.lookup_name("SQ1"))
    assert info.compiled.n_slots == 1
    lines = cell_lines(info)
    assert len(lines) == 1 and "numeric" in lines[0]
    assert call(w, "SQ1", 5) == Number(36.0)


def test_listing_header_format(define):
    w = define({
        "B1": "0",
        "B2": "=B1*3",
        "B3": '=DEFINE("TRIPLE", B2, B1)',
    })
    info = w.function_table.get(w.function_table.lookup_name("TRIPLE"))
    head = info.compiled.listing.splitlines()[0]
    assert head == (f"func TRIPLE id={info.id} params=1 "
                    f"slots={info.compiled.n_slots} "
                    f"memo={info.compiled.n_memo}")
    assert any(ln.startswith(".out") for ln in
               info.compiled.listing.splitlines())


def test_inlining_off_same_values():
    w = Workbook()
    table, reg = w.function_table, w.registry
    texts = {
        "B1": None,                       # input
        "B2": "=B1+1",
        "B3": "=B2*2",
        "B4": "=B3-B1",
    }
    parsed = {}
    for ref, src in texts.items():
        if src is None:
            continue
        key = (a1("F", ref).col, a1("F", ref).row)
        parsed[key] = _resolve(parse_formula(src), "F", table, reg)

    def load(key):
        return parsed[key]

    out = (a1("F", "B4").col, a1("F", "B4").row)
    ins = {(a1("F", "B1").col, a1("F", "B1").row)}
    body = build_body(load, out, ins)
    assert len(body) == 1       # B2 and B3 are inlined into the output

    fn_id = table.fresh_id()
    info = SdfInfo(fn_id, f"T{fn_id}", [a1("F", "B1").local()], body,
                   origin="define")
    info.compiled = codegen.compile_function(info, reg)
    table.install(info)
    for x in (-3.0, 0.0, 2.5, 41.0):
        assert table.call(fn_id, [Number(x)], w) == Number((x + 1) * 2 - x)


def test_a_body_reads_its_own_sheet(define):
    # F!K1 names a cell of the body's own sheet, and the empty B9 reads 0.
    w = define({
        "B1": "0", "K1": "=B1+1",
        "B2": '=F!K1*2+B9',
        "B3": '=B9&"x"',
        "B4": '=DEFINE("OWN", B2, B1)',
        "B5": '=DEFINE("EMPTY", B3, B1)',
    })
    assert call(w, "OWN", 1) == Number(4.0)
    assert call(w, "EMPTY", 1) == Text("0x")


def test_output_may_be_an_input(define):
    w = define({"B1": "0", "B2": '=DEFINE("IDF", B1, B1)'})
    info = w.function_table.get(w.function_table.lookup_name("IDF"))
    assert info.compiled.n_slots == 0
    assert call(w, "IDF", 7) == Number(7.0)
    assert call(w, "IDF", "x") == Text("x")


# --- recursion ---------------------------------------------------------------

def test_factorial_recursion(define):
    w = define({
        "B1": "0",
        "B2": "=IF(B1=0, 1, B1*FAC(B1-1))",
        "B3": '=DEFINE("FAC", B2, B1)',
    })
    import math
    for n in range(11):
        assert call(w, "FAC", n) == Number(float(math.factorial(n)))


def test_string_repeat_matches_python(define):
    # Repeat by halving: REPT4(s,n) = "" if n=0 else d&d (&s if n odd)
    # where d = REPT4(s, n//2).
    w = define({
        "B66": "0", "B67": "0",
        "B68": "=REPT4(B66, QUOTIENT(B67,2))",
        "B69": '=IF(B67=0, "", IF(MOD(B67,2)=0, B68&B68, B68&B68&B66))',
        "B70": '=DEFINE("REPT4", B69, B66, B67)',
    })
    for n in range(65):
        assert call(w, "REPT4", "ab", n) == Text("ab" * n)


# --- closures ----------------------------------------------------------------

def test_closure_partial_application(define):
    w = define({
        "B1": "0", "B2": "0",
        "B3": "=B1+B2",
        "B4": '=DEFINE("ADD", B3, B1, B2)',
    })
    fv = w.eval_formula('=CLOSURE("ADD", 1, #NA)', "S")
    assert fv.arity == 1
    assert display(fv) == "ADD(1,#NA)"
    assert w.eval_formula('=APPLY(CLOSURE("ADD", 1, #NA), 41)', "S") \
        == Number(42.0)
    assert w.eval_formula('=APPLY(CLOSURE("ADD", #NA, #NA), 2, 3)', "S") \
        == Number(5.0)
    # Closing over a closure takes one argument per open hole.
    assert w.eval_formula(
        '=APPLY(CLOSURE(CLOSURE("ADD", #NA, #NA), 40, #NA), 2)', "S") \
        == Number(42.0)


def test_closure_arity_and_name_errors(define):
    w = define({
        "B1": "0", "B2": "0",
        "B3": "=B1+B2",
        "B4": '=DEFINE("ADD", B3, B1, B2)',
    })
    assert w.eval_formula('=CLOSURE("ADD", 1)', "S") is ERROR_VALUE
    assert w.eval_formula('=CLOSURE("ADD", 1, 2, 3)', "S") is ERROR_VALUE
    assert w.eval_formula('=CLOSURE("NOPE", 1)', "S") is ERROR_NAME
    assert w.eval_formula('=APPLY(CLOSURE("ADD", 1, #NA), 1, 2)', "S") \
        is ERROR_VALUE
    assert w.eval_formula('=APPLY(5, 1)', "S") is ERROR_VALUE


def test_closure_late_binding_across_redefine(define):
    w = define({
        "B1": "0",
        "B2": "=B1*2",
        "B3": '=DEFINE("DOUBLE", B2, B1)',
    })
    fn_id = w.function_table.lookup_name("DOUBLE")
    fv = w.eval_formula('=CLOSURE("DOUBLE", #NA)', "S")
    assert w.function_table.apply(fv, [Number(10.0)], w) == Number(20.0)
    # Redefinition keeps the id, so the old closure sees the new body.
    fill(w, "F", {"B2": "=B1*3"})
    w.recalculate()
    assert w.function_table.lookup_name("DOUBLE") == fn_id
    assert w.function_table.apply(fv, [Number(10.0)], w) == Number(30.0)
    assert w.eval_formula("=DOUBLE(7)", "S") == Number(21.0)


def test_call_unknown_id_and_bad_arity(define):
    # A missing target is #NAME? and a wrong argument count #VALUE!: in
    # the interpreter, in a compiled body and in a residual.
    w = define({
        "B1": "0", "B2": "=B1*10", "B3": '=DEFINE("ONE", B2, B1)',
        "C1": "0", "C2": "=ONE(C1, 2)", "C3": '=DEFINE("BAD", C2, C1)',
        "D1": "0", "D2": "=NOPE(D1)", "D3": '=DEFINE("UND", D2, D1)',
    })
    table = w.function_table
    assert table.call(9999, [], w) is ERROR_NAME
    assert table.call(table.lookup_name("ONE"), [Number(1.0)] * 2, w) \
        is ERROR_VALUE
    assert w.eval_formula("=ONE(1, 2)", "S") is ERROR_VALUE
    assert w.eval_formula("=NOPE(1)", "S") is ERROR_NAME
    for name, want in (("BAD", ERROR_VALUE), ("UND", ERROR_NAME)):
        assert call(w, name, 1) is want
        fv = w.eval_formula(f'=SPECIALIZE(CLOSURE("{name}", 1))', "S")
        assert fv.target != table.lookup_name(name)
        assert table.apply(fv, [], w) is want


# --- definition errors -------------------------------------------------------

def test_duplicate_inputs_rejected(wb):
    fill(wb, "F", {
        "B1": "0",
        "B2": "=B1",
        "B3": '=DEFINE("DUP", B2, B1, B1)',
    })
    wb.recalculate()
    assert wb.get_value(a1("F", "B3")) == ERR_DEFINE
    assert any("duplicate" in d for d in wb.diagnostics)


def test_static_cycle_rejected_with_path(wb):
    fill(wb, "F", {
        "B1": "0",
        "B2": "=B3+1",
        "B3": "=B2+1",
        "B4": "=B2",
        "B5": '=DEFINE("CYC", B4, B1)',
    })
    wb.recalculate()
    assert wb.get_value(a1("F", "B5")) == ERR_DEFINE
    assert any("cycle" in d and "B2" in d and "B3" in d
               for d in wb.diagnostics)


def test_local_area_in_body_rejected(wb):
    fill(wb, "F", {
        "B1": "0",
        "B2": "=SUM(B5:B6)",
        "B3": '=DEFINE("AREA", B2, B1)',
    })
    wb.recalculate()
    assert wb.get_value(a1("F", "B3")) == ERR_DEFINE
    assert any("area" in d for d in wb.diagnostics)


def test_failed_define_does_not_bind_name(wb):
    fill(wb, "F", {
        "B1": "0",
        "B2": "=B2",
        "B3": '=DEFINE("SELFY", B2, B1)',
    })
    wb.recalculate()
    assert wb.get_value(a1("F", "B3")) == ERR_DEFINE
    assert wb.function_table.lookup_name("SELFY") is None
    assert wb.eval_formula("=SELFY(1)", "S") is ERROR_NAME


@pytest.mark.parametrize("name", ["SQRT", "sqrt", "DEFINE", "IF", "CHOOSE",
                                  "AND", "OR", "NOT", "CLOSURE", "APPLY"])
def test_builtin_names_cannot_be_defined(wb, name):
    # A call by such a name reaches the builtin or the parser's own form,
    # never the defined function, so DEFINE refuses it and reserves no id.
    fill(wb, "F", {"B1": "0", "B2": "=B1*100",
                   "B3": f'=DEFINE("{name}", B2, B1)'})
    wb.recalculate()
    assert wb.get_value(a1("F", "B3")) == ERR_DEFINE
    assert any("builtin" in d for d in wb.diagnostics)
    with pytest.raises(DefineError, match="builtin"):
        sdf.define(wb, name, a1("F", "B2"), [a1("F", "B1")])
    assert wb.function_table.lookup_name(name) is None
    assert wb.function_table.items() == []
    assert wb.eval_formula(f'=APPLY(CLOSURE("{name}", #NA), 4)',
                           "S") is ERROR_NAME


def test_define_of_sqrt_leaves_the_builtin_alone(wb):
    fill(wb, "F", {"B1": "0", "B2": "=B1*100",
                   "B3": '=DEFINE("SQRT", B2, B1)'})
    fill(wb, "S", {"A1": "=SQRT(4)"})
    wb.recalculate()
    assert wb.get_value(a1("S", "A1")) == Number(2.0)


# --- evaluation conditions ---------------------------------------------------

def test_guard_skips_poisonous_cell(define):
    w = define({
        "B1": "0",
        "B2": "=1/0",
        "B3": "=IF(B1>0, B2+B2, 7)",
        "B4": '=DEFINE("GRD", B3, B1)',
    })
    info = w.function_table.get(w.function_table.lookup_name("GRD"))
    assert any("guarded" in ln for ln in cell_lines(info))
    assert call(w, "GRD", -1) == Number(7.0)
    assert call(w, "GRD", 1) is ERROR_DIV0


def test_guard_on_another_sheets_cell(define):
    w = define({
        "B1": "0",
        "B3": "=B1*2",
        "B4": "=IF(S!A1, B3+B3, 0)",
        "B5": '=DEFINE("NR", B4, B1)',
    })
    info = w.function_table.get(w.function_table.lookup_name("NR"))
    assert any("guarded" in ln for ln in cell_lines(info))
    assert call(w, "NR", 5) == Number(0.0)
    fill(w, "S", {"A1": "1"})
    w.recalculate()
    assert call(w, "NR", 5) == Number(20.0)


def test_error_guard_suppresses_cell(define):
    # A cell referenced only under a failing guard never runs; the guard's
    # own error decides the result instead.
    w = define({
        "B1": "0",
        "B2": "=SQRT(-1)",
        "B3": "=IF(1/B1>1, B2+B2, 5)",
        "B4": '=DEFINE("GE", B3, B1)',
    })
    assert call(w, "GE", 0) is ERROR_DIV0    # not ERROR_NUM
    assert call(w, "GE", 0.5) is ERROR_NUM
    assert call(w, "GE", 2) == Number(5.0)


def test_condition_position_is_always_evaluated(define):
    w = define({
        "B1": "0",
        "B2": "=B1*B1",
        "B3": "=IF(B2, B2, 5)",
        "B4": '=DEFINE("CPOS", B3, B1)',
    })
    info = w.function_table.get(w.function_table.lookup_name("CPOS"))
    lines = cell_lines(info)
    assert len(lines) == 1 and "guarded" not in lines[0]
    assert call(w, "CPOS", 3) == Number(9.0)
    assert call(w, "CPOS", 0) == Number(5.0)


def test_choose_branch_guards(define):
    w = define({
        "B1": "0",
        "B2": "=1/0",
        "B3": "=2/0",
        "B4": "=CHOOSE(B1, B2+B2, B3+B3, 9)",
        "B5": '=DEFINE("CH", B4, B1)',
    })
    info = w.function_table.get(w.function_table.lookup_name("CH"))
    assert sum("guarded" in ln for ln in cell_lines(info)) == 2
    assert call(w, "CH", 3) == Number(9.0)
    assert call(w, "CH", 1) is ERROR_DIV0
    assert call(w, "CH", 0) is ERROR_VALUE


def test_and_or_prefix_guards(define):
    # In AND(a, b) the second conjunct only runs when the first held, so a
    # poisonous cell used there is skipped when the first conjunct is 0.
    w = define({
        "B1": "0",
        "B2": "=1/0",
        "B3": "=AND(B1>0, B2+B2)",
        "B4": '=DEFINE("ANDG", B3, B1)',
    })
    info = w.function_table.get(w.function_table.lookup_name("ANDG"))
    assert any("guarded" in ln for ln in cell_lines(info))
    assert call(w, "ANDG", -1) == Number(0.0)
    assert call(w, "ANDG", 1) is ERROR_DIV0


def test_guard_dependency_knot_goes_lazy(define):
    # M's condition mentions K and K's mentions M, so no eager order exists;
    # both cells drop to on-demand thunks.
    w = define({
        "B1": "0",
        "B2": "=B1*2",
        "B3": "=B1+10",
        "B4": "=IF(B1, IF(B2=1, B3, 2), IF(B3=1, B2, 3))",
        "B5": '=DEFINE("KNOT", B4, B1)',
    })
    info = w.function_table.get(w.function_table.lookup_name("KNOT"))
    assert sum("lazy" in ln for ln in cell_lines(info)) == 2
    assert call(w, "KNOT", 0.5) == Number(10.5)   # true arm, B2=1
    assert call(w, "KNOT", 3) == Number(2.0)      # true arm, B2<>1
    assert call(w, "KNOT", 0) == Number(3.0)      # false arm, B3<>1
    assert call(w, "KNOT", -9) == Number(2.0)     # true arm again, B2=-18


@pytest.mark.parametrize("b4", ["=IF(B2, B3, 0)+IF(B1, B3, 1)",
                                "=IF(B2, B3, 0)+IF(B1, B3, 1)+IF(B1, 0, B3)",
                                "=AND(B2, B3)&IF(B1, B3, 1)"])
def test_guard_error_on_one_path_keeps_the_other(define, b4):
    # B3 is needed when B1 holds, whatever B2 is: an error or text in B2
    # only means that the paths through B2 are not taken.
    cells = {"B1": "0", "B2": "0", "B3": "=B1*2", "B4": b4}
    w = define(dict(cells, B5='=DEFINE("TWOPATH", B4, B1, B2)'))
    # The guard is compiled once: no ISERROR around a path, one
    # computation per memo, and no boxing beyond the body's own.
    compiled = w.function_table.get(
        w.function_table.lookup_name("TWOPATH")).compiled
    lines = compiled.listing.splitlines()
    assert not any("ISERROR" in ln for ln in lines)
    for k in range(compiled.n_memo):
        assert lines.count(f"  memo {k} <-") == 1, k
    boxed = []
    values.set_box_hook(boxed.append)
    try:
        call(w, "TWOPATH", 5, 1)
    finally:
        values.set_box_hook(None)
    assert len(boxed) == {"=IF(B2, B3, 0)+IF(B1, B3, 1)": 1,
                          "=IF(B2, B3, 0)+IF(B1, B3, 1)+IF(B1, 0, B3)": 1,
                          "=AND(B2, B3)&IF(B1, B3, 1)": 2}[b4]
    for x, y in ((5, ERROR_DIV0), (5, Text("t")), (5, 1), (0, ERROR_DIV0)):
        fill(w, "S", dict(cells, B1=str(x), B2=literal(wrap(y))))
        w.recalculate()
        want = w.get_value(a1("S", "B4"))
        assert call(w, "TWOPATH", x, y) == want, (x, y)
    fv = w.eval_formula('=SPECIALIZE(CLOSURE("TWOPATH", #NA, 1/0))', "S")
    assert fv.arity == 1
    assert w.function_table.apply(fv, [Number(5.0)], w) == \
        call(w, "TWOPATH", 5, ERROR_DIV0)


# --- names -------------------------------------------------------------------

def test_canonical_name_uppercases_simple_names():
    assert canonical_name("fac") == "FAC"
    assert canonical_name("my.fn_2") == "MY.FN_2"
    # Decorated residual names pass through untouched.
    assert canonical_name("FAC(1,#NA)#7") == "FAC(1,#NA)#7"


def test_lowercase_call_and_define_agree(define):
    w = define({
        "B1": "0",
        "B2": "=B1+1",
        "B3": '=DEFINE("bump", B2, B1)',
    })
    assert w.eval_formula("=bump(4)", "S") == Number(5.0)
    assert w.eval_formula("=BUMP(4)", "S") == Number(5.0)
    table = w.function_table
    fn_id = table.lookup_name("BUMP")
    assert fn_id is not None
    assert table.lookup_name("bump") == table.lookup_name("Bump") == fn_id
