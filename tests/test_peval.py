"""Online specialization: folding, simplification, caching, budgets."""

import itertools
import math
import random

import pytest

from sheetfun import Number, Text, Workbook, peval
from sheetfun.engine import Builtin, SplitMix64, default_registry
from sheetfun.values import (
    ERROR_DIV0, ERROR_NA, ERROR_NAME, ERROR_VALUE, FunctionValue, HOLE,
    literal, value_key,
)

from conftest import (
    ACKA_CELLS, EXPSAMPLE_CELLS, FACD_CELLS, MONTHLEN_CELLS, REPT4_CELLS,
    a1, call, fill, make_wb, wrap,
)
from test_operators import POOL


def apply(w, fv, *xs):
    return w.function_table.apply(fv, [wrap(x) for x in xs], w)


def spec(w, formula):
    fv = w.eval_formula(formula, "S")
    assert type(fv) is FunctionValue, fv
    return fv


def out_ir(w, fv):
    return w.function_table.get(fv.target).compiled.out_ir


def listing(w, fv):
    return w.function_table.get(fv.target).compiled.listing


def fn_count(w):
    return len(w.function_table.items())


# --- folding -----------------------------------------------------------------

def test_monthlen_residuals_agree_with_original():
    w = make_wb(MONTHLEN_CELLS)
    by_month = spec(w, '=SPECIALIZE(CLOSURE("MONTHLEN", 2012, #NA))')
    assert by_month.arity == 1
    assert by_month.name.startswith("MONTHLEN(2012,#NA)#")
    by_year = spec(w, '=SPECIALIZE(CLOSURE("MONTHLEN", #NA, 2))')
    assert by_year.arity == 1
    for m in range(1, 13):
        assert apply(w, by_month, m) == call(w, "MONTHLEN", 2012, m)
    for y in (1896, 1900, 1999, 2000, 2012, 2013, 2100):
        assert apply(w, by_year, y) == call(w, "MONTHLEN", y, 2)
    assert apply(w, by_year, 2000) == Number(29.0)
    assert apply(w, by_year, 1900) == Number(28.0)


def test_all_static_recursion_folds_to_constants():
    w = make_wb(FACD_CELLS)
    before = fn_count(w)
    fv = spec(w, '=SPECIALIZE(CLOSURE("FACD", 5))')
    assert fv.arity == 0
    assert fv.name.startswith("FACD(5)#")
    assert out_ir(w, fv) == ["const 120", "box", "return"]
    # One residual per count 5..0, each already folded to its constant.
    assert fn_count(w) - before == 6
    three = next(i for i in w.function_table.items()
                 if i.name.startswith("FACD(3)#"))
    assert three.compiled.out_ir == ["const 6", "box", "return"]
    assert w.eval_formula('=APPLY(SPECIALIZE(CLOSURE("FACD", 5)))', "S") \
        == Number(120.0)


def test_static_error_branch_becomes_the_result():
    w = make_wb({
        "B1": "0", "B2": "0",
        "B3": "=IF(B2>0, B1, 1/0)",
        "B4": '=DEFINE("P", B3, B1, B2)',
    })
    fv = spec(w, '=SPECIALIZE(CLOSURE("P", #NA, -1))')
    assert out_ir(w, fv) == ["error #DIV/0!", "return"]
    assert apply(w, fv, 5) is ERROR_DIV0


def test_choose_with_static_index(define):
    w = define({
        "B1": "0", "B2": "0",
        "B3": "=CHOOSE(B2, B1+1, B1*2, 9)",
        "B4": '=DEFINE("CH", B3, B1, B2)',
    })
    doubled = spec(w, '=SPECIALIZE(CLOSURE("CH", #NA, 2))')
    assert out_ir(w, doubled) == ["arg 0", "unwrap", "const 2", "mul",
                                  "box", "return"]
    oob = spec(w, '=SPECIALIZE(CLOSURE("CH", #NA, 9))')
    assert apply(w, oob, 1) is ERROR_VALUE


def test_dynamic_if_keeps_both_branches(define):
    w = define({
        "B1": "0", "B2": "0",
        "B3": "=IF(B1>0, B1+B2, B1-B2)",
        "B4": '=DEFINE("P", B3, B1, B2)',
    })
    fv = spec(w, '=SPECIALIZE(CLOSURE("P", #NA, 3))')
    text = listing(w, fv)
    assert "add" in text and "sub" in text
    assert apply(w, fv, 5) == Number(8.0)
    assert apply(w, fv, -5) == Number(-8.0)


def test_pure_builtin_folds_static_arguments(define):
    w = define({
        "B1": "0", "B2": "0",
        "B3": "=B1+SQRT(B2)",
        "B4": '=DEFINE("P", B3, B1, B2)',
    })
    fv = spec(w, '=SPECIALIZE(CLOSURE("P", #NA, 16))')
    assert out_ir(w, fv) == ["arg 0", "unwrap", "const 4", "add",
                             "box", "return"]


@pytest.mark.parametrize("volatile", [False, True])
def test_builtin_folds_unless_volatile(volatile):
    calls = []

    def twice(args, rt):
        calls.append(args[0])
        return Number(args[0].value * 2)

    reg = default_registry().clone()
    reg.register(Builtin("TWICE", 1, 1, twice, volatile=volatile))
    w = make_wb({"B1": "0", "B2": "0", "B3": "=B1+TWICE(B2)",
                 "B4": '=DEFINE("P", B3, B1, B2)'}, registry=reg)
    fv = spec(w, '=SPECIALIZE(CLOSURE("P", #NA, 4))')
    folded = ["arg 0", "unwrap", "const 8", "add", "box", "return"]
    assert (out_ir(w, fv) == folded) != volatile
    assert ("call TWICE 1" in listing(w, fv)) == volatile
    calls.clear()
    assert apply(w, fv, 1) == apply(w, fv, 1) == Number(9.0)
    # A volatile builtin runs on every call of the residual.
    assert len(calls) == (2 if volatile else 0)


def test_volatile_builtin_survives_specialization():
    w = make_wb(EXPSAMPLE_CELLS)
    before = {i.id for i in w.function_table.items()}
    fv = spec(w, '=SPECIALIZE(CLOSURE("EXPSAMPLE", 0.15, 1))')
    assert fv.arity == 0
    assert fv.name.startswith("EXPSAMPLE(0.15,1)#")
    assert "RAND" in listing(w, fv)
    draws = [apply(w, fv) for _ in range(50)]
    assert len({d.value for d in draws}) > 1    # fresh randomness per call
    assert all(d.value >= 1 for d in draws)


def test_generalization_closes_the_sampler_chain():
    # The recursive call under RAND() bumps the counter, so its value is
    # generalized away; the whole specialization is the n=1 entry plus
    # one open-counter variant that calls itself.
    w = make_wb(EXPSAMPLE_CELLS)
    before = {i.id for i in w.function_table.items()}
    events = []
    w.specializer.trace = events.append
    spec(w, '=SPECIALIZE(CLOSURE("EXPSAMPLE", 0.15, 1))')
    new = [i for i in w.function_table.items() if i.id not in before]
    names = sorted(i.name.rsplit("#", 1)[0] for i in new)
    assert names == ["EXPSAMPLE(0.15,#NA)", "EXPSAMPLE(0.15,1)"]
    assert {"event": "generalize", "function": "EXPSAMPLE",
            "pattern": "(0.15,#NA)", "action": "widened from (0.15,2)"} \
        in events
    entry = next(i for i in new if "(0.15,1)" in i.name)
    open_n = next(i for i in new if "#NA" in i.name)
    assert f"fn#{open_n.id}" in entry.compiled.listing
    assert f"tailsdf fn#{open_n.id}" in open_n.compiled.listing


def test_a_residual_reads_sheet_cells_and_calls_when_it_runs(define):
    # S!A1 is read at call time, and ONE's arguments are all dynamic, so
    # its call stays as it is.
    w = define({
        "B1": "0", "B2": "=B1*10", "B3": '=DEFINE("ONE", B2, B1)',
        "E1": "0", "E2": "0", "E3": "=E1+S!A1+ONE(E2)",
        "E4": '=DEFINE("RS", E3, E1, E2)',
    })
    fv = spec(w, '=SPECIALIZE(CLOSURE("RS", 1, #NA))')
    assert "getcell S!A1" in listing(w, fv)
    for a in (5, 7):
        fill(w, "S", {"A1": str(a)})
        w.recalculate()
        assert apply(w, fv, 2) == call(w, "RS", 1, 2) == Number(21.0 + a)


def test_passthrough_output(define):
    w = define({
        "B1": "0", "B2": "0",
        "B3": '=DEFINE("FIRST", B1, B1, B2)',
    })
    fv = spec(w, '=SPECIALIZE(CLOSURE("FIRST", #NA, 5))')
    assert out_ir(w, fv) == ["arg 0", "return"]
    assert apply(w, fv, "t") == Text("t")


def test_apply_and_closure_fold_when_static(define):
    w = define({
        "B1": "0", "B2": "0",
        "B3": "=B1+B2",
        "B4": '=DEFINE("ADD", B3, B1, B2)',
        "C1": "0", "C2": "0",
        "C3": '=APPLY(CLOSURE("ADD", C2, #NA), C1)',
        "C4": '=DEFINE("G", C3, C1, C2)',
    })
    fv = spec(w, '=SPECIALIZE(CLOSURE("G", #NA, 1))')
    assert apply(w, fv, 41) == Number(42.0)
    names = [i.name for i in w.function_table.items()]
    assert any(n.startswith("ADD(1,#NA)#") for n in names)


# --- algebraic simplification ------------------------------------------------

ABS = ["arg 0", "call ABS 1", "return"]


def kept(op, k, right=True):
    """The residual listing of B1 op k (k op B1) when no rule fires."""
    x, c = ["arg 0", "unwrap"], [f"const {k}"]
    return (x + c if right else c + x) + [op, "box", "return"]


NEG_ADD = ["arg 0", "unwrap", "neg", "const 0", "add", "box", "return"]
ZERO_SUB_NEG = ["const 0", "arg 0", "unwrap", "neg", "sub", "box", "return"]
NEG_SUB = ["arg 0", "unwrap", "neg", "const 0", "sub", "box", "return"]

RULES = [
    # An argument may be text or a signed zero: no identity applies.
    ("=B1+B2", 0, kept("add", 0), 7.0),
    ("=B2+B1", 0, kept("add", 0, right=False), 7.0),
    ("=B1-B2", 0, kept("sub", 0), 7.0),
    ("=B2-B1", 0, kept("sub", 0, right=False), -7.0),
    ("=B1*B2", 1, kept("mul", 1), 7.0),
    ("=B2*B1", 1, kept("mul", 1, right=False), 7.0),
    # x*0 is #NA for x = #NA and -0 for a negative x: it stays.
    ("=B1*B2", 0, kept("mul", 0), 0.0),
    ("=B2*B1", 0, kept("mul", 0, right=False), 0.0),
    # x/1 and x^1 on an argument: no rule fires either.
    ("=B1/B2", 1, kept("div", 1), 7.0),
    ("=B1^B2", 1, kept("pow", 1), 7.0),
    # 1^x and x^0 are 1 for any operand, but they stay, as would x's draws.
    ("=B2^B1", 1, kept("pow", 1, right=False), 1.0),
    ("=B1^B2", 0, kept("pow", 0), 1.0),
    # On an operand known to be a number or an error the exact ones fire.
    ("=ABS(B1)-B2", 0, ABS, 7.0),
    ("=ABS(B1)*B2", 1, ABS, 7.0),
    ("=B2*ABS(B1)", 1, ABS, 7.0),
    ("=ABS(B1)/B2", 1, ABS, 7.0),
    ("=ABS(B1)^B2", 1, ABS, 7.0),
    # x+0, 0-x and x-(-0) turn a negative zero into 0, numeric or not.
    ("=-B1+B2", 0, NEG_ADD, -7.0),
    ("=B2--B1", 0, ZERO_SUB_NEG, 7.0),
    ("=(-B1)-B2", -0.0, NEG_SUB, -7.0),
]


@pytest.mark.parametrize("body,k,ir,expect", RULES)
def test_simplify_rule(body, k, ir, expect):
    w = make_wb({"B1": "0", "B2": "0", "B3": body,
                 "B4": '=DEFINE("P", B3, B1, B2)'})
    fv = spec(w, f'=SPECIALIZE(CLOSURE("P", #NA, {k}))')
    assert out_ir(w, fv) == ir
    assert apply(w, fv, 7) == Number(expect)
    for x in [7, 0, -0.0, -2.5, "abc", ERROR_NA]:
        assert value_key(apply(w, fv, x)) == value_key(call(w, "P", x, k))


@pytest.mark.parametrize("b3,fires", [("=B1+1", True), ('=B1&""', False)])
def test_identity_rule_on_a_residual_cell_reads_its_formula(b3, fires):
    w = make_wb({"B1": "0", "B2": "0", "B3": b3, "B4": "=(B3*B2)&B3",
                 "B5": '=DEFINE("P", B4, B1, B2)'})
    fv = spec(w, '=SPECIALIZE(CLOSURE("P", #NA, 1))')
    assert ("mul" not in out_ir(w, fv)) == fires
    assert apply(w, fv, 2) == call(w, "P", 2, 1)


@pytest.mark.parametrize("body,k", [("=RAND()^B1+RAND()", 0),
                                    ("=B1^RAND()+RAND()", 1)])
def test_a_power_that_is_always_one_keeps_its_random_draws(body, k):
    w = make_wb({"B1": "0", "B2": body, "B3": '=DEFINE("P", B2, B1)'})
    fv = spec(w, f'=SPECIALIZE(CLOSURE("P", {k}))')
    w.rng = SplitMix64(7)
    got = apply(w, fv)
    w.rng, after = SplitMix64(7), w.rng.state
    assert value_key(got) == value_key(call(w, "P", k))
    assert w.rng.state == after


G_CELLS = {"B1": "0", "B2": "0", "B3": "=IF(B1, 1, B2)",
           "B4": '=DEFINE("G", B3, B1, B2)'}


@pytest.mark.parametrize("cells", [
    {"C2": "=G(C1, RAND())+RAND()"},
    # The draw sits in a residual cell that only the dropped arguments read.
    {"C2": "=G(C1, C4)+G(C1, C4)+RAND()", "C4": "=RAND()"},
], ids=["argument", "cell"])
def test_a_call_that_folds_keeps_its_dropped_random_draws(cells):
    # G(1, b) is 1 whatever b is, but H's call of G still draws b.
    w = make_wb({**G_CELLS, "C1": "0", **cells,
                 "C3": '=DEFINE("H", C2, C1)'})
    fv = spec(w, '=SPECIALIZE(CLOSURE("H", 1))')
    w.rng = SplitMix64(7)
    got = apply(w, fv)
    w.rng, after = SplitMix64(7), w.rng.state
    assert value_key(got) == value_key(call(w, "H", 1))
    assert w.rng.state == after


def test_a_call_that_folds_drops_arguments_that_do_not_draw():
    w = make_wb({**G_CELLS, "C1": "0", "C2": "=G(C1, C4*2)+C4",
                 "C3": '=DEFINE("H", C2, C1, C4)', "C4": "0"})
    fv = spec(w, '=SPECIALIZE(CLOSURE("H", 1, #NA))')
    assert "fn#" not in listing(w, fv)  # G(1, y*2) is 1
    assert apply(w, fv, 5) == Number(6.0)


def test_the_draw_check_looks_at_each_residual_cell_once(monkeypatch):
    # D12 reads D11 twice, D11 reads D10 twice, and so on: following
    # every path would walk 2**11 cells.
    cells = {**G_CELLS, "C1": "0", "D1": "0", "D2": "=D1+1",
             "C2": "=G(C1, D12)+D12", "C3": '=DEFINE("H", C2, C1, D1)'}
    cells.update({f"D{i}": f"=D{i - 1}+D{i - 1}" for i in range(3, 13)})
    w = make_wb(cells)
    walks = []
    walk = peval.walk
    monkeypatch.setattr(peval, "walk", lambda e: walks.append(e) or walk(e))
    fv = spec(w, '=SPECIALIZE(CLOSURE("H", 1, #NA))')
    assert "fn#" not in listing(w, fv)
    assert len(walks) <= 12
    assert apply(w, fv, 1) == Number(1.0 + 2.0 ** 11)


@pytest.mark.parametrize("recur", ["B1-1", "B1+1"])
def test_a_static_error_decides_a_comparison_before_its_right_operand(recur):
    # The right operand never runs, so its recursion is not specialized.
    w = make_wb({"B1": "0", "B2": f"=IF(B1<=0, 0, (1/0)<L({recur}))",
                 "B3": '=DEFINE("L", B2, B1)'})
    before = fn_count(w)
    fv = spec(w, '=SPECIALIZE(CLOSURE("L", 5))')
    assert fn_count(w) - before == 1
    assert not w.diagnostics
    assert apply(w, fv) is ERROR_DIV0


def test_zero_product_keeps_the_dynamic_operand():
    w = make_wb({"B1": "0", "B2": "0", "B3": "=B1*B2",
                 "B4": '=DEFINE("P", B3, B1, B2)'})
    fv = spec(w, '=SPECIALIZE(CLOSURE("P", #NA, 0))')
    assert "mul" in listing(w, fv)
    assert apply(w, fv, ERROR_NA) is ERROR_NA
    assert apply(w, fv, 7) == Number(0.0)


# --- recursion strategies ----------------------------------------------------

def test_dynamic_control_recursion_generalizes_to_one_residual(define):
    w = define({
        "B1": "0", "B2": "0",
        "B3": "=IF(B1=0, B2, SG(B1-1, B2))",
        "B4": '=DEFINE("SG", B3, B1, B2)',
    })
    before = fn_count(w)
    fv = spec(w, '=SPECIALIZE(CLOSURE("SG", #NA, 7))')
    assert fn_count(w) - before == 1
    assert f"tailsdf fn#{fv.target}" in listing(w, fv)
    for n in range(6):
        assert apply(w, fv, n) == call(w, "SG", n, 7) == Number(7.0)


def test_pruned_branch_is_never_specialized():
    w = make_wb(REPT4_CELLS)
    before = fn_count(w)
    fv = spec(w, '=SPECIALIZE(CLOSURE("REPT4", #NA, 0))')
    assert fn_count(w) - before == 1
    assert apply(w, fv, "ab") == Text("")
    assert "fn#" not in listing(w, fv)    # no call left in the residual


def test_ackermann_generalization_terminates():
    w = make_wb(ACKA_CELLS)
    before = fn_count(w)
    fv = spec(w, '=SPECIALIZE(CLOSURE("ACKA", 2, #NA))')
    assert fn_count(w) - before == 1
    for n in range(5):
        assert apply(w, fv, n) == Number(float(2 * n + 3))


# --- residuals against the original ------------------------------------------

BUILTINS = [("ABS", 1), ("SQRT", 1), ("LN", 1), ("FLOOR", 1), ("ISERROR", 1),
            ("MOD", 2), ("QUOTIENT", 2), ("MIN", 2), ("MAX", 2), ("SUM", 2),
            ("CONCAT", 2)]
OPERATORS = ["+", "-", "*", "/", "^", "&", "=", "<>", "<", "<=", ">", ">="]
CONSTANTS = ["(" + literal(v) + ")" for v in POOL]
# H is the callee of every CLOSURE/APPLY in a random body.
HELPER = {"D1": "0", "D2": "0", "D3": '=IF(D1<D2, D1&"", D2*2)',
          "D4": '=DEFINE("H", D3, D1, D2)'}


def random_formula(rng, refs, depth):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(refs if rng.random() < 0.6 else CONSTANTS)
    sub = [random_formula(rng, refs, depth - 1) for _ in range(3)]
    form = rng.randrange(8)
    if form == 0:
        return f"({sub[0]}{rng.choice(OPERATORS)}{sub[1]})"
    if form == 1:
        return rng.choice(["-", "NOT"]) + f"({sub[0]})"
    if form == 2:
        return f"IF({sub[0]}, {sub[1]}, {sub[2]})"
    if form == 3:
        return f"CHOOSE({sub[0]}, {sub[1]}, {sub[2]})"
    if form == 4:
        return rng.choice(["AND", "OR"]) + f"({sub[0]}, {sub[1]})"
    if form == 5:
        return f'APPLY(CLOSURE("H", {sub[0]}, #NA), {sub[1]})'
    name, n = rng.choice(BUILTINS)
    return f"{name}({', '.join(sub[:n])})"


def test_random_residuals_agree_with_the_original():
    """Random three-input bodies over the operator pool: for every
    static/dynamic split of each argument vector, the residual gives the
    original's value bit for bit."""
    rng = random.Random(20131)
    splits = list(itertools.product((False, True), repeat=3))[1:]
    for _ in range(300):
        refs = ["B1", "B2", "B3"]
        cells = dict(HELPER, B1="0", B2="0", B3="0")
        for cell in ("C1", "C2", "C3"):
            cells[cell] = "=" + random_formula(rng, refs, 3)
            refs.append(cell)
        cells["C4"] = '=DEFINE("F", C3, B1, B2, B3)'
        w = make_wb(cells)
        target = w.function_table.lookup_name("F")
        # The same cells on an ordinary sheet, for the interpreter; in a
        # workbook of their own, so its recalculation (which re-runs each
        # DEFINE) leaves the specializer cache of ``w`` alone.
        ws = make_wb(HELPER)
        for _ in range(3):
            args = [rng.choice(POOL) for _ in range(3)]
            # The compiled original against the interpreter.
            fill(ws, "S", {"B1": "=" + literal(args[0]),
                           "B2": "=" + literal(args[1]),
                           "B3": "=" + literal(args[2]),
                           "C1": cells["C1"], "C2": cells["C2"],
                           "C3": cells["C3"]})
            ws.recalculate()
            assert value_key(call(w, "F", *args)) == \
                value_key(ws.get_value(a1("S", "C3"))), (cells, args)
            for split in splits:
                captured = [a if static else HOLE
                            for a, static in zip(args, split)]
                fv = w.specializer.specialize(
                    FunctionValue(target, "F", captured))
                for _ in range(6):
                    vec = [a if static else rng.choice(POOL)
                           for a, static in zip(args, split)]
                    want = value_key(call(w, "F", *vec))
                    dyn = [v for v, static in zip(vec, split) if not static]
                    got = w.function_table.apply(fv, dyn, w)
                    assert value_key(got) == want, (cells, vec, split)


# --- cache, identity, budget -------------------------------------------------

def test_cache_returns_same_residual():
    w = make_wb(MONTHLEN_CELLS)
    a = spec(w, '=SPECIALIZE(CLOSURE("MONTHLEN", #NA, 3))')
    count = fn_count(w)
    b = spec(w, '=SPECIALIZE(CLOSURE("MONTHLEN", #NA, 3))')
    assert a.target == b.target and a.name == b.name
    assert fn_count(w) == count


def test_all_holes_returns_the_original():
    w = make_wb(MONTHLEN_CELLS)
    original = w.function_table.lookup_name("MONTHLEN")
    count = fn_count(w)
    fv = spec(w, '=SPECIALIZE(CLOSURE("MONTHLEN", #NA, #NA))')
    assert fv.target == original
    assert fn_count(w) == count


def test_specialize_argument_validation(wb):
    assert wb.eval_formula("=SPECIALIZE(5)", "S") is ERROR_VALUE
    assert wb.specializer.specialize(
        FunctionValue(9999, "GONE", [HOLE])) is ERROR_NAME


def test_arity_mismatch_rejected():
    w = make_wb(MONTHLEN_CELLS)
    target = w.function_table.lookup_name("MONTHLEN")
    bad = FunctionValue(target, "MONTHLEN", [HOLE])   # needs two slots
    assert w.specializer.specialize(bad) is ERROR_VALUE


def test_redefinition_invalidates_the_cache():
    w = make_wb({"B1": "0", "B2": "0", "B3": "=B1*B2",
                 "B4": '=DEFINE("P", B3, B1, B2)'})
    r1 = spec(w, '=SPECIALIZE(CLOSURE("P", #NA, 3))')
    assert apply(w, r1, 10) == Number(30.0)
    fill(w, "F", {"B3": "=B1+B2"})
    w.recalculate()
    r2 = spec(w, '=SPECIALIZE(CLOSURE("P", #NA, 3))')
    assert r2.target != r1.target
    assert apply(w, r2, 10) == Number(13.0)
    # The stale residual stays callable with its old behavior.
    assert apply(w, r1, 10) == Number(30.0)


def test_budget_rolls_back_and_keeps_the_original():
    w = make_wb(FACD_CELLS, spec_limit=4)
    original = w.function_table.lookup_name("FACD")
    count = fn_count(w)
    fv = spec(w, '=SPECIALIZE(CLOSURE("FACD", -1))')
    assert fv.target == original
    assert fn_count(w) == count           # every trial residual removed
    assert any("budget of 4" in d for d in w.diagnostics)
    # The same workbook can still specialize within the budget afterwards.
    ok = spec(w, '=SPECIALIZE(CLOSURE("FACD", 3))')
    assert apply(w, ok) == Number(6.0)


def test_a_rollback_removes_the_residuals_it_installed():
    # G(2)'s residual is installed before H's unfolding trips the budget;
    # the rollback removes it and its name.
    w = make_wb({
        "B1": "0", "B2": "=B1*3", "B3": '=DEFINE("G", B2, B1)',
        "C1": "0", "C2": "=G(2)+H(C1+1)", "C3": '=DEFINE("H", C2, C1)',
    }, spec_limit=5)
    table = w.function_table
    infos, names = table.items(), dict(table._name_to_id)
    events = []
    w.specializer.trace = events.append
    fv = spec(w, '=SPECIALIZE(CLOSURE("H", 0))')
    assert fv.target == table.lookup_name("H")
    assert any(ev["event"] == "specialize" and ev["function"] == "G"
               for ev in events)
    assert table.items() == infos and table._name_to_id == names
    assert not w.specializer.cache


def test_budget_counts_residuals_per_function():
    # The limit bounds the residuals of each function within one
    # SPECIALIZE, not their total: G and the ADD it calls get one each.
    w = make_wb({
        "B1": "0", "B2": "0", "B3": "=B1+B2",
        "B4": '=DEFINE("ADD", B3, B1, B2)',
        "C1": "0", "C2": "0", "C3": "=ADD(C1, C2)*2",
        "C4": '=DEFINE("G", C3, C1, C2)',
    }, spec_limit=1)
    count = fn_count(w)
    fv = spec(w, '=SPECIALIZE(CLOSURE("G", #NA, 1))')
    assert fv.target != w.function_table.lookup_name("G")
    assert fn_count(w) == count + 2
    assert not w.diagnostics
    assert apply(w, fv, 4) == Number(10.0)


def test_failed_specialize_leaves_nothing_behind():
    # A builtin that raises once.  The failed SPECIALIZE must not leave its
    # cache entry behind, or the next one returns a residual that was never
    # installed and calling it gives #NAME?.
    raised = []

    def boom(args, rt):
        if not raised:
            raised.append(True)
            raise RuntimeError("boom")
        return Number(args[0].value * 2)

    reg = default_registry().clone()
    reg.register(Builtin("BOOM", 1, 1, boom))
    w = make_wb({"B1": "0", "B2": "0", "B3": "=BOOM(B1)+B2",
                 "B4": '=DEFINE("G", B3, B1, B2)'}, registry=reg)
    count = fn_count(w)
    with pytest.raises(RuntimeError):
        w.eval_formula('=SPECIALIZE(CLOSURE("G", 3, #NA))', "S")
    assert fn_count(w) == count and not w.specializer.cache
    fv = spec(w, '=SPECIALIZE(CLOSURE("G", 3, #NA))')
    assert apply(w, fv, 1) == Number(7.0)
    assert call(w, "G", 3, 1) == Number(7.0)


def test_trace_hook_reports_each_residual():
    w = make_wb(MONTHLEN_CELLS)
    events = []
    w.specializer.trace = events.append
    spec(w, '=SPECIALIZE(CLOSURE("MONTHLEN", 2012, #NA))')
    assert events
    assert all(set(ev) == {"event", "function", "pattern", "action"}
               for ev in events)
    made = [ev for ev in events if ev["event"] == "specialize"]
    assert made and made[0]["function"] == "MONTHLEN"
    assert made[0]["pattern"] == "(2012,#NA)"
    assert "MONTHLEN(2012,#NA)#" in made[0]["action"]

    # The same request again is served from the cache.
    spec(w, '=SPECIALIZE(CLOSURE("MONTHLEN", 2012, #NA))')
    assert events[-1]["event"] == "cache-hit"


def test_trace_hook_reports_limit_trips():
    w = make_wb(FACD_CELLS, spec_limit=6)
    events = []
    w.specializer.trace = events.append
    fv = spec(w, '=SPECIALIZE(CLOSURE("FACD", -1))')
    assert list(fv.captured) == [Number(-1.0)]
    last = events[-1]
    assert last["event"] == "limit" and last["function"] == "FACD"
    assert "keeping the original" in last["action"]
