"""One definition of each operator and of each node's children.

The scalar operators live in ``values`` and every execution path takes
them from there; these tests hold the interpreter, a compiled body with
all arguments dynamic, an all-static SPECIALIZE and the residuals with
one operand static to the same result on a pool of awkward operands.
The child maps of ``formula`` are checked over every node type.
"""

import math
import struct

import pytest

from sheetfun import CellAddr, Number, Text, display
from sheetfun.engine import eval_expr
from sheetfun.formula import (
    And, Apply, Arith1, Arith2, CellRef, Choose, Comparison, Const, Expr,
    FunctionCall, If, MakeClosure, NormalCellArea, NormalCellRef, Or,
    SdfCall, children, map_children, walk,
)
from sheetfun.values import (
    BINARY_OPS, COMPARE_OPS, ERROR_DIV0, ERROR_NA, ERROR_NUM, ERROR_VALUE,
    HOLE, UNARY_OPS, ArrayValue, ErrorValue, FunctionValue,
)

from conftest import make_wb

POOL = [Number(0.0), Number(-0.0), Number(0.5), Number(1.0), Number(-2.5),
        Number(3.0), Number(math.inf), Number(-math.inf), Number(1e308),
        Text("abc"), Text(""), ERROR_NA, ERROR_DIV0,
        ErrorValue.intern("#ERR:x")]

BINARY = sorted(BINARY_OPS) + ["&"]
COMPARE = sorted(COMPARE_OPS)


def same(a, b) -> bool:
    """Equal values; Numbers compared by bit pattern (signed zero too)."""
    if type(a) is Number and type(b) is Number:
        return struct.pack("<d", a.value) == struct.pack("<d", b.value)
    return a == b


def define_f(body: str, n_args: int, extra=None):
    """A workbook whose function F reads B1..Bn, gives ``body`` in the
    cell after them and has ``extra`` body cells ({address: formula});
    returns it and F's id."""
    ins = [f"B{i + 1}" for i in range(n_args)]
    out = f"B{n_args + 1}"
    cells = {a: "0" for a in ins}
    cells[out] = body
    cells.update(extra or {})
    cells[f"B{n_args + 2}"] = f'=DEFINE("F", {out}, {", ".join(ins)})'
    w = make_wb(cells)
    return w, w.function_table.lookup_name("F")


def three_paths(body: str, operands, make_node, extra=None):
    """Results of the interpreter, the compiled function with every
    argument dynamic, and an all-static SPECIALIZE, per operand tuple."""
    w, target = define_f(body, len(operands[0]), extra)
    table = w.function_table
    at = CellAddr("S", 1, 1)
    for args in operands:
        interp = eval_expr(make_node(*[Const(a) for a in args]), at, w)
        compiled = table.call(target, list(args), w)
        res = w.specializer.specialize(FunctionValue(target, "F", args))
        assert res.target != target, "nothing was specialized"
        static = table.apply(res, [], w)
        yield args, interp, compiled, static


def mismatches(body, operands, make_node, extra=None):
    return [(args, interp, compiled, static)
            for args, interp, compiled, static
            in three_paths(body, operands, make_node, extra)
            if not (same(interp, compiled) and same(interp, static))]


PAIRS = [(a, b) for a in POOL for b in POOL]


@pytest.mark.parametrize("op", BINARY)
def test_binary_operator_agrees_on_every_path(op):
    bad = mismatches(f"=B1{op}B2", PAIRS,
                     lambda l, r: Arith2(op, l, r))
    assert not bad, bad[:5]


@pytest.mark.parametrize("op", COMPARE)
def test_comparison_agrees_on_every_path(op):
    bad = mismatches(f"=B1{op}B2", PAIRS,
                     lambda l, r: Comparison(op, l, r))
    assert not bad, bad[:5]


@pytest.mark.parametrize("op", sorted(UNARY_OPS))
def test_unary_operator_agrees_on_every_path(op):
    body = "=-B1" if op == "-" else "=NOT(B1)"
    bad = mismatches(body, [(a,) for a in POOL],
                     lambda a: Arith1(op, a))
    assert not bad, bad[:5]


@pytest.mark.parametrize("name, arity", [("MOD", 2), ("QUOTIENT", 2),
                                         ("FLOOR", 1), ("FLOOR", 2),
                                         ("SQRT", 1), ("EXP", 1), ("LN", 1),
                                         ("ABS", 1), ("TRUNC", 1)],
                         ids=["MOD", "QUOTIENT", "FLOOR1", "FLOOR2", "SQRT",
                              "EXP", "LN", "ABS", "TRUNC"])
def test_unboxed_builtin_call_agrees_on_every_path(name, arity):
    # Under unary minus the call runs on raw doubles.
    params = ", ".join(f"B{i + 1}" for i in range(arity))
    operands = PAIRS if arity == 2 else [(a,) for a in POOL]
    bad = mismatches(f"=-{name}({params})", operands,
                     lambda *a: Arith1("-", FunctionCall(name, a)))
    assert not bad, bad[:5]


# Every builtin reads its arguments in order, and the first one it cannot
# use decides: an error as itself, anything else as #VALUE!.
TEXT = Text("a")
ARRAY = ArrayValue(((Number(1.0), Text("b")),))
IN_ORDER = [
    # Text, or an array where a number is wanted, before an error.
    *[(name, (TEXT, ERROR_NA), ERROR_VALUE)
      for name in ("MOD", "QUOTIENT", "FLOOR", "MIN", "MAX", "SUM")],
    ("CONCAT", (ARRAY, ERROR_NA), ERROR_VALUE),
    ("BENCHMARK", (TEXT, ERROR_NA), ERROR_VALUE),
    # The error first.
    *[(name, (ERROR_NA, TEXT), ERROR_NA)
      for name in ("MOD", "QUOTIENT", "FLOOR", "MIN", "MAX", "SUM")],
    ("CONCAT", (ERROR_DIV0, ARRAY), ERROR_DIV0),
    # A lone error argument.
    ("SUM", (ERROR_NA,), ERROR_NA),
    ("MIN", (ERROR_NA, Number(2.0)), ERROR_NA),
    ("MAX", (Number(1.0), ERROR_NA), ERROR_NA),
    ("ERR", (ERROR_NA,), ERROR_NA),
    ("SPECIALIZE", (ERROR_NA,), ERROR_NA),
    ("BENCHMARK", (ERROR_NA, Number(1.0)), ERROR_NA),
]


@pytest.mark.parametrize("neg", [False, True], ids=["boxed", "negated"])
@pytest.mark.parametrize(
    "name, args, want", IN_ORDER,
    ids=[f"{n}({','.join(display(a) for a in args)})"
         for n, args, _ in IN_ORDER])
def test_builtin_reads_its_arguments_in_order(name, args, want, neg):
    # Negated, a builtin with a double form runs on raw doubles in
    # compiled code.
    params = ", ".join(f"B{i + 1}" for i in range(len(args)))
    body = f"={'-' if neg else ''}{name}({params})"

    def node(*a):
        call = FunctionCall(name, a)
        return Arith1("-", call) if neg else call
    got = [r[1:] for r in three_paths(body, [args], node)]
    assert got == [(want, want, want)]


# APPLY or CLOSURE of what is not a function gives an error as itself and
# anything else as #VALUE!, and so does a closure given more arguments
# than it has holes.
@pytest.mark.parametrize("body, make_node", [
    ("=APPLY(B1, 2)", lambda f: Apply(f, (Const(Number(2.0)),))),
    ("=CLOSURE(B1, 1, 2)",
     lambda f: MakeClosure(f, (Const(Number(1.0)), Const(Number(2.0))))),
], ids=["APPLY", "CLOSURE"])
def test_apply_and_closure_of_what_is_not_a_function_agree(body, make_node):
    operands = [(Number(5.0),), (ERROR_DIV0,),
                (FunctionValue(1, "G", [Number(0.0)]),)]
    got = [r[1:] for r in three_paths(body, operands, make_node)]
    assert got == [(v, v, v) for v in (ERROR_VALUE, ERROR_DIV0, ERROR_VALUE)]


def test_choose_index_agrees_on_every_path():
    branches = tuple(Const(Number(float(10 * k))) for k in (1, 2, 3))
    bad = mismatches("=CHOOSE(B1, 10, 20, 30)", [(a,) for a in POOL],
                     lambda i: Choose(i, branches))
    assert not bad, bad[:5]


# C1 is read twice under a condition on B1, so it is not inlined and runs
# under a guard: CHOOSE's branches give it ``sel`` literals, IF's other
# branch and OR's second argument ``neg``, AND's second argument ``pos``.
# A guard that says no where the formula reads C1 raises in compiled code
# (an unevaluated slot) and in the specializer (an unavailable cell).
C1 = {"C1": "=B1*2"}
N = {k: Const(Number(float(k))) for k in (0, 1, 2, 5, 7)}


def _twice(c):
    return Arith2("+", c, c)


GUARDED = [
    ("=CHOOSE(B1, C1+C1, 7, C1-1)",
     lambda b, c: Choose(b, (_twice(c), N[7], Arith2("-", c, N[1])))),
    ("=CHOOSE(B1, 7, C1+C1)", lambda b, c: Choose(b, (N[7], _twice(c)))),
    ("=IF(B1, 5, C1+C1)", lambda b, c: If(b, N[5], _twice(c))),
    ("=OR(B1, C1+C1>0)",
     lambda b, c: Or((b, Comparison(">", _twice(c), N[0])))),
    ("=AND(B1, C1+C1>0)",
     lambda b, c: And((b, Comparison(">", _twice(c), N[0])))),
]


@pytest.mark.parametrize("body, make_node", GUARDED,
                         ids=[body for body, _ in GUARDED])
def test_guard_literal_agrees_on_every_path(body, make_node):
    w, target = define_f(body, 1, C1)
    assert any(cell.eval_cond is not None
               for cell in w.function_table.get(target).body)
    bad = mismatches(body, [(a,) for a in POOL],
                     lambda b: make_node(b, Arith2("*", b, N[2])), C1)
    assert not bad, bad[:5]


def test_sum_agrees_on_every_path_where_fsum_raises():
    # math.fsum raises on overflow and on inf-inf; SUM answers as chained
    # + does: an infinity, or #NUM!.
    inf = math.inf
    operands = [(Number(1e308), Number(1e308)),
                (Number(-1e308), Number(-1e308)),
                (Number(inf), Number(-inf)), (Number(-inf), Number(inf))]
    want = [Number(inf), Number(-inf), ERROR_NUM, ERROR_NUM]
    got = [r[1:] for r in three_paths(
        "=SUM(B1, B2)", operands, lambda a, b: FunctionCall("SUM", (a, b)))]
    assert got == [(v, v, v) for v in want]


def test_benchmark_count_out_of_range_agrees_on_every_path():
    # The count goes to int(); an infinite one is #VALUE!, as is a count
    # below 1.  F's body times F(0), which is itself #VALUE! at once.
    operands = [(Number(math.inf),), (Number(-math.inf),), (Number(0.5),),
                (Text("abc"),), (ERROR_NA,)]
    closure = MakeClosure(Const(Text("F")), (Const(Number(0.0)),))
    body = '=BENCHMARK(CLOSURE("F", 0), B1)'
    want = [ERROR_VALUE] * 4 + [ERROR_NA]
    got = [r[1:] for r in three_paths(
        body, operands, lambda n: FunctionCall("BENCHMARK", (closure, n)))]
    assert got == [(v, v, v) for v in want]


def mixed_mismatches(body, make_node):
    """Operand pairs where a residual with one operand static and the
    other dynamic disagrees with the interpreter.  The specializer's
    identity rules act only here."""
    cells = {"B1": "0", "B2": "0", "B3": body,
             "B4": '=DEFINE("F", B3, B1, B2)'}
    w = make_wb(cells)
    table = w.function_table
    target = table.lookup_name("F")
    at = CellAddr("S", 1, 1)
    bad = []
    for a, b in PAIRS:
        interp = eval_expr(make_node(Const(a), Const(b)), at, w)
        for captured, dyn in (((a, HOLE), b), ((HOLE, b), a)):
            fv = w.specializer.specialize(FunctionValue(target, "F",
                                                        captured))
            assert fv.target != target, "nothing was specialized"
            got = table.apply(fv, [dyn], w)
            if not same(interp, got):
                bad.append((a, b, captured, interp, got))
    return bad


@pytest.mark.parametrize("op", BINARY)
def test_binary_operator_with_one_static_operand_agrees(op):
    bad = mixed_mismatches(f"=B1{op}B2", lambda l, r: Arith2(op, l, r))
    assert not bad, bad[:5]


@pytest.mark.parametrize("op", COMPARE)
def test_comparison_with_one_static_operand_agrees(op):
    bad = mixed_mismatches(f"=B1{op}B2", lambda l, r: Comparison(op, l, r))
    assert not bad, bad[:5]


# --- child maps -----------------------------------------------------------

A, B, C = Const(Number(1.0)), Const(Text("t")), CellRef(CellAddr(None, 2, 3))
AT = CellAddr("D", 1, 1)

SAMPLES = {
    Const: A,
    CellRef: C,
    NormalCellRef: NormalCellRef(AT),
    NormalCellArea: NormalCellArea(AT, CellAddr("D", 2, 2)),
    Arith1: Arith1("-", A),
    Arith2: Arith2("+", A, C),
    Comparison: Comparison("<", A, C),
    FunctionCall: FunctionCall("SUM", (A, B, C)),
    SdfCall: SdfCall(7, "G", (A, C)),
    MakeClosure: MakeClosure(B, (A, C)),
    Apply: Apply(C, (A, B)),
    If: If(A, B, C),
    Choose: Choose(A, (B, C)),
    And: And((A, C)),
    Or: Or((C, A)),
}


def test_samples_cover_every_node_type():
    assert set(SAMPLES) == set(Expr.__subclasses__())


def non_child_fields(e):
    kids = set(map(id, children(e)))
    out = []
    for name in type(e).__slots__:
        v = getattr(e, name)
        if id(v) in kids:
            continue
        if type(v) is tuple and v and all(id(x) in kids for x in v):
            continue
        out.append((name, v))
    return out


@pytest.mark.parametrize("t", list(SAMPLES), ids=lambda t: t.__name__)
def test_map_children_identity_returns_the_same_node(t):
    e = SAMPLES[t]
    assert map_children(e, lambda c: c) is e


@pytest.mark.parametrize("t", list(SAMPLES), ids=lambda t: t.__name__)
def test_map_children_replacement_keeps_type_and_fields(t):
    e = SAMPLES[t]
    made = []

    def fresh(c):
        made.append(Const(Number(float(len(made)))))
        return made[-1]
    new = map_children(e, fresh)
    assert type(new) is t
    assert len(made) == len(children(e))
    assert len(children(new)) == len(made)
    assert all(c is m for c, m in zip(children(new), made))
    assert non_child_fields(new) == non_child_fields(e)


def test_walk_is_preorder():
    inner = Arith2("*", C, B)
    tree = If(Comparison("=", A, inner), Arith1("-", C), Or((B, A)))
    got = list(walk(tree))
    want = [tree, tree.cond, A, inner, C, B, tree.then, C, tree.other, B, A]
    assert len(got) == len(want)
    assert all(g is w for g, w in zip(got, want))
