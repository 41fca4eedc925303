"""Formula parsing, rendering, addressing."""

import json
import os
import sys

import pytest

from sheetfun.formula import (
    MAX_NESTING, And, Apply, Arith1, Arith2, CellAddr, CellRef, Choose,
    Comparison, Const, Expr, FormulaError, FunctionCall, If, MakeClosure,
    NormalCellArea, NormalCellRef, Or, SdfCall, col_to_letters,
    letters_to_col, parse_expr, parse_formula, render_expr, render_formula,
    walk,
)
from sheetfun.values import (
    ERROR_NA, ERROR_REF, ArrayValue, ErrorValue, Number, Text,
)


def num(d: float) -> Const:
    return Const(Number(d))


def test_column_letters():
    assert col_to_letters(1) == "A"
    assert col_to_letters(26) == "Z"
    assert col_to_letters(27) == "AA"
    assert col_to_letters(702) == "ZZ"
    assert col_to_letters(703) == "AAA"
    for c in range(1, 800):
        assert letters_to_col(col_to_letters(c)) == c


def test_addr_text():
    a = CellAddr("Data", 28, 7)
    assert a.text() == "Data!AB7"
    assert a.local().text() == "AB7"
    assert a.local().on("X").text() == "X!AB7"


def test_parse_number_and_string():
    assert parse_expr("42") == num(42.0)
    assert parse_expr("3.5e2") == num(350.0)
    assert parse_expr('"he said ""hi"""') == Const(Text('he said "hi"'))


def test_parse_error_literals():
    assert parse_expr("#NA") == Const(ERROR_NA)
    assert parse_expr("#REF!") == Const(ERROR_REF)
    e = parse_expr("#ERR:custom")
    assert e == Const(ErrorValue.intern("#ERR:custom"))
    assert parse_expr('{1,"a";#NA,-2}') == Const(ArrayValue(
        ((Number(1.0), Text("a")), (ERROR_NA, Number(-2.0)))))


def test_parse_refs():
    assert parse_expr("B2") == CellRef(CellAddr(None, 2, 2))
    assert parse_expr("Data!C3") == NormalCellRef(CellAddr("Data", 3, 3))
    area = parse_expr("Data!A1:B2")
    assert isinstance(area, NormalCellArea)
    assert area.start == CellAddr("Data", 1, 1)
    assert area.end == CellAddr("Data", 2, 2)


def test_precedence_shape():
    e = parse_expr("1+2*3")
    assert e == Arith2("+", num(1.0), Arith2("*", num(2.0), num(3.0)))
    e = parse_expr("(1+2)*3")
    assert e == Arith2("*", Arith2("+", num(1.0), num(2.0)), num(3.0))
    # Comparison binds loosest, concat sits between it and addition.
    e = parse_expr('1+2 = "a"&"b"')
    assert isinstance(e, Comparison)
    assert isinstance(e.left, Arith2) and e.left.op == "+"
    assert isinstance(e.right, Arith2) and e.right.op == "&"


def test_power_is_left_associative():
    e = parse_expr("2^3^2")
    assert e == Arith2("^", Arith2("^", num(2.0), num(3.0)), num(2.0))


def test_unary_minus():
    assert parse_expr("-5") == num(-5.0)
    e = parse_expr("-B1")
    assert e == Arith1("-", CellRef(CellAddr(None, 2, 1)))
    assert parse_expr("2^-2") == Arith2("^", num(2.0), num(-2.0))
    assert parse_expr("--5") == num(5.0)
    assert parse_expr("-2^2") == Arith2("^", num(-2.0), num(2.0))


@pytest.mark.parametrize("op", ["=", "<>", "<", "<=", ">", ">=", "&",
                                "+", "-", "*", "/", "^"])
def test_every_binary_operator_is_left_associative(op):
    node = Comparison if op in ("=", "<>", "<", "<=", ">", ">=") else Arith2
    e = parse_expr(f"1{op}2{op}3")
    assert e == node(op, node(op, num(1.0), num(2.0)), num(3.0))


def test_deep_parentheses_parse_and_round_trip():
    e = parse_formula("=" + "(" * 250 + "1+2" + ")" * 250)
    assert e == Arith2("+", num(1.0), num(2.0))
    assert parse_formula(render_formula(e)) == e


# Formulas nested exactly MAX_NESTING deep, each shape of nesting.
AT_BOUND = {
    "parentheses": "=" + "(" * MAX_NESTING + "1" + ")" * MAX_NESTING,
    "right operands": "=" + "1+(" * MAX_NESTING + "1" + ")" * MAX_NESTING,
    "calls": "=" + "ABS(" * MAX_NESTING + "1" + ")" * MAX_NESTING,
    "special forms": "=" + "IF(1,2," * MAX_NESTING + "3" + ")" * MAX_NESTING,
    "signs": "=" + "-(" * (MAX_NESTING // 2) + "A1" + ")" * (MAX_NESTING // 2),
    "array": "=" + "SUM(" * (MAX_NESTING - 1) + "{1,2;3,4}"
             + ")" * (MAX_NESTING - 1),
}


def _stack_depth() -> int:
    f, n = sys._getframe(), 0
    while f is not None:
        f, n = f.f_back, n + 1
    return n


@pytest.mark.parametrize("shape", list(AT_BOUND))
def test_a_formula_at_the_nesting_bound_parses_400_frames_deep(shape):
    def down(n):
        return parse_formula(AT_BOUND[shape]) if n <= 0 else down(n - 1)

    assert sys.getrecursionlimit() == 1000
    assert isinstance(down(400 - _stack_depth()), Expr)


@pytest.mark.parametrize("shape", list(AT_BOUND))
def test_a_formula_at_the_nesting_bound_renders_400_frames_deep(shape):
    e = parse_formula(AT_BOUND[shape])

    def down(n):
        return render_formula(e) if n <= 0 else down(n - 1)

    assert sys.getrecursionlimit() == 1000
    text = down(400 - _stack_depth())
    assert text == render_formula(e)
    assert render_formula(parse_formula(text)) == text


@pytest.mark.parametrize("text,pos", [
    ("=" + "(" * 3300 + "1" + ")" * 3300, 1 + MAX_NESTING),
    ("=" + "-" * 3300 + "1", 1 + MAX_NESTING),
    ("=" + "ABS(" * 3300 + "1" + ")" * 3300, 4 * MAX_NESTING + 4),
    ("=" + "(" * (MAX_NESTING + 1) + "1" + ")" * (MAX_NESTING + 1),
     1 + MAX_NESTING),
    ("=" + "SUM(" * MAX_NESTING + "{1}" + ")" * MAX_NESTING,
     1 + 4 * MAX_NESTING),
])
def test_nesting_past_the_bound_is_a_formula_error(text, pos):
    with pytest.raises(FormulaError) as info:
        parse_formula(text)
    assert str(info.value) == f"formula nested too deeply (at {pos})"


def test_special_forms():
    e = parse_expr("IF(A1, 1, 2)")
    assert isinstance(e, If)
    e = parse_expr("CHOOSE(A1, 1, 2, 3)")
    assert isinstance(e, Choose) and len(e.branches) == 3
    e = parse_expr("AND(1, 2)")
    assert isinstance(e, And)
    e = parse_expr("OR(1)")
    assert isinstance(e, Or)
    e = parse_expr("NOT(A1)")
    assert e == Arith1("NOT", CellRef(CellAddr(None, 1, 1)))
    e = parse_expr('CLOSURE("F", 1, #NA)')
    assert isinstance(e, MakeClosure) and len(e.args) == 2
    e = parse_expr("APPLY(A1, 2)")
    assert isinstance(e, Apply)


def test_call_names_uppercased():
    e = parse_expr("sqrt(4)")
    assert e == FunctionCall("SQRT", (num(4.0),))


def test_if_arity_checked():
    with pytest.raises(FormulaError):
        parse_expr("IF(1, 2)")
    with pytest.raises(FormulaError):
        parse_expr("CHOOSE(1)")


def test_parse_rejects_garbage():
    for bad in ["", "=", "1+", "(1", '"unterminated', "1 2", "1..5"]:
        with pytest.raises(FormulaError):
            parse_formula("=" + bad if not bad.startswith("=") else bad)


def test_local_area_parses():
    # Same-sheet areas are legal formula syntax; function bodies reject
    # them later, during definition.
    area = parse_expr("A1:B2")
    assert isinstance(area, NormalCellArea)
    assert area.start.sheet is None


def test_formula_requires_equals():
    with pytest.raises(FormulaError):
        parse_formula("1+2")
    assert parse_formula("=1+2") == parse_expr("1+2")


ROUND_TRIP = [
    "1+2*3",
    "(1+2)*3",
    "-B1^2",
    "2^-3",
    "1-2-3",
    "1-(2-3)",
    "8/4/2",
    "8/(4/2)",
    'IF(A1>0,"yes","no")',
    "CHOOSE(B1,1,2,3)",
    "AND(A1,OR(B1,C1))",
    'CLOSURE("F",#NA,2)',
    "APPLY(A1,1,2)",
    'Data!B2+Data!A1:C3',
    '"a"&"b"&"c"',
    "A1<=B1",
    "A1<>B1",
    "SUM(A1,B1,2.5)",
    "NOT(A1)",
    "-(1+2)",
    '{1,"a";#NA,2}',
]


@pytest.mark.parametrize("src", ROUND_TRIP)
def test_render_parse_round_trip(src):
    e = parse_expr(src)
    assert parse_expr(render_expr(e)) == e


def test_render_formula_prefix():
    assert render_formula(parse_expr("1+2")) == "=1+2"


def test_render_minimal_parens():
    assert render_expr(parse_expr("1+2*3")) == "1+2*3"
    assert render_expr(parse_expr("(1+2)*3")) == "(1+2)*3"
    assert render_expr(parse_expr("1-(2-3)")) == "1-(2-3)"
    assert render_expr(parse_expr("1-2-3")) == "1-2-3"


def test_walk_visits_all():
    e = parse_expr("IF(A1,B1+1,SUM(C1,D1))")
    kinds = [type(n).__name__ for n in walk(e)]
    assert kinds[0] == "If"
    assert kinds.count("CellRef") == 4


def test_case_insensitive_cell_refs():
    assert parse_expr("b2") == parse_expr("B2")


# Message and position of the error for malformed formulas; the parser
# must keep reporting these exactly.
PARSE_ERRORS = [
    ("=1 $ 2", "bad character '$'", 3),
    ("=A1+?", "bad character '?'", 4),
    ('="abc', "bad character '\"'", 1),
    ("=#BAD", "bad character '#'", 1),
    ("=(1+2", "expected ')', found 'end'", 5),
    ("=SUM(1,2", "expected ')', found 'end'", 8),
    ("={1,2", "expected '}', found 'end'", 5),
    ("=foo", "unknown name 'foo'", 1),
    ("=Data!", "expected cell reference after '!'", 6),
    ("=Data!1", "expected cell reference after '!'", 6),
    ("=Data!A1:", "expected cell reference after ':'", 9),
    ("=A1:B", "expected cell reference after ':'", 4),
    ("={1,2;3}", "ragged array literal", 1),
    ("={1;2,3}", "ragged array literal", 1),
    ('={-"a"}', "expected number", 3),
    ("={A1}", "expected array element", 2),
    ("=IF(1,2)", "wrong number of arguments to IF", 1),
    ("=IF(1,2,3,4)", "wrong number of arguments to IF", 1),
    ("=NOT(1,2)", "wrong number of arguments to NOT", 1),
    ("=NOT()", "wrong number of arguments to NOT", 1),
    ("=1 2", "unexpected '2'", 3),
    ("=(1))", "unexpected ')'", 4),
    ("=1..5", "unexpected '.5'", 3),
    ("=SUM(1,)", "unexpected ')'", 7),
    ("=1+ ", "unexpected 'end'", 4),
    ("=", "unexpected 'end'", 1),
    ("1+2", "formula must start with '='", 0),
]


@pytest.mark.parametrize("text,message,pos", PARSE_ERRORS)
def test_parse_error_message_and_position(text, message, pos):
    with pytest.raises(FormulaError) as info:
        parse_formula(text)
    assert str(info.value) == f"{message} (at {pos})"
    assert info.value.pos == pos


@pytest.fixture(scope="module")
def bench_workloads():
    bench = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
        __file__))), "bench")
    sys.path.insert(0, bench)
    try:
        import workloads
        with open(os.path.join(bench, "spec.json"), encoding="utf-8") as f:
            params = json.load(f)["workloads"]
        yield workloads.WORKLOADS, params
    finally:
        sys.path.remove(bench)
        sys.modules.pop("workloads", None)
        sys.modules.pop("reference", None)


@pytest.mark.parametrize("name", ["sheet", "calls", "specialize"])
def test_every_benchmark_formula_round_trips(bench_workloads, name):
    classes, params = bench_workloads
    lines = classes[name](params[name], 1).lines
    texts = [line.partition("=")[2].strip() for line in lines
             if "= =" in line]
    assert texts
    for text in texts:
        e = parse_formula(text)
        assert parse_formula(render_formula(e)) == e, text


def _fields(node) -> tuple:
    return tuple(getattr(node, name) for name in type(node).__slots__)


def _nodes(nan: Number) -> list:
    """One or more nodes of every type, built afresh on each call."""
    a, b = CellAddr(None, 1, 2), CellAddr("S", 1, 2)
    one, x = Const(Number(1.0)), CellRef(CellAddr(None, 3, 3))
    return [
        a, b, CellAddr(None, 2, 1), Const(Number(1.0)), Const(Text("1")),
        Const(nan), Const(Number(-0.0)), CellRef(a), NormalCellRef(b),
        NormalCellArea(b, CellAddr("S", 2, 2)), Arith1("-", x),
        Arith1("NOT", x), Arith2("+", one, x), Comparison("+", one, x),
        Comparison("<", one, x), FunctionCall("ABS", (x,)),
        SdfCall(3, "ABS", (x,)), MakeClosure(one, (x,)), Apply(one, (x,)),
        If(x, one, Const(nan)), Choose(x, (one, x)), And((one, x)),
        Or((one, x)),
    ]


def test_nodes_compare_and_hash_as_their_field_tuples():
    nan = Number(float("nan"))
    left, right = _nodes(nan), _nodes(nan)
    assert {type(n) for n in left} == {CellAddr, *Expr.__subclasses__()}
    for a in left:
        assert not hasattr(a, "__dict__")
        assert hash(a) == hash(_fields(a))
        for b in left + right:
            same = type(a) is type(b) and _fields(a) == _fields(b)
            assert (a == b) is same and (a != b) is not same, (a, b)
    # A NaN shared between two trees compares equal by identity, as in a
    # tuple; two NaNs built apart do not.
    assert Arith2("+", Const(nan), left[7]) == Arith2("+", Const(nan), left[7])
    assert Const(Number(float("nan"))) != Const(Number(float("nan")))
    assert Const(Number(1.0)) != Number(1.0)


def test_node_repr_names_each_field():
    e = Arith1("-", Const(Number(1.0)))
    assert repr(e) == "Arith1(op='-', arg=Const(value=Number(1.0)))"
    assert repr(CellAddr("S", 2, 3)) == "CellAddr(S!B3)"
