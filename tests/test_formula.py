"""Formula parsing, rendering, addressing."""

import pytest

from sheetfun.formula import (
    And, Apply, Arith1, Arith2, CellAddr, CellRef, Choose, Comparison,
    Const, FormulaError, FunctionCall, If, MakeClosure, NormalCellArea,
    NormalCellRef, Or, col_to_letters, letters_to_col, parse_expr,
    parse_formula, render_expr, render_formula, walk,
)
from sheetfun.values import ERROR_NA, ERROR_REF, ErrorValue, Number, Text


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
