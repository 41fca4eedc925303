"""Formula syntax: cell addresses, expression trees, parser and renderer.

The grammar follows spreadsheet convention.  A formula starts with ``=``;
operator precedence is, loosest first: comparisons, ``&``, ``+ -``,
``* /``, ``^``, unary minus.  All binary operators associate left
(including ``^``, and unary minus binds tighter than ``^``, so ``-2^2``
is ``(-2)^2``).  Unqualified references like ``A1`` are sheet-local;
``Sheet1!A1`` names an ordinary sheet explicitly.

One node, ``Const``, carries every constant: it holds the spreadsheet
value itself (number, text, error, array or closure), and the renderer
writes it with ``values.literal``, so a negative zero reads back signed.

``parse_formula`` and ``render_formula`` round-trip: parsing a rendered
tree yields an equal tree (cache wrappers excepted, they render
transparently).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .values import ArrayValue, ErrorValue, Number, Text, Value, literal

__all__ = [
    "CellAddr", "FormulaError", "parse_formula", "parse_expr",
    "render_expr", "render_formula", "col_to_letters", "letters_to_col",
    "Expr", "Const", "CellRef", "NormalCellRef", "NormalCellArea", "Arith1",
    "Arith2", "Comparison", "FunctionCall", "SdfCall", "MakeClosure", "Apply",
    "If", "Choose", "And", "Or", "CachedExpr", "LEAF_TYPES", "children",
    "map_children", "walk", "PARSER_FORMS",
]


class FormulaError(ValueError):
    """Raised for syntax errors; carries the offending position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at {pos})")
        self.pos = pos


# --- addresses ---------------------------------------------------------------

def col_to_letters(col: int) -> str:
    out = ""
    while col > 0:
        col, rem = divmod(col - 1, 26)
        out = chr(ord("A") + rem) + out
    return out


def letters_to_col(letters: str) -> int:
    col = 0
    for ch in letters.upper():
        col = col * 26 + (ord(ch) - ord("A") + 1)
    return col


@dataclass(frozen=True)
class CellAddr:
    """A cell position; ``sheet`` is None for sheet-local references."""

    sheet: str | None
    col: int
    row: int

    def text(self) -> str:
        a1 = f"{col_to_letters(self.col)}{self.row}"
        return a1 if self.sheet is None else f"{self.sheet}!{a1}"

    def local(self) -> "CellAddr":
        return self if self.sheet is None else CellAddr(None, self.col, self.row)

    def on(self, sheet: str) -> "CellAddr":
        return CellAddr(sheet, self.col, self.row)

    def __repr__(self):
        return f"CellAddr({self.text()})"


# --- expression nodes --------------------------------------------------------

class Expr:
    __slots__ = ()


@dataclass(frozen=True)
class Const(Expr):
    """A constant: any spreadsheet value (number, text, error, array,
    closure) embedded in a tree."""

    value: Value


@dataclass(frozen=True)
class CellRef(Expr):
    """Reference to a cell of the enclosing (function) sheet."""

    addr: CellAddr


@dataclass(frozen=True)
class NormalCellRef(Expr):
    """Reference to a cell of an ordinary sheet."""

    addr: CellAddr


@dataclass(frozen=True)
class NormalCellArea(Expr):
    start: CellAddr
    end: CellAddr


@dataclass(frozen=True)
class Arith1(Expr):
    """Unary operator: '-' or 'NOT'."""

    op: str
    arg: Expr


@dataclass(frozen=True)
class Arith2(Expr):
    """Binary operator: + - * / ^ &."""

    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Comparison(Expr):
    """Relational operator: = <> < <= > >=."""

    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True)
class FunctionCall(Expr):
    """Call by name; resolved against builtins and defined functions."""

    name: str
    args: tuple


@dataclass(frozen=True)
class SdfCall(Expr):
    """Resolved call to a sheet-defined function (late-bound by id)."""

    target: int
    name: str
    args: tuple


@dataclass(frozen=True)
class MakeClosure(Expr):
    """CLOSURE(fn, args...): build a FunctionValue, #NA args are holes."""

    fn: Expr
    args: tuple


@dataclass(frozen=True)
class Apply(Expr):
    """APPLY(fn, args...): fill a closure's holes and call it."""

    fn: Expr
    args: tuple


@dataclass(frozen=True)
class If(Expr):
    cond: Expr
    then: Expr
    other: Expr


@dataclass(frozen=True)
class Choose(Expr):
    index: Expr
    branches: tuple


@dataclass(frozen=True)
class And(Expr):
    args: tuple


@dataclass(frozen=True)
class Or(Expr):
    args: tuple


@dataclass(frozen=True)
class CachedExpr(Expr):
    """Shared subterm evaluated at most once per call (per memo slot)."""

    inner: Expr


def _leaf(e):
    return ()


# Per node type: its children in order, and how to rebuild the node from
# new children.  This table is the only place that knows a node's
# children; every traversal goes through children() or map_children().
_SHAPES = {
    Arith1: (lambda e: (e.arg,), lambda e, c: Arith1(e.op, c[0])),
    Arith2: (lambda e: (e.left, e.right), lambda e, c: Arith2(e.op, *c)),
    Comparison: (lambda e: (e.left, e.right),
                 lambda e, c: Comparison(e.op, *c)),
    If: (lambda e: (e.cond, e.then, e.other), lambda e, c: If(*c)),
    Choose: (lambda e: (e.index, *e.branches),
             lambda e, c: Choose(c[0], c[1:])),
    FunctionCall: (lambda e: e.args, lambda e, c: FunctionCall(e.name, c)),
    SdfCall: (lambda e: e.args, lambda e, c: SdfCall(e.target, e.name, c)),
    And: (lambda e: e.args, lambda e, c: And(c)),
    Or: (lambda e: e.args, lambda e, c: Or(c)),
    MakeClosure: (lambda e: (e.fn, *e.args),
                  lambda e, c: MakeClosure(c[0], c[1:])),
    Apply: (lambda e: (e.fn, *e.args), lambda e, c: Apply(c[0], c[1:])),
    CachedExpr: (lambda e: (e.inner,), lambda e, c: CachedExpr(c[0])),
}
LEAF_TYPES = frozenset((Const, CellRef, NormalCellRef, NormalCellArea))
_SHAPES.update((t, (_leaf, None)) for t in LEAF_TYPES)


def children(e: Expr) -> tuple:
    """The direct subexpressions of a node, in evaluation order."""
    return _SHAPES[type(e)][0](e)


def map_children(e: Expr, f) -> Expr:
    """The node with ``f`` applied to each child; ``e`` itself when every
    child comes back unchanged."""
    kids, rebuild = _SHAPES[type(e)]
    if rebuild is None:
        return e
    old = kids(e)
    new = tuple(f(c) for c in old)
    for a, b in zip(old, new):
        if a is not b:
            return rebuild(e, new)
    return e


def walk(e: Expr):
    """Yield every node of the tree, preorder."""
    yield e
    for c in children(e):
        yield from walk(c)


# --- lexer -------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)
  | (?P<string>"(?:[^"]|"")*")
  | (?P<error>\#ERR:[^\s,;()]+|\#DIV/0!|\#VALUE!|\#NAME\?|\#NUM!|\#REF!|\#CYCLE!|\#NA)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_.]*)
  | (?P<op><>|<=|>=|[<>=+\-*/^&(),:!{};])
    """,
    re.VERBOSE,
)

_A1_RE = re.compile(r"^([A-Za-z]{1,3})(\d+)$")


def _tokenize(text: str, start: int):
    tokens = []
    pos = start
    n = len(text)
    while pos < n:
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise FormulaError(f"bad character {text[pos]!r}", pos)
        pos = m.end()
        kind = m.lastgroup
        if kind == "ws":
            continue
        tokens.append((kind, m.group(), m.start()))
    tokens.append(("eof", "", n))
    return tokens


# --- parser ------------------------------------------------------------------

_CMP_OPS = {"=", "<>", "<", "<=", ">", ">="}

# Call names the parser turns into nodes of their own (see make_call).
PARSER_FORMS = frozenset(
    ("IF", "CHOOSE", "AND", "OR", "NOT", "CLOSURE", "APPLY"))


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, val, pos = self.next()
        if kind != "op" or val != op:
            raise FormulaError(f"expected {op!r}, found {val or 'end'!r}", pos)

    def at_op(self, *ops) -> bool:
        kind, val, _ = self.peek()
        return kind == "op" and val in ops

    def parse(self) -> Expr:
        e = self.comparison()
        kind, val, pos = self.peek()
        if kind != "eof":
            raise FormulaError(f"unexpected {val!r}", pos)
        return e

    def comparison(self) -> Expr:
        e = self.concat()
        while self.at_op(*_CMP_OPS):
            _, op, _ = self.next()
            e = Comparison(op, e, self.concat())
        return e

    def concat(self) -> Expr:
        e = self.additive()
        while self.at_op("&"):
            self.next()
            e = Arith2("&", e, self.additive())
        return e

    def additive(self) -> Expr:
        e = self.multiplicative()
        while self.at_op("+", "-"):
            _, op, _ = self.next()
            e = Arith2(op, e, self.multiplicative())
        return e

    def multiplicative(self) -> Expr:
        e = self.power()
        while self.at_op("*", "/"):
            _, op, _ = self.next()
            e = Arith2(op, e, self.power())
        return e

    def power(self) -> Expr:
        e = self.unary()
        while self.at_op("^"):
            self.next()
            e = Arith2("^", e, self.unary())
        return e

    def unary(self) -> Expr:
        if self.at_op("-"):
            self.next()
            e = self.unary()
            # Fold the sign into number literals so -5 parses the same as
            # a rendered Const(Number(-5)).
            if type(e) is Const and type(e.value) is Number:
                return Const(Number(-e.value.value))
            return Arith1("-", e)
        if self.at_op("+"):
            self.next()
            return self.unary()
        return self.primary()

    def primary(self) -> Expr:
        kind, val, pos = self.next()
        if kind == "number":
            return Const(Number(float(val)))
        if kind == "string":
            return Const(Text(val[1:-1].replace('""', '"')))
        if kind == "error":
            return Const(ErrorValue.intern(val))
        if kind == "ident":
            return self.after_ident(val, pos)
        if kind == "op" and val == "(":
            e = self.comparison()
            self.expect_op(")")
            return e
        if kind == "op" and val == "{":
            return self.array_literal(pos)
        raise FormulaError(f"unexpected {val or 'end'!r}", pos)

    def after_ident(self, ident: str, pos: int) -> Expr:
        if self.at_op("!"):
            self.next()
            kind, val, rpos = self.next()
            m = _A1_RE.match(val) if kind == "ident" else None
            if m is None:
                raise FormulaError("expected cell reference after '!'", rpos)
            start = self.make_addr(m, sheet=ident)
            if self.at_op(":"):
                self.next()
                return NormalCellArea(start, self.area_end(ident))
            return NormalCellRef(start)
        if self.at_op("("):
            self.next()
            args = []
            if not self.at_op(")"):
                args.append(self.comparison())
                while self.at_op(","):
                    self.next()
                    args.append(self.comparison())
            self.expect_op(")")
            return self.make_call(ident.upper(), args, pos)
        m = _A1_RE.match(ident)
        if m is not None:
            start = self.make_addr(m, sheet=None)
            if self.at_op(":"):
                self.next()
                return NormalCellArea(start, self.area_end(None))
            return CellRef(start)
        raise FormulaError(f"unknown name {ident!r}", pos)

    def area_end(self, sheet: str | None) -> CellAddr:
        kind, val, pos = self.next()
        m = _A1_RE.match(val) if kind == "ident" else None
        if m is None:
            raise FormulaError("expected cell reference after ':'", pos)
        return self.make_addr(m, sheet=sheet)

    @staticmethod
    def make_addr(m, sheet: str | None) -> CellAddr:
        return CellAddr(sheet, letters_to_col(m.group(1)), int(m.group(2)))

    @staticmethod
    def make_call(name: str, args: list, pos: int) -> Expr:
        def need(lo, hi=None):
            if len(args) < lo or (hi is not None and len(args) > hi):
                raise FormulaError(f"wrong number of arguments to {name}", pos)

        if name == "IF":
            need(3, 3)
            return If(args[0], args[1], args[2])
        if name == "CHOOSE":
            need(2)
            return Choose(args[0], tuple(args[1:]))
        if name == "AND":
            need(1)
            return And(tuple(args))
        if name == "OR":
            need(1)
            return Or(tuple(args))
        if name == "NOT":
            need(1, 1)
            return Arith1("NOT", args[0])
        if name == "CLOSURE":
            need(1)
            return MakeClosure(args[0], tuple(args[1:]))
        if name == "APPLY":
            need(1)
            return Apply(args[0], tuple(args[1:]))
        return FunctionCall(name, tuple(args))

    def array_literal(self, pos: int) -> Expr:
        rows, row = [], []
        while True:
            row.append(self.array_element())
            if self.at_op(","):
                self.next()
                continue
            rows.append(row)
            if self.at_op(";"):
                self.next()
                row = []
                continue
            break
        self.expect_op("}")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise FormulaError("ragged array literal", pos)
        return Const(ArrayValue(rows))

    def array_element(self) -> Value:
        neg = False
        while self.at_op("-"):
            self.next()
            neg = not neg
        kind, val, pos = self.next()
        if kind == "number":
            d = float(val)
            return Number(-d if neg else d)
        if neg:
            raise FormulaError("expected number", pos)
        if kind == "string":
            return Text(val[1:-1].replace('""', '"'))
        if kind == "error":
            return ErrorValue.intern(val)
        raise FormulaError("expected array element", pos)


def parse_formula(text: str) -> Expr:
    """Parse a formula of the form ``=expr``."""
    stripped = text.lstrip()
    if not stripped.startswith("="):
        raise FormulaError("formula must start with '='", 0)
    offset = len(text) - len(stripped) + 1
    return _Parser(_tokenize(text, offset)).parse()


def parse_expr(text: str) -> Expr:
    """Parse a bare expression (no leading ``=``)."""
    return _Parser(_tokenize(text, 0)).parse()


# --- renderer ----------------------------------------------------------------

# Precedence levels for parenthesization; higher binds tighter.
_LVL_CMP, _LVL_CONCAT, _LVL_ADD, _LVL_MUL, _LVL_POW, _LVL_UNARY, _LVL_ATOM = \
    range(1, 8)

_BIN_LEVEL = {"&": _LVL_CONCAT, "+": _LVL_ADD, "-": _LVL_ADD,
              "*": _LVL_MUL, "/": _LVL_MUL, "^": _LVL_POW}


def render_expr(e: Expr) -> str:
    """Render a tree back to formula text (without the leading ``=``)."""
    return _render(e, 0)


def render_formula(e: Expr) -> str:
    return "=" + _render(e, 0)


def _render(e: Expr, ctx: int) -> str:
    t = type(e)
    if t is Const:
        s = literal(e.value)
        return s if not s.startswith("-") or ctx < _LVL_UNARY else f"({s})"
    if t is CellRef or t is NormalCellRef:
        return e.addr.text()
    if t is NormalCellArea:
        return f"{e.start.text()}:{e.end.local().text()}"
    if t is Arith1:
        if e.op == "NOT":
            return f"NOT({_render(e.arg, 0)})"
        s = "-" + _render(e.arg, _LVL_UNARY)
        return s if ctx < _LVL_UNARY else f"({s})"
    if t is Arith2:
        lvl = _BIN_LEVEL[e.op]
        s = f"{_render(e.left, lvl)}{e.op}{_render(e.right, lvl + 1)}"
        return s if ctx <= lvl else f"({s})"
    if t is Comparison:
        s = f"{_render(e.left, _LVL_CMP)}{e.op}{_render(e.right, _LVL_CMP + 1)}"
        return s if ctx <= _LVL_CMP else f"({s})"
    if t is If:
        return (f"IF({_render(e.cond, 0)},{_render(e.then, 0)},"
                f"{_render(e.other, 0)})")
    if t is Choose:
        inner = ",".join(_render(b, 0) for b in e.branches)
        return f"CHOOSE({_render(e.index, 0)},{inner})"
    if t is And or t is Or:
        name = "AND" if t is And else "OR"
        return f"{name}({','.join(_render(a, 0) for a in e.args)})"
    if t is FunctionCall or t is SdfCall:
        return f"{e.name}({','.join(_render(a, 0) for a in e.args)})"
    if t is MakeClosure:
        parts = [_render(e.fn, 0)] + [_render(a, 0) for a in e.args]
        return f"CLOSURE({','.join(parts)})"
    if t is Apply:
        parts = [_render(e.fn, 0)] + [_render(a, 0) for a in e.args]
        return f"APPLY({','.join(parts)})"
    if t is CachedExpr:
        return _render(e.inner, ctx)
    raise TypeError(f"cannot render {e!r}")
