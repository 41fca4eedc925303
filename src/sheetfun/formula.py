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

Tree nodes and ``CellAddr`` are plain ``__slots__`` classes.  They
compare and hash as a frozen dataclass would, by class and field tuple,
and are never changed after they are built.

A formula nests at most ``MAX_NESTING`` levels deep, counting
parentheses, call argument lists, array braces and unary signs; a deeper
one is a ``FormulaError``, so parsing never runs out of Python stack.

``parse_formula`` and ``render_formula`` round-trip: parsing a rendered
tree yields an equal tree.
"""

from __future__ import annotations

import re
from operator import attrgetter, itemgetter

from .values import ArrayValue, ErrorValue, Number, Text, Value, literal

__all__ = [
    "CellAddr", "FormulaError", "parse_formula", "parse_expr",
    "render_expr", "render_formula", "col_to_letters", "letters_to_col",
    "Expr", "Const", "CellRef", "NormalCellRef", "NormalCellArea", "Arith1",
    "Arith2", "Comparison", "FunctionCall", "SdfCall", "MakeClosure", "Apply",
    "If", "Choose", "And", "Or", "LEAF_TYPES", "children", "with_children",
    "map_children", "walk", "PARSER_FORMS", "SIGNED_NUMBER_RE", "MAX_NESTING",
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
    col = _COLUMNS.get(letters)
    if col is not None:
        return col
    col = 0
    for ch in letters.upper():
        col = col * 26 + (ord(ch) - ord("A") + 1)
    return col


# The columns of the names of one or two letters, upper case.
_COLUMNS = {col_to_letters(c): c for c in range(1, 703)}


class _Record:
    """Equality, hashing and repr as a frozen dataclass has them, over the
    fields named in ``__slots__``: two records are equal when they are of
    the same class and their field tuples are equal, and a record hashes
    as its field tuple.  Records are immutable: nothing assigns to a
    field after ``__init__``."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        names = cls.__slots__
        if names:
            get = attrgetter(*names)
            cls._fields = staticmethod(
                get if len(names) > 1 else lambda e: (get(e),))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields(self) == other._fields(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._fields(self))

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


class CellAddr(_Record):
    """A cell position; ``sheet`` is None for sheet-local references."""

    __slots__ = ("sheet", "col", "row")

    def __init__(self, sheet: str | None, col: int, row: int):
        self.sheet = sheet
        self.col = col
        self.row = row

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

class Expr(_Record):
    __slots__ = ()


class Const(Expr):
    """A constant: any spreadsheet value (number, text, error, array,
    closure) embedded in a tree."""

    __slots__ = ("value",)

    def __init__(self, value: Value):
        self.value = value


class CellRef(Expr):
    """Reference to a cell of the enclosing (function) sheet."""

    __slots__ = ("addr",)

    def __init__(self, addr: CellAddr):
        self.addr = addr


class NormalCellRef(Expr):
    """Reference to a cell of an ordinary sheet."""

    __slots__ = ("addr",)

    def __init__(self, addr: CellAddr):
        self.addr = addr


class NormalCellArea(Expr):
    __slots__ = ("start", "end")

    def __init__(self, start: CellAddr, end: CellAddr):
        self.start = start
        self.end = end


class Arith1(Expr):
    """Unary operator: '-' or 'NOT'."""

    __slots__ = ("op", "arg")

    def __init__(self, op: str, arg: Expr):
        self.op = op
        self.arg = arg


class Arith2(Expr):
    """Binary operator: + - * / ^ &."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr):
        self.op = op
        self.left = left
        self.right = right


class Comparison(Expr):
    """Relational operator: = <> < <= > >=."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr):
        self.op = op
        self.left = left
        self.right = right


class FunctionCall(Expr):
    """Call by name; resolved against builtins and defined functions."""

    __slots__ = ("name", "args")

    def __init__(self, name: str, args: tuple):
        self.name = name
        self.args = args


class SdfCall(Expr):
    """Resolved call to a sheet-defined function (late-bound by id)."""

    __slots__ = ("target", "name", "args")

    def __init__(self, target: int, name: str, args: tuple):
        self.target = target
        self.name = name
        self.args = args


class MakeClosure(Expr):
    """CLOSURE(fn, args...): build a FunctionValue, #NA args are holes."""

    __slots__ = ("fn", "args")

    def __init__(self, fn: Expr, args: tuple):
        self.fn = fn
        self.args = args


class Apply(Expr):
    """APPLY(fn, args...): fill a closure's holes and call it."""

    __slots__ = ("fn", "args")

    def __init__(self, fn: Expr, args: tuple):
        self.fn = fn
        self.args = args


class If(Expr):
    __slots__ = ("cond", "then", "other")

    def __init__(self, cond: Expr, then: Expr, other: Expr):
        self.cond = cond
        self.then = then
        self.other = other


class Choose(Expr):
    __slots__ = ("index", "branches")

    def __init__(self, index: Expr, branches: tuple):
        self.index = index
        self.branches = branches


class And(Expr):
    __slots__ = ("args",)

    def __init__(self, args: tuple):
        self.args = args


class Or(Expr):
    __slots__ = ("args",)

    def __init__(self, args: tuple):
        self.args = args


def _leaf(e):
    return ()


# Per node type: its children in order, and how to rebuild the node from
# new children.  This table is the only place that knows a node's
# children; every traversal goes through children(), with_children() or
# map_children().
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
}
LEAF_TYPES = frozenset((Const, CellRef, NormalCellRef, NormalCellArea))
_SHAPES.update((t, (_leaf, None)) for t in LEAF_TYPES)


def children(e: Expr) -> tuple:
    """The direct subexpressions of a node, in evaluation order."""
    return _SHAPES[type(e)][0](e)


def with_children(e: Expr, kids: tuple) -> Expr:
    """A node like ``e`` with the children ``kids``, in children() order;
    ``e`` must not be a leaf."""
    return _SHAPES[type(e)][1](e, kids)


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

_NUMBER = r"(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?"
# A number token after an optional sign: the text of a numeric constant cell.
SIGNED_NUMBER_RE = re.compile(r"[+-]?" + _NUMBER)

# One token per match: leading whitespace, then exactly one of the
# groups number, string, error, ident, op; the last group catches a
# character no token starts with.  ``findall`` yields the tokens of a
# whole formula as tuples of the six groups, the five empty ones "".
_TOKEN_RE = re.compile(
    r"""\s*(?:
      (""" + _NUMBER + r""")
    | ("(?:[^"]|"")*")
    | (\#ERR:[^\s,;()]+|\#DIV/0!|\#VALUE!|\#NAME\?|\#NUM!|\#REF!|\#CYCLE!|\#NA)
    | ([A-Za-z_][A-Za-z0-9_.]*)
    | (<>|<=|>=|[<>=+\-*/^&(),:!{};])
    | (\S))
    """,
    re.VERBOSE,
)
# Indexes into a token tuple.
_IDENT, _OP, _BAD = 3, 4, 5
_EOF = ("", "", "", "", "", "")
_bad_field = itemgetter(_BAD)

_A1_RE = re.compile(r"^([A-Za-z]{1,3})(\d+)$")


def _tokenize(text: str, start: int) -> list:
    """The token tuples of ``text[start:]``, ending with ``_EOF``."""
    tokens = _TOKEN_RE.findall(text, start)
    if any(map(_bad_field, tokens)):
        i = next(i for i, t in enumerate(tokens) if t[_BAD])
        raise FormulaError(f"bad character {tokens[i][_BAD]!r}",
                           _token_pos(text, start, i))
    tokens.append(_EOF)
    return tokens


def _token_pos(text: str, start: int, i: int) -> int:
    """The position of token ``i`` of ``text[start:]``; the end of the
    text for the end token.  Only error messages need one."""
    for k, m in enumerate(_TOKEN_RE.finditer(text, start)):
        if k == i:
            return m.start(m.lastindex)
    return len(text)


# --- parser ------------------------------------------------------------------

# Precedence levels, for parsing and for parenthesization; higher binds
# tighter.  Every binary operator is left-associative.
_LVL_CMP, _LVL_CONCAT, _LVL_ADD, _LVL_MUL, _LVL_POW, _LVL_UNARY, _LVL_ATOM = \
    range(1, 8)

_BIN_LEVEL = {"=": _LVL_CMP, "<>": _LVL_CMP, "<": _LVL_CMP, "<=": _LVL_CMP,
              ">": _LVL_CMP, ">=": _LVL_CMP, "&": _LVL_CONCAT,
              "+": _LVL_ADD, "-": _LVL_ADD, "*": _LVL_MUL, "/": _LVL_MUL,
              "^": _LVL_POW}

# Call names the parser turns into nodes of their own (see make_call).
PARSER_FORMS = frozenset(
    ("IF", "CHOOSE", "AND", "OR", "NOT", "CLOSURE", "APPLY"))

# The deepest nesting a formula may have.  A parenthesis, a call's
# argument list, an array's braces and a unary sign each open a level.
# A level costs the parser at most two Python frames (``expr`` and
# ``operand``), so a formula at the bound parses with room to spare
# under the default recursion limit.
MAX_NESTING = 256


class _Parser:
    """Recursive descent over the token tuples, read by index."""

    __slots__ = ("text", "start", "toks", "i", "depth")

    def __init__(self, text: str, start: int):
        self.text = text
        self.start = start
        self.toks = _tokenize(text, start)
        self.i = 0
        self.depth = 0

    def error(self, message: str, i: int) -> FormulaError:
        return FormulaError(message, _token_pos(self.text, self.start, i))

    def unexpected(self, i: int) -> FormulaError:
        return self.error(f"unexpected {''.join(self.toks[i]) or 'end'!r}", i)

    def nest(self, i: int) -> None:
        """Open a nesting level at token ``i``; its end lowers ``depth``."""
        if self.depth == MAX_NESTING:
            raise self.error("formula nested too deeply", i)
        self.depth += 1

    def expect(self, op: str) -> None:
        i = self.i
        tok = self.toks[i]
        if tok[_OP] != op:
            raise self.error(
                f"expected {op!r}, found {''.join(tok) or 'end'!r}", i)
        self.i = i + 1

    def parse(self) -> Expr:
        e = self.expr()
        if self.i != len(self.toks) - 1:
            raise self.unexpected(self.i)
        return e

    def expr(self) -> Expr:
        """Operands joined by binary operators.  Operators wait on a stack
        until one that binds no tighter arrives, which folds them to the
        left, so every level is left-associative."""
        e = self.operand()
        toks = self.toks
        pending = []
        while True:
            op = toks[self.i][_OP]
            lvl = _BIN_LEVEL.get(op, 0)
            while pending and pending[-1][0] >= lvl:
                plvl, pop, left = pending.pop()
                e = (Comparison(pop, left, e) if plvl == _LVL_CMP
                     else Arith2(pop, left, e))
            if not lvl:
                return e
            pending.append((lvl, op, e))
            self.i += 1
            e = self.operand()

    def operand(self) -> Expr:
        """An atom after any unary signs.  The parts of an operand are
        parsed in this one frame, so that each nesting level costs only
        this frame and ``expr``'s."""
        toks = self.toks
        first = i = self.i
        number, string, error, ident, op, _ = toks[i]
        while op == "-" or op == "+":
            self.nest(i)
            i += 1
            number, string, error, ident, op, _ = toks[i]
        self.i = i + 1
        if number:
            e = Const(Number(float(number)))
        elif ident:
            after = toks[i + 1][_OP]
            if after == "(":
                self.nest(i + 1)
                self.i = i + 2
                args = []
                if toks[i + 2][_OP] != ")":
                    args.append(self.expr())
                    while toks[self.i][_OP] == ",":
                        self.i += 1
                        args.append(self.expr())
                self.expect(")")
                self.depth -= 1
                e = self.make_call(ident.upper(), args, i)
            elif after == "!":
                m = _A1_RE.match(toks[i + 2][_IDENT])
                if m is None:
                    raise self.error("expected cell reference after '!'",
                                     i + 2)
                self.i = i + 3
                e = self.reference(m, ident, NormalCellRef)
            else:
                m = _A1_RE.match(ident)
                if m is None:
                    raise self.error(f"unknown name {ident!r}", i)
                e = self.reference(m, None, CellRef)
        elif op == "(":
            self.nest(i)
            e = self.expr()
            self.expect(")")
            self.depth -= 1
        elif string:
            e = Const(Text(string[1:-1].replace('""', '"')))
        elif error:
            e = Const(ErrorValue.intern(error))
        elif op == "{":
            self.nest(i)
            e = self.array_literal(i)
            self.depth -= 1
        else:
            raise self.unexpected(i)
        if i != first:
            # Fold each minus into a number literal, so -5 parses the same
            # as a rendered Const(Number(-5)); a plus changes nothing.
            self.depth -= i - first
            for k in range(i - 1, first - 1, -1):
                if toks[k][_OP] == "-":
                    e = (Const(Number(-e.value.value))
                         if type(e) is Const and type(e.value) is Number
                         else Arith1("-", e))
        return e

    def reference(self, m, sheet: str | None, node) -> Expr:
        """The cell reference ``node`` at the A1 match ``m``, or the area
        it starts; the token after it is current."""
        start = _addr(m, sheet)
        i = self.i
        if self.toks[i][_OP] != ":":
            return node(start)
        m = _A1_RE.match(self.toks[i + 1][_IDENT])
        if m is None:
            raise self.error("expected cell reference after ':'", i + 1)
        self.i = i + 2
        return NormalCellArea(start, _addr(m, sheet))

    def make_call(self, name: str, args: list, i: int) -> Expr:
        def need(lo, hi=None):
            if len(args) < lo or (hi is not None and len(args) > hi):
                raise self.error(f"wrong number of arguments to {name}", i)

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

    def array_literal(self, i: int) -> Expr:
        """The array whose ``{`` is token ``i``."""
        toks = self.toks
        rows, row = [], []
        while True:
            row.append(self.array_element())
            op = toks[self.i][_OP]
            if op == ",":
                self.i += 1
                continue
            rows.append(row)
            if op == ";":
                self.i += 1
                row = []
                continue
            break
        self.expect("}")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise self.error("ragged array literal", i)
        return Const(ArrayValue(rows))

    def array_element(self) -> Value:
        toks = self.toks
        i = self.i
        neg = False
        while toks[i][_OP] == "-":
            i += 1
            neg = not neg
        number, string, error, _, _, _ = toks[i]
        self.i = i + 1
        if number:
            d = float(number)
            return Number(-d if neg else d)
        if neg:
            raise self.error("expected number", i)
        if string:
            return Text(string[1:-1].replace('""', '"'))
        if error:
            return ErrorValue.intern(error)
        raise self.error("expected array element", i)


def _addr(m, sheet: str | None) -> CellAddr:
    letters, digits = m.groups()
    return CellAddr(sheet, letters_to_col(letters), int(digits))


def parse_formula(text: str) -> Expr:
    """Parse a formula of the form ``=expr``."""
    stripped = text.lstrip()
    if not stripped.startswith("="):
        raise FormulaError("formula must start with '='", 0)
    return _Parser(text, len(text) - len(stripped) + 1).parse()


def parse_expr(text: str) -> Expr:
    """Parse a bare expression (no leading ``=``)."""
    return _Parser(text, 0).parse()


# --- renderer ----------------------------------------------------------------

def render_expr(e: Expr) -> str:
    """Render a tree back to formula text (without the leading ``=``)."""
    return _render(e, 0)


def render_formula(e: Expr) -> str:
    return "=" + _render(e, 0)


# The forms rendered as a call of their children, by the name they parse by.
_FORM_NAMES = {If: "IF", Choose: "CHOOSE", And: "AND", Or: "OR",
               MakeClosure: "CLOSURE", Apply: "APPLY"}


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
    if t is Arith2 or t is Comparison:
        lvl = _BIN_LEVEL[e.op]
        s = f"{_render(e.left, lvl)}{e.op}{_render(e.right, lvl + 1)}"
        return s if ctx <= lvl else f"({s})"
    if t is FunctionCall or t is SdfCall:
        name = e.name
    elif t in _FORM_NAMES:
        name = _FORM_NAMES[t]
    else:
        raise TypeError(f"cannot render {e!r}")
    # A plain loop, not a generator: one frame per level of nesting.
    parts = []
    for c in children(e):
        parts.append(_render(c, 0))
    return f"{name}({','.join(parts)})"
