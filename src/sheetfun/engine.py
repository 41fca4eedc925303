"""Workbook model, builtin functions and the interpretive evaluator.

Recalculation is demand-driven and memoized: each formula cell is
evaluated at most once per generation, and re-entering a cell that is
already being evaluated yields #CYCLE!.  Booleans are numbers (0 is
false, everything else true).  Volatile functions (RAND, NOW) are
re-evaluated once per recalculation, not once per reference.

The interpreter here is the semantic reference: compiled function bodies
must agree with it bit for bit, so both take every scalar operator from
the one table in ``values`` and read areas through ``codegen.read_area``.
"""

from __future__ import annotations

import math
import time

from . import codegen, peval, sdf
from .formula import (
    And, Apply, Arith1, Arith2, CachedExpr, CellAddr, CellRef, Choose,
    Comparison, ErrorConst, Expr, FormulaError, FunctionCall, If,
    MakeClosure, NormalCellArea, NormalCellRef, NumberConst, Or, SdfCall,
    TextConst, ValueConst, parse_formula,
)
from .values import (
    BINARY_OPS, COMPARE_OPS, ERROR_CYCLE, ERROR_DIV0, ERROR_NA, ERROR_NAME,
    ERROR_NUM, ERROR_REF, ERROR_VALUE, UNARY_OPS, ArrayValue, ErrorValue,
    FunctionValue, Number, Text, Value, choose_index, error_nan,
    fconcat_values, fdiv, from_double_or_nan, to_double_or_nan, truth,
)

__all__ = [
    "Workbook", "Sheet", "Cell", "Builtin", "Registry", "default_registry",
    "SplitMix64", "eval_expr",
]

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """Seedable 64-bit-state PRNG backing RAND; replays exactly per seed."""

    __slots__ = ("state",)

    def __init__(self, seed: int = 0):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def next_double(self) -> float:
        return (self.next_u64() >> 11) * 2.0 ** -53


# --- builtins ----------------------------------------------------------------

class Builtin:
    """A callable builtin.

    ``func(args, rt)`` receives evaluated Values and the workbook.  Strict
    builtins never see error arguments; the dispatcher propagates the
    first one instead.  ``dfunc(rt, *doubles)``, when present, is an
    unboxed fast path used by compiled code; it must agree with ``func``.
    """

    __slots__ = ("name", "min_args", "max_args", "func", "volatile",
                 "strict", "dfunc", "special", "numeric", "pure")

    def __init__(self, name, min_args, max_args, func, *, volatile=False,
                 strict=True, dfunc=None, special=False, numeric=False,
                 pure=True):
        self.name = name
        self.min_args = min_args
        self.max_args = max_args
        self.func = func
        self.volatile = volatile
        self.strict = strict
        self.dfunc = dfunc
        self.special = special
        # numeric: the result is always a Number or error, so compiled
        # code may keep it unboxed.
        self.numeric = numeric
        # pure: same arguments, same result, no side effects; the partial
        # evaluator folds calls with known arguments only when set.
        self.pure = pure

    def invoke(self, args: list, rt) -> Value:
        """Apply with arity check and strict error propagation."""
        if not (self.min_args <= len(args) <= self.max_args):
            return ERROR_VALUE
        if self.strict:
            for a in args:
                if type(a) is ErrorValue:
                    return a
        return self.func(args, rt)


class Registry:
    """Name-to-builtin table; duplicate registration is a configuration bug."""

    def __init__(self):
        self._by_name: dict[str, Builtin] = {}

    def register(self, b: Builtin) -> None:
        if b.name in self._by_name:
            raise ValueError(f"builtin {b.name} registered twice")
        self._by_name[b.name] = b

    def get(self, name: str) -> Builtin | None:
        return self._by_name.get(name)

    def names(self) -> list[str]:
        return sorted(self._by_name)

    def clone(self) -> "Registry":
        r = Registry()
        r._by_name = dict(self._by_name)
        return r


def _num(args, k=0) -> float:
    return to_double_or_nan(args[k])


def _each_number(args):
    """Flatten arrays; yield doubles, or raise _ArgError on bad elements."""
    for a in args:
        if type(a) is ArrayValue:
            for elem in a:
                if type(elem) is ErrorValue:
                    raise _ArgError(elem)
                if type(elem) is not Number:
                    raise _ArgError(ERROR_VALUE)
                yield elem.value
        elif type(a) is Number:
            yield a.value
        else:
            raise _ArgError(ERROR_VALUE)


class _ArgError(Exception):
    def __init__(self, error):
        self.error = error


def _d_sqrt(rt, d):
    if d != d:
        return d
    if d < 0:
        return error_nan(ERROR_NUM)
    return math.sqrt(d)


def _d_exp(rt, d):
    if d != d:
        return d
    try:
        return math.exp(d)
    except OverflowError:
        return math.inf


def _d_ln(rt, d):
    if d != d:
        return d
    if d <= 0:
        return error_nan(ERROR_NUM)
    return math.log(d)


def _d_abs(rt, d):
    if d != d:
        return d
    return abs(d)


def _d_mod(rt, a, b):
    if a != a:
        return a
    if b != b:
        return b
    try:
        return a % b
    except ZeroDivisionError:
        return error_nan(ERROR_DIV0)
    except ValueError:
        return error_nan(ERROR_NUM)


def _d_quotient(rt, a, b):
    if a != a:
        return a
    if b != b:
        return b
    d = fdiv(a, b)
    if d != d:
        return d
    try:
        return float(math.trunc(d))
    except (OverflowError, ValueError):
        return error_nan(ERROR_NUM)


def _d_floor(rt, d):
    if d != d:
        return d
    if math.isinf(d):
        return d
    return float(math.floor(d))


def _d_trunc(rt, d):
    if d != d:
        return d
    if math.isinf(d):
        return d
    return float(math.trunc(d))


def _d_rand(rt):
    return rt.rng.next_double()


def _wrap1(dfunc):
    return lambda args, rt: from_double_or_nan(dfunc(rt, _num(args)))


def _wrap2(dfunc):
    return lambda args, rt: from_double_or_nan(dfunc(rt, _num(args), _num(args, 1)))


def _floor_fn(args, rt):
    d = _num(args)
    if len(args) == 1:
        return from_double_or_nan(_d_floor(rt, d))
    s = _num(args, 1)
    if d != d:
        return from_double_or_nan(d)
    if s != s:
        return from_double_or_nan(s)
    if s == 0:
        return ERROR_DIV0
    return from_double_or_nan(_d_floor(rt, fdiv(d, s)) * s)


def _minmax_fn(pick):
    def fn(args, rt):
        try:
            ds = list(_each_number(args))
        except _ArgError as ex:
            return ex.error
        return Number(pick(ds))
    return fn


def _sum_fn(args, rt):
    try:
        total = math.fsum(_each_number(args))
    except _ArgError as ex:
        return ex.error
    return Number(total)


def _concat_fn(args, rt):
    out = Text("")
    for a in args:
        out = fconcat_values(out, a)
        if type(out) is ErrorValue:
            return out
    return out


def _err_fn(args, rt):
    if type(args[0]) is not Text:
        return ERROR_VALUE
    return ErrorValue.intern("#ERR:" + args[0].value)


def _iserror_fn(args, rt):
    return Number(1.0 if type(args[0]) is ErrorValue else 0.0)


def _now_fn(args, rt):
    # Spreadsheet serial date: days since 1899-12-30 (Unix epoch = 25569).
    return Number(time.time() / 86400.0 + 25569.0)


def _specialize_fn(args, rt):
    fv = args[0]
    if type(fv) is not FunctionValue:
        return ERROR_VALUE
    return rt.specializer.specialize(fv)


def _benchmark_fn(args, rt):
    from .cli import benchmark  # local import, cli sits above engine
    fv, count = args[0], args[1]
    if type(fv) is not FunctionValue or fv.arity != 0:
        return ERROR_VALUE
    if type(count) is not Number or count.value < 1:
        return ERROR_VALUE
    return Number(benchmark(rt, fv, int(count.value)))


def _build_default_registry() -> Registry:
    r = Registry()
    big = 255

    def add(name, lo, hi, func, **kw):
        r.register(Builtin(name, lo, hi, func, **kw))

    add("SQRT", 1, 1, _wrap1(_d_sqrt), dfunc=_d_sqrt, numeric=True)
    add("EXP", 1, 1, _wrap1(_d_exp), dfunc=_d_exp, numeric=True)
    add("LN", 1, 1, _wrap1(_d_ln), dfunc=_d_ln, numeric=True)
    add("ABS", 1, 1, _wrap1(_d_abs), dfunc=_d_abs, numeric=True)
    add("MOD", 2, 2, _wrap2(_d_mod), dfunc=_d_mod, numeric=True)
    add("QUOTIENT", 2, 2, _wrap2(_d_quotient), dfunc=_d_quotient,
        numeric=True)
    add("TRUNC", 1, 1, _wrap1(_d_trunc), dfunc=_d_trunc, numeric=True)
    add("FLOOR", 1, 2, _floor_fn, numeric=True)
    add("MIN", 1, big, _minmax_fn(min), numeric=True)
    add("MAX", 1, big, _minmax_fn(max), numeric=True)
    add("SUM", 1, big, _sum_fn, numeric=True)
    add("CONCAT", 1, big, _concat_fn)
    add("RAND", 0, 0, lambda args, rt: Number(rt.rng.next_double()),
        volatile=True, dfunc=_d_rand, numeric=True, pure=False)
    add("NOW", 0, 0, _now_fn, volatile=True, numeric=True, pure=False)
    add("ERR", 1, 1, _err_fn, numeric=True)
    add("NA", 0, 0, lambda args, rt: ERROR_NA, numeric=True)
    add("ISERROR", 1, 1, _iserror_fn, strict=False, numeric=True)
    add("TRUE", 0, 0, lambda args, rt: Number(1.0), numeric=True)
    add("FALSE", 0, 0, lambda args, rt: Number(0.0), numeric=True)
    add("SPECIALIZE", 1, 1, _specialize_fn, volatile=True, pure=False)
    add("BENCHMARK", 2, 2, _benchmark_fn, volatile=True, numeric=True,
        pure=False)
    add("DEFINE", 2, big, None, special=True, volatile=True, pure=False)
    return r


_DEFAULT_REGISTRY = _build_default_registry()


def default_registry() -> Registry:
    return _DEFAULT_REGISTRY


# --- workbook ----------------------------------------------------------------

class Cell:
    __slots__ = ("content", "cached", "cached_gen")

    def __init__(self, content):
        self.content = content      # Value for constants, Expr for formulas
        self.cached = None
        self.cached_gen = -1


class Sheet:
    """A named grid; ``kind`` is 'ordinary' or 'function'."""

    def __init__(self, name: str, kind: str = "ordinary"):
        self.name = name
        self.kind = kind
        self.cells: dict[tuple[int, int], Cell] = {}

    def cell(self, addr: CellAddr) -> Cell | None:
        return self.cells.get((addr.col, addr.row))

    def set(self, addr: CellAddr, content) -> None:
        self.cells[(addr.col, addr.row)] = Cell(content)

    def sorted_addrs(self) -> list[CellAddr]:
        keys = sorted(self.cells, key=lambda k: (k[1], k[0]))
        return [CellAddr(self.name, c, r) for c, r in keys]


class Workbook:
    """Sheets plus the function table, specializer, PRNG and options."""

    def __init__(self, seed: int = 0, registry: Registry | None = None,
                 spec_limit: int = 100, strict_simplify: bool = False):
        self.sheets: dict[str, Sheet] = {}
        self.generation = 0
        self.rng = SplitMix64(seed)
        self.registry = registry or default_registry()
        self.function_table = sdf.FunctionTable()
        self.specializer = peval.Specializer(
            self, limit=spec_limit, strict_simplify=strict_simplify)
        self.diagnostics: list[str] = []
        self._inflight: set[tuple[str, int, int]] = set()

    # -- sheet and cell management

    def add_sheet(self, name: str, kind: str = "ordinary") -> Sheet:
        if name in self.sheets:
            raise ValueError(f"sheet {name} already exists")
        sheet = Sheet(name, kind)
        self.sheets[name] = sheet
        return sheet

    def sheet(self, name: str) -> Sheet | None:
        return self.sheets.get(name)

    def set_cell(self, addr: CellAddr, text: str) -> None:
        """Set a cell from source text: a formula or a constant."""
        sheet = self.sheets[addr.sheet]
        sheet.set(addr, parse_content(text))

    def log_diagnostic(self, message: str) -> None:
        self.diagnostics.append(message)

    # -- evaluation

    def get_value(self, addr: CellAddr) -> Value:
        sheet = self.sheets.get(addr.sheet)
        if sheet is None:
            return ERROR_REF
        cell = sheet.cell(addr)
        if cell is None:
            return Number(0.0)
        content = cell.content
        if isinstance(content, Value):
            return content
        if cell.cached_gen == self.generation:
            return cell.cached
        key = (addr.sheet, addr.col, addr.row)
        if key in self._inflight:
            return ERROR_CYCLE
        self._inflight.add(key)
        try:
            v = eval_expr(content, addr, self)
        finally:
            self._inflight.discard(key)
        cell.cached = v
        cell.cached_gen = self.generation
        return v

    def recalculate(self) -> None:
        """Start a new generation and recompute every formula cell."""
        self.generation += 1
        for sheet in self.sheets.values():
            if sheet.kind != "function":
                continue
            for addr in sheet.sorted_addrs():
                content = sheet.cell(addr).content
                if isinstance(content, FunctionCall) and content.name == "DEFINE":
                    self.get_value(addr)
        for sheet in self.sheets.values():
            if sheet.kind != "ordinary":
                continue
            for addr in sheet.sorted_addrs():
                if isinstance(sheet.cell(addr).content, Expr):
                    self.get_value(addr)

    def eval_formula(self, text: str, sheet: str | None = None) -> Value:
        """Parse and evaluate a formula in the context of ``sheet``."""
        if sheet is None:
            sheet = next(iter(self.sheets), None)
        at = CellAddr(sheet, 1, 1)
        return eval_expr(parse_formula(text), at, self)


def parse_content(text: str):
    """Parse cell source text: ``=formula``, number, string or error."""
    stripped = text.strip()
    if stripped.startswith("="):
        return parse_formula(stripped)
    if stripped.startswith('"') and stripped.endswith('"') and len(stripped) >= 2:
        return Text(stripped[1:-1].replace('""', '"'))
    if stripped.startswith("#"):
        return ErrorValue.intern(stripped)
    try:
        return Number(float(stripped))
    except ValueError:
        return Text(stripped)


# --- the interpreter ---------------------------------------------------------

def eval_expr(e: Expr, at: CellAddr, wb: Workbook) -> Value:
    """Evaluate an expression tree at a cell address (the reference point
    for sheet-local references)."""
    t = type(e)
    if t is NumberConst:
        return Number(e.value)
    if t is TextConst:
        return Text(e.value)
    if t is ErrorConst:
        return e.error
    if t is ValueConst:
        return e.value
    if t is CellRef or t is NormalCellRef:
        addr = e.addr
        if addr.sheet is None:
            addr = addr.on(at.sheet)
        return wb.get_value(addr)
    if t is NormalCellArea:
        return codegen.read_area(wb, e.start, e.end, at.sheet)
    if t is Arith2:
        return _eval_arith2(e, at, wb)
    if t is Comparison:
        return _eval_comparison(e, at, wb)
    if t is Arith1:
        d = to_double_or_nan(eval_expr(e.arg, at, wb))
        return from_double_or_nan(UNARY_OPS[e.op](d))
    if t is If:
        c = truth(eval_expr(e.cond, at, wb))
        if isinstance(c, Value):
            return c
        return eval_expr(e.then if c else e.other, at, wb)
    if t is Choose:
        return _eval_choose(e, at, wb)
    if t is And or t is Or:
        want = t is Or
        for a in e.args:
            c = truth(eval_expr(a, at, wb))
            if isinstance(c, Value):
                return c
            if c is want:
                return Number(1.0 if want else 0.0)
        return Number(0.0 if want else 1.0)
    if t is FunctionCall:
        return _eval_call(e, at, wb)
    if t is SdfCall:
        argv = [eval_expr(a, at, wb) for a in e.args]
        return wb.function_table.call(e.target, argv, wb)
    if t is MakeClosure:
        return _eval_make_closure(e, at, wb)
    if t is Apply:
        return _eval_apply(e, at, wb)
    if t is CachedExpr:
        return eval_expr(e.inner, at, wb)
    raise TypeError(f"cannot evaluate {e!r}")


def _eval_arith2(e: Arith2, at: CellAddr, wb: Workbook) -> Value:
    a = eval_expr(e.left, at, wb)
    b = eval_expr(e.right, at, wb)
    if e.op == "&":
        return fconcat_values(a, b)
    return from_double_or_nan(BINARY_OPS[e.op](to_double_or_nan(a),
                                               to_double_or_nan(b)))


def _eval_comparison(e: Comparison, at: CellAddr, wb: Workbook) -> Value:
    a = to_double_or_nan(eval_expr(e.left, at, wb))
    if a != a:
        return from_double_or_nan(a)
    b = to_double_or_nan(eval_expr(e.right, at, wb))
    if b != b:
        return from_double_or_nan(b)
    return Number(1.0 if COMPARE_OPS[e.op](a, b) else 0.0)


def _eval_choose(e: Choose, at: CellAddr, wb: Workbook) -> Value:
    d = to_double_or_nan(eval_expr(e.index, at, wb))
    if d != d:
        return from_double_or_nan(d)
    k = choose_index(d, len(e.branches))
    if k is None:
        return ERROR_VALUE
    return eval_expr(e.branches[k], at, wb)


def _eval_call(e: FunctionCall, at: CellAddr, wb: Workbook) -> Value:
    b = wb.registry.get(e.name)
    if b is not None:
        if b.special:
            if e.name == "DEFINE":
                return _eval_define(e, at, wb)
            return ERROR_VALUE
        argv = [eval_expr(a, at, wb) for a in e.args]
        return b.invoke(argv, wb)
    target = wb.function_table.lookup_name(e.name)
    if target is None:
        return ERROR_NAME
    argv = [eval_expr(a, at, wb) for a in e.args]
    return wb.function_table.call(target, argv, wb)


def _eval_define(e: FunctionCall, at: CellAddr, wb: Workbook) -> Value:
    args = e.args
    ok = (len(args) >= 2 and type(args[0]) is TextConst
          and all(type(a) is CellRef for a in args[1:]))
    if not ok:
        wb.log_diagnostic(f"DEFINE at {at.text()}: expected "
                          '=DEFINE("NAME", out, in1, ...) with plain cell refs')
        return ERROR_VALUE
    sheet = wb.sheets.get(at.sheet)
    if sheet is None or sheet.kind != "function":
        wb.log_diagnostic(f"DEFINE at {at.text()}: only allowed on a "
                          "function sheet")
        return ERROR_VALUE
    name = args[0].value
    out = args[1].addr.on(at.sheet)
    ins = [a.addr.on(at.sheet) for a in args[2:]]
    try:
        info = sdf.define(wb, name, out, ins)
    except sdf.DefineError as ex:
        wb.log_diagnostic(f"DEFINE at {at.text()}: {ex}")
        return ErrorValue.intern("#ERR:DEFINE")
    return Text(info.name)


def _eval_make_closure(e: MakeClosure, at: CellAddr, wb: Workbook) -> Value:
    fnv = eval_expr(e.fn, at, wb)
    argv = [eval_expr(a, at, wb) for a in e.args]
    return wb.function_table.make_closure(fnv, argv)


def _eval_apply(e: Apply, at: CellAddr, wb: Workbook) -> Value:
    fnv = eval_expr(e.fn, at, wb)
    if type(fnv) is ErrorValue:
        return fnv
    if type(fnv) is not FunctionValue:
        return ERROR_VALUE
    argv = [eval_expr(a, at, wb) for a in e.args]
    return wb.function_table.apply(fnv, argv, wb)
