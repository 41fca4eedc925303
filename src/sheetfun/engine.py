"""Workbook model, builtin functions and the interpretive evaluator.

Recalculation is demand-driven, memoized and incremental, with early
cutoff.  Each evaluation of a formula cell records the cells it read, in
read order, as its inputs, and each of those records it as a reader, so
the workbook keeps a support graph that covers all read paths: the
interpreter, compiled function bodies and area reads.  ``set_cell``, a
volatile cell and an edit on a function sheet mark their own cells
dirty; the cells that transitively read them are only unverified.
``recalculate`` evaluates a dirty cell.  An unverified cell brings its
recorded inputs current, in order, and is evaluated only if one of them
changed value since it read it; values are compared bit for bit through
``values.value_key``.  A cell whose value comes out the same stops the
recalculation there, and every cell no mark reached is left as it is.  A
cell is volatile when its last evaluation ran a volatile builtin
(DEFINE, RAND, NOW, SPECIALIZE, ...), so every DEFINE re-runs on every
recalculation.  An edit on a function sheet marks dirty every cell whose
last evaluation used the function table; DEFINE links calls by name, so
a function's code depends only on its own function sheet, and a function
lives only as long as the DEFINE cell that installed it.

Re-entering a cell that is already being evaluated or verified yields
#CYCLE!.  A nested verification or evaluation that runs out of Python
stack unwinds to the outermost read, which brings the deeper cell
current first and retries with the generator rewound, so chains of any
depth compute at the default recursion limit and draw each RAND number
once, in the order of plain recursion wherever that fits on the stack.
Booleans are numbers (0 is false, everything else true).

The interpreter here is the semantic reference: compiled function bodies
must agree with it bit for bit, so both take every scalar operator from
the one table in ``values`` and read areas through ``codegen.read_area``.
"""

from __future__ import annotations

import gc
import math
import time

from . import codegen, peval, sdf
from .formula import (
    And, Apply, Arith1, Arith2, CellAddr, CellRef, Choose, Comparison, Const,
    Expr, FunctionCall, If, MakeClosure, NormalCellArea, NormalCellRef, Or,
    SIGNED_NUMBER_RE, parse_formula, with_children,
)
from .values import (
    BINARY_OPS, COMPARE_OPS, ERROR_CYCLE, ERROR_DIV0, ERROR_NA, ERROR_NUM,
    ERROR_REF, ERROR_VALUE, UNARY_OPS, ArrayValue, ErrorValue,
    FunctionValue, Number, Text, Value, choose, error_nan, fconcat_values,
    fdiv, from_double_or_nan, to_double_or_nan, truth, unusable, value_key,
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

    ``func(args, rt)`` receives evaluated Values, errors too, and the
    workbook (None for DEFINE, which the interpreter runs itself).  It
    reads the arguments in order, and the first one it cannot use
    decides the result: an error as itself, anything else as #VALUE!.
    ``dfunc(rt, *doubles)``, when present, is the builtin on raw doubles
    with errors as NaNs, where that rule is "return the first NaN";
    compiled code calls it, and ``_boxed`` derives ``func`` from it.
    ``numeric``: the result is always a Number or an error, so compiled
    code may keep it unboxed.  The partial evaluator folds a call of
    any builtin that is not ``volatile``.
    """

    __slots__ = ("name", "min_args", "max_args", "func", "volatile",
                 "dfunc", "numeric")

    def __init__(self, name, min_args, max_args, func, *, volatile=False,
                 dfunc=None, numeric=False):
        self.name = name
        self.min_args = min_args
        self.max_args = max_args
        self.func = func
        self.volatile = volatile
        self.dfunc = dfunc
        self.numeric = numeric

    def invoke(self, args: list, rt) -> Value:
        """Apply with an arity check."""
        if not (self.min_args <= len(args) <= self.max_args):
            return ERROR_VALUE
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

    def clone(self) -> "Registry":
        r = Registry()
        r._by_name = dict(self._by_name)
        return r


def _numbers(args):
    """The doubles of ``args``, arrays flattened, or else what the first
    argument or array element that is not a number gives."""
    ds = []
    for a in args:
        for x in (a if type(a) is ArrayValue else (a,)):
            if type(x) is not Number:
                return unusable(x)
            ds.append(x.value)
    return ds


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


def _d_floor(rt, d, step=1.0):
    if d != d:
        return d
    if step != step:
        return step
    if step == 0:
        return error_nan(ERROR_DIV0)
    q = d / step
    if math.isfinite(q):
        q = float(math.floor(q))
    return q * step


def _d_trunc(rt, d):
    if d != d:
        return d
    if math.isinf(d):
        return d
    return float(math.trunc(d))


def _d_rand(rt):
    return rt.rng.next_double()


def _boxed(dfunc):
    """The boxed form of a builtin written on doubles."""
    return lambda args, rt: from_double_or_nan(
        dfunc(rt, *map(to_double_or_nan, args)))


def _minmax_fn(pick):
    def fn(args, rt):
        ds = _numbers(args)
        return Number(pick(ds)) if type(ds) is list else ds
    return fn


def _sum_fn(args, rt):
    ds = _numbers(args)
    if type(ds) is not list:
        return ds
    try:
        return Number(math.fsum(ds))
    except (OverflowError, ValueError):
        # fsum raises on overflow and on inf-inf; answer as chained + does.
        total = 0.0
        for d in ds:
            total += d
        return from_double_or_nan(total)


def _concat_fn(args, rt):
    out = Text("")
    for a in args:
        out = fconcat_values(out, a)
        if type(out) is ErrorValue:
            return out
    return out


def _err_fn(args, rt):
    if type(args[0]) is not Text:
        return unusable(args[0])
    return ErrorValue.intern("#ERR:" + args[0].value)


def _iserror_fn(args, rt):
    return Number(1.0 if type(args[0]) is ErrorValue else 0.0)


def _now_fn(args, rt):
    # Spreadsheet serial date: days since 1899-12-30 (Unix epoch = 25569).
    return Number(time.time() / 86400.0 + 25569.0)


def _specialize_fn(args, rt):
    fv = args[0]
    if type(fv) is not FunctionValue:
        return unusable(fv)
    return rt.specializer.specialize(fv)


def _benchmark_fn(args, rt):
    from .cli import benchmark  # local import, cli sits above engine
    fv, count = args[0], args[1]
    if type(fv) is not FunctionValue or fv.arity != 0:
        return unusable(fv)
    if type(count) is not Number or not 1 <= count.value < math.inf:
        return unusable(count)
    return Number(benchmark(rt, fv, int(count.value)))


def _build_default_registry() -> Registry:
    r = Registry()
    big = 255

    def add(name, lo, hi, func, **kw):
        r.register(Builtin(name, lo, hi, func, **kw))

    def add_d(name, lo, hi, dfunc, **kw):
        add(name, lo, hi, _boxed(dfunc), dfunc=dfunc, numeric=True, **kw)

    add_d("SQRT", 1, 1, _d_sqrt)
    add_d("EXP", 1, 1, _d_exp)
    add_d("LN", 1, 1, _d_ln)
    add_d("ABS", 1, 1, _d_abs)
    add_d("MOD", 2, 2, _d_mod)
    add_d("QUOTIENT", 2, 2, _d_quotient)
    add_d("TRUNC", 1, 1, _d_trunc)
    add_d("FLOOR", 1, 2, _d_floor)
    add("MIN", 1, big, _minmax_fn(min), numeric=True)
    add("MAX", 1, big, _minmax_fn(max), numeric=True)
    add("SUM", 1, big, _sum_fn, numeric=True)
    add("CONCAT", 1, big, _concat_fn)
    add_d("RAND", 0, 0, _d_rand, volatile=True)
    add("NOW", 0, 0, _now_fn, volatile=True, numeric=True)
    add("ERR", 1, 1, _err_fn, numeric=True)
    add("NA", 0, 0, lambda args, rt: ERROR_NA, numeric=True)
    add("ISERROR", 1, 1, _iserror_fn, numeric=True)
    add("TRUE", 0, 0, lambda args, rt: Number(1.0), numeric=True)
    add("FALSE", 0, 0, lambda args, rt: Number(0.0), numeric=True)
    add("SPECIALIZE", 1, 1, _specialize_fn, volatile=True)
    add("BENCHMARK", 2, 2, _benchmark_fn, volatile=True, numeric=True)
    add("DEFINE", 2, big, None, volatile=True)
    return r


_DEFAULT_REGISTRY = _build_default_registry()


def default_registry() -> Registry:
    return _DEFAULT_REGISTRY


# --- workbook ----------------------------------------------------------------

# A cell keeps up to this many readers in a list, more in a set: most
# cells have one or two readers, and a list is a quarter of a set's size.
_LIST_READERS = 8

# ``Cell.verified_at`` of a formula cell that must be evaluated again.
_DIRTY = -1

# A recalculation that queued more cells than this ends with a collection
# of the garbage collector's youngest generation.  Early cutoff allocates
# little, so the collector's count often stays just below its threshold
# after such a recalculation, and the pause then falls in the next
# operation that allocates, such as a SPECIALIZE, instead of here.
_COLLECT_AFTER = 1000


class _TooDeep(Exception):
    """A nested verification or evaluation ran out of Python stack; its
    arg is the cell it did not bring current."""


class Cell:
    """A cell's content, its memoized value and its edges in the support
    graph.

    ``content`` is a Value for constants, an Expr for formulas, and None
    for an empty cell that a formula read.  ``inputs`` lists the cells the
    last evaluation read, in read order, each once; ``readers`` mirrors
    it: the cells whose ``inputs`` hold this one (None until the first
    read, then a list, or a set once the list is long).  ``changed_at`` is
    the workbook clock when the value last changed; ``verified_at`` is the
    clock when a formula cell was last evaluated or found unchanged, or
    _DIRTY when it must be evaluated again.
    """

    __slots__ = ("content", "cached", "cached_gen", "verified_at",
                 "changed_at", "inputs", "readers", "sheet", "key")

    def __init__(self, content, sheet: str, key: tuple[int, int]):
        self.content = content
        self.cached = None
        self.cached_gen = -1
        self.verified_at = _DIRTY
        self.changed_at = 0
        self.inputs = ()
        self.readers = None
        self.sheet = sheet
        self.key = key              # (col, row)

    def add_reader(self, reader: "Cell") -> None:
        """Record that ``reader`` read this cell, once, in both directions.
        The input goes first, so a read cut off by the stack's end leaves
        at worst an input without its reader edge, which ``_detach``
        allows for."""
        readers = self.readers
        if readers is None:
            reader.inputs.append(self)
            self.readers = [reader]
        elif reader not in readers:
            reader.inputs.append(self)
            if type(readers) is set:
                readers.add(reader)
            elif len(readers) < _LIST_READERS:
                readers.append(reader)
            else:
                self.readers = {*readers, reader}


class Sheet:
    """A named grid; ``kind`` is 'ordinary' or 'function'."""

    def __init__(self, name: str, kind: str = "ordinary"):
        self.name = name
        self.kind = kind
        self.cells: dict[tuple[int, int], Cell] = {}

    def cell(self, addr: CellAddr) -> Cell | None:
        return self.cells.get((addr.col, addr.row))

    def sorted_addrs(self) -> list[CellAddr]:
        keys = sorted(self.cells, key=lambda k: (k[1], k[0]))
        return [CellAddr(self.name, c, r) for c, r in keys]


class Workbook:
    """Sheets plus the function table, specializer, PRNG and options."""

    def __init__(self, seed: int = 0, registry: Registry | None = None,
                 spec_limit: int = 100):
        self.sheets: dict[str, Sheet] = {}
        # A formula cell's value is current when its cached_gen equals
        # this stamp; invalidation lowers cached_gen, so it never moves.
        self.generation = 0
        self.rng = SplitMix64(seed)
        self.registry = registry or default_registry()
        self.function_table = sdf.FunctionTable()
        self.specializer = peval.Specializer(self, limit=spec_limit)
        self.diagnostics: list[str] = []
        self._clock = 0                     # ticks on each invalidation
        self._reader: Cell | None = None    # the cell being evaluated
        self._inflight: set[Cell] = set()
        self._attempt: list[Cell] = []      # brought current by this attempt
        self._pending: list[Cell] = []      # formula cells to bring current
        self._volatile: set[Cell] = set()
        self._fn_users: set[Cell] = set()   # cells that used the function table
        self._defines: dict[Cell, int] = {}     # DEFINE cell -> its function
        # (sheet, col, row) -> the Cell recording the readers of an empty
        # cell; it becomes the real cell when that address is set.
        self._absent: dict[tuple[str, int, int], Cell] = {}

    # -- sheet and cell management

    def add_sheet(self, name: str, kind: str = "ordinary") -> Sheet:
        if name in self.sheets:
            raise ValueError(f"sheet {name} already exists")
        sheet = Sheet(name, kind)
        self.sheets[name] = sheet
        # Cells that read this sheet before it existed got #REF!.
        self._changed([c for k, c in self._absent.items() if k[0] == name])
        return sheet

    def set_cell(self, addr: CellAddr, text: str) -> None:
        """Set a cell from source text: a formula or a constant.  The next
        recalculation evaluates a formula and verifies every cell that
        read this one; a constant equal, bit for bit, to the value its
        readers saw reaches none of them."""
        sheet = self.sheets[addr.sheet]
        content = parse_content(text)
        key = (addr.col, addr.row)
        cell = sheet.cells.get(key)
        if cell is None:
            cell = self._absent.pop((addr.sheet,) + key, None) \
                or Cell(None, addr.sheet, key)
            sheet.cells[key] = cell
        seen = cell.content if isinstance(cell.content, Value) else cell.cached
        cell.content = content
        if cell.inputs:
            self._detach(cell)
        if isinstance(content, Value):
            cell.cached, cell.inputs = None, ()
            if seen is None or value_key(seen) != value_key(content):
                self._changed([cell])
        else:
            # Every evaluation refills this one list: no new object per
            # evaluation survives to burden the garbage collector.
            cell.cached, cell.inputs = seen, []
            self._invalidate([cell])
        if sheet.kind == "function":
            # The cell may have been a DEFINE, and a function that any
            # cell using the function table reached may compute
            # differently now.
            self._set_define(cell, None)
            users, self._fn_users = self._fn_users, set()
            self._invalidate(users)

    def log_diagnostic(self, message: str) -> None:
        """Record a message unless the same one is still pending: a broken
        DEFINE re-runs on every recalculation and would log it again."""
        if message not in self.diagnostics:
            self.diagnostics.append(message)

    # -- the support graph

    def note_volatile(self) -> None:
        """Mark the cell being evaluated volatile: the next recalculation
        recomputes it.  Every volatile builtin call runs this."""
        if self._reader is not None:
            self._volatile.add(self._reader)

    def note_function_use(self) -> None:
        """Record that the cell being evaluated used the function table,
        so a change to the functions recomputes it."""
        if self._reader is not None:
            self._fn_users.add(self._reader)

    def _set_define(self, cell: Cell, fn_id: int | None) -> None:
        """Record the function the DEFINE cell ``cell`` installs (None:
        none).  A function it installed before, and that no other DEFINE
        cell installs, loses its body: its id stays reserved, so linked
        calls and stored closures read #NAME?, and its residuals leave the
        specializer's cache.  Any change recomputes every cell that used
        the function table."""
        old = self._defines.pop(cell, None)
        if fn_id is not None:
            self._defines[cell] = fn_id
        if old == fn_id:
            return
        if old is not None and old not in self._defines.values():
            self.function_table.uninstall(old)
            self.specializer.invalidate(old)
        users, self._fn_users = self._fn_users, set()
        self._invalidate(users)

    def _changed(self, cells: list) -> None:
        """Stamp constants or empty cells whose value changed, and mark
        every cell that transitively read them unverified."""
        self._invalidate(cells)
        for cell in cells:
            cell.changed_at = self._clock

    def _invalidate(self, cells) -> None:
        """Mark ``cells`` dirty and every cell that transitively read them
        unverified, and queue the formula cells among them.  A cell that
        is not current has no current reader, so the walk stops there.
        The clock ticks, so every value that changes from here on is
        newer than every check made before."""
        self._clock += 1
        gen, pending = self.generation, self._pending
        stack = list(cells)
        for cell in stack:
            cell.cached_gen = -1
            cell.verified_at = _DIRTY
        while stack:
            cell = stack.pop()
            if isinstance(cell.content, Expr):
                pending.append(cell)
            readers = cell.readers
            if readers:
                for r in readers:
                    if r.cached_gen == gen:
                        r.cached_gen = -1
                        stack.append(r)

    def _detach(self, cell: Cell) -> None:
        """Forget the cell's recorded inputs and their reader edges to it.
        An empty cell that nothing reads any more is dropped.  Each input
        goes only after its edge, so a detach cut off by the stack's end
        can run again."""
        inputs = cell.inputs
        while inputs:
            inp = inputs[-1]
            readers = inp.readers
            if cell in readers:
                readers.remove(cell)
            if not readers and inp.content is None:
                self._absent.pop((inp.sheet,) + inp.key, None)
            inputs.pop()

    # -- evaluation

    def get_value(self, addr: CellAddr) -> Value:
        """A cell's value, brought current first (see ``_refresh``).  A read
        made while a formula cell evaluates is recorded as an input of that
        cell, also when the value is memoized and when the cell is
        empty."""
        sheet = self.sheets.get(addr.sheet)
        cell = None if sheet is None else sheet.cells.get((addr.col, addr.row))
        reader = self._reader
        if cell is None:
            if reader is not None:
                key = (addr.sheet, addr.col, addr.row)
                cell = self._absent.get(key)
                if cell is None:
                    cell = self._absent[key] = Cell(None, addr.sheet, key[1:])
                cell.add_reader(reader)
            return ERROR_REF if sheet is None else Number(0.0)
        if reader is not None:
            cell.add_reader(reader)
        content = cell.content
        if isinstance(content, Value):
            return content
        if cell.cached_gen == self.generation:
            return cell.cached
        if cell in self._inflight:
            # Which member of a cycle reads #CYCLE! depends on where the
            # cycle is entered, so its cells re-run on every recalculation
            # and are entered where a recalculation of every cell would.
            if reader is not None:
                self._volatile.add(reader)
            return ERROR_CYCLE
        if reader is None:
            return self._evaluate_outermost(cell, addr)
        return self._refresh(cell, addr)

    def _refresh(self, cell: Cell, addr: CellAddr | None = None) -> Value:
        """Bring a formula cell that is neither current nor in flight up to
        date, and return its value.

        An unverified cell first brings its recorded inputs current, in
        read order, and keeps its value when none of them changed since it
        read them.  It stops at the first that did: the evaluation then
        reads the rest in its own order, so cells come current, and RAND
        draws, in the order a recalculation of every cell would give.  A
        dirty cell, or one with a changed input, is evaluated; a new value
        equal to the old one bit for bit leaves the cell unchanged for its
        readers."""
        inflight, reader, gen = self._inflight, self._reader, self.generation
        inflight.add(cell)
        try:
            since = cell.verified_at
            if since != _DIRTY:
                for inp in cell.inputs:
                    if inp.cached_gen != gen and isinstance(inp.content, Expr):
                        if inp in inflight:
                            break   # a cycle: the evaluation reads #CYCLE!
                        self._refresh(inp)
                    if inp.changed_at > since:
                        break
                else:
                    cell.verified_at = self._clock
                    cell.cached_gen = gen
                    self._attempt.append(cell)
                    return cell.cached
            cell.verified_at = _DIRTY       # until the evaluation completes
            self._detach(cell)
            self._reader = cell
            if addr is None:
                addr = CellAddr(cell.sheet, *cell.key)
            v = eval_expr(cell.content, addr, self)
        except RecursionError:
            raise _TooDeep(cell) from None
        finally:
            inflight.discard(cell)
            self._reader = reader
        old = cell.cached
        if old is None or value_key(v) != value_key(old):
            cell.cached = v
            cell.changed_at = self._clock
        # else the old object stays: a new one would only survive into the
        # garbage collector's young generation and make its next pass long.
        cell.verified_at = self._clock
        cell.cached_gen = gen
        self._attempt.append(cell)
        return cell.cached

    def _evaluate_outermost(self, cell: Cell, addr: CellAddr | None) -> Value:
        """Bring a cell current outside any other cell's evaluation.  A
        nested verification or evaluation that runs out of Python stack
        unwinds to here, and the attempt is undone: the generator goes
        back to its state when the attempt began, and every cell the
        attempt brought current, which may hold a number drawn since, is
        dirty again.  The cell that could not be reached is brought
        current first, with the stack free, and then the attempt is
        retried, so each number is drawn once.  Cells waiting for a retry
        stay in flight and read as #CYCLE!."""
        todo = []           # cells waiting for a retry, outermost first
        attempt = self._attempt
        try:
            while True:
                state = self.rng.state
                attempt.clear()
                try:
                    self._refresh(cell, addr)
                except _TooDeep as ex:
                    self.rng.state = state
                    self._invalidate(attempt)
                    deeper = ex.args[0]
                    if deeper is cell:      # too deep with the stack free
                        raise RecursionError(
                            "formula nested too deeply") from None
                    self._inflight.add(cell)
                    todo.append((cell, addr))
                    cell, addr = deeper, None
                    continue
                if not todo:
                    return cell.cached
                cell, addr = todo.pop()
        finally:
            for waiting, _ in todo:
                self._inflight.discard(waiting)

    def recalculate(self) -> None:
        """Bring current what changed since the last recalculation.  Every
        volatile cell (each DEFINE among them, so every DEFINE re-runs)
        and every formula cell set since then is dirty, and so is every
        cell that used the function table after an edit on a function
        sheet; a dirty cell is evaluated.  Every cell that transitively
        read one of them is only unverified: it is evaluated only when one
        of its recorded inputs changed value, bit for bit, and otherwise
        keeps its value, so the recalculation stops at unchanged values.
        No other cell is looked at.  DEFINE cells run first, then the
        others in sheet order, row by row, as a recalculation of every
        cell would visit them, so RAND draws come out the same."""
        volatile, self._volatile = self._volatile, set()
        self._invalidate(volatile)
        for sheet in self.sheets.values():
            if sheet.kind != "function":
                continue
            for addr in sheet.sorted_addrs():
                content = sheet.cell(addr).content
                if isinstance(content, FunctionCall) and content.name == "DEFINE":
                    self.get_value(addr)
        rank = {name: i for i, (name, sheet) in enumerate(self.sheets.items())
                if sheet.kind == "ordinary"}
        # Cleared only at the end: if an evaluation raises, the next
        # recalculation still finds every cell this one did not reach.
        pending = self._pending
        # Row by row, then sheet by sheet (the sort is stable): two sorts
        # on int keys take less time than one on tuples.
        pending.sort(key=_row_major)
        pending.sort(key=lambda c: rank.get(c.sheet, -1))
        for cell in pending:
            if cell.cached_gen != self.generation and cell.sheet in rank \
                    and isinstance(cell.content, Expr):
                self._evaluate_outermost(cell, None)
        if len(pending) > _COLLECT_AFTER:
            gc.collect(0)
        pending.clear()

    def eval_formula(self, text: str, sheet: str | None = None) -> Value:
        """Parse and evaluate a formula in the context of ``sheet``."""
        if sheet is None:
            sheet = next(iter(self.sheets), None)
        at = CellAddr(sheet, 1, 1)
        return eval_expr(parse_formula(text), at, self)


def _row_major(cell: Cell) -> int:
    col, row = cell.key
    return row << 32 | col


def parse_content(text: str):
    """Parse cell source text: ``=formula``, number, string or error."""
    stripped = text.strip()
    if stripped.startswith("="):
        return parse_formula(stripped)
    if stripped.startswith('"') and stripped.endswith('"') and len(stripped) >= 2:
        return Text(stripped[1:-1].replace('""', '"'))
    if stripped.startswith("#"):
        return ErrorValue.intern(stripped)
    if SIGNED_NUMBER_RE.fullmatch(stripped):
        return Number(float(stripped))
    return Text(stripped)


# --- the interpreter ---------------------------------------------------------

def eval_expr(e: Expr, at: CellAddr, wb: Workbook) -> Value:
    """Evaluate an expression tree at a cell address (the reference point
    for sheet-local references)."""
    t = type(e)
    if t is Const:
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
        return _arith1(e.op, eval_expr(e.arg, at, wb))
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
    if t is MakeClosure:
        return _eval_make_closure(e, at, wb)
    if t is Apply:
        return _eval_apply(e, at, wb)
    raise TypeError(f"cannot evaluate {e!r}")


def eval_on_consts(e: Expr, kids: list, wb: Workbook) -> Value:
    """eval_expr of ``e`` with the ``Const`` nodes ``kids`` for children;
    an operator goes to eval_expr's functions without building the node."""
    t = type(e)
    if t is Arith2:
        return _arith2(e.op, kids[0].value, kids[1].value)
    if t is Comparison:
        return _compare(e.op, kids[0].value, kids[1].value)
    if t is Arith1:
        return _arith1(e.op, kids[0].value)
    # No child reads a cell, so no reference point is needed.
    return eval_expr(with_children(e, tuple(kids)), None, wb)


def _eval_arith2(e: Arith2, at: CellAddr, wb: Workbook) -> Value:
    return _arith2(e.op, eval_expr(e.left, at, wb),
                   eval_expr(e.right, at, wb))


def _eval_comparison(e: Comparison, at: CellAddr, wb: Workbook) -> Value:
    a = eval_expr(e.left, at, wb)
    d = to_double_or_nan(a)
    if d != d:              # decided: the right operand is not evaluated
        return from_double_or_nan(d)
    return _compare(e.op, a, eval_expr(e.right, at, wb))


def _arith1(op: str, a: Value) -> Value:
    return from_double_or_nan(UNARY_OPS[op](to_double_or_nan(a)))


def _arith2(op: str, a: Value, b: Value) -> Value:
    if op == "&":
        return fconcat_values(a, b)
    return from_double_or_nan(BINARY_OPS[op](to_double_or_nan(a),
                                             to_double_or_nan(b)))


def _compare(op: str, a: Value, b: Value) -> Value:
    """``a`` is a number: both callers decide a left operand that is not
    one themselves."""
    da = to_double_or_nan(a)
    db = to_double_or_nan(b)
    if db != db:
        return from_double_or_nan(db)
    return Number(1.0 if COMPARE_OPS[op](da, db) else 0.0)


def _eval_choose(e: Choose, at: CellAddr, wb: Workbook) -> Value:
    k = choose(eval_expr(e.index, at, wb), len(e.branches))
    if isinstance(k, Value):
        return k
    return eval_expr(e.branches[k], at, wb)


def _eval_call(e: FunctionCall, at: CellAddr, wb: Workbook) -> Value:
    b = wb.registry.get(e.name)
    if b is not None:
        if b.volatile:
            wb.note_volatile()
        if b.func is None:
            return _eval_define(e, at, wb)
        argv = [eval_expr(a, at, wb) for a in e.args]
        return b.invoke(argv, wb)
    wb.note_function_use()
    argv = [eval_expr(a, at, wb) for a in e.args]
    table = wb.function_table
    return table.call(table.lookup_name(e.name), argv, wb)


def _eval_define(e: FunctionCall, at: CellAddr, wb: Workbook) -> Value:
    v = _run_define(e, at, wb)
    if wb._reader is not None:
        # Whatever the outcome, a function this cell installed before and
        # no longer does goes away.
        table = wb.function_table
        wb._set_define(wb._reader, table.lookup_name(v.value)
                       if type(v) is Text else None)
    return v


def _run_define(e: FunctionCall, at: CellAddr, wb: Workbook) -> Value:
    args = e.args
    ok = (len(args) >= 2 and type(args[0]) is Const
          and type(args[0].value) is Text
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
    name = args[0].value.value
    out = args[1].addr.on(at.sheet)
    ins = [a.addr.on(at.sheet) for a in args[2:]]
    try:
        info = sdf.define(wb, name, out, ins)
    except sdf.DefineError as ex:
        wb.log_diagnostic(f"DEFINE at {at.text()}: {ex}")
        return ErrorValue.intern("#ERR:DEFINE")
    return Text(info.name)


def _eval_make_closure(e: MakeClosure, at: CellAddr, wb: Workbook) -> Value:
    wb.note_function_use()
    fnv = eval_expr(e.fn, at, wb)
    argv = [eval_expr(a, at, wb) for a in e.args]
    return wb.function_table.make_closure(fnv, argv)


def _eval_apply(e: Apply, at: CellAddr, wb: Workbook) -> Value:
    wb.note_function_use()
    fnv = eval_expr(e.fn, at, wb)
    if type(fnv) is not FunctionValue:
        return unusable(fnv)
    argv = [eval_expr(a, at, wb) for a in e.args]
    return wb.function_table.apply(fnv, argv, wb)
