"""Compilation of function bodies to executable closures plus an IR listing.

Each ComputeCell becomes a guarded assignment to a frame slot, executed
in order; the output expression's value is returned.  Four compile modes
drive translation:

* to_value: produce a boxed Value.
* to_double: produce a raw double; errors travel as tagged NaNs.
* to_double_proper: split proper numbers from NaNs at the site.
* to_condition: branch on true/false/error with three continuations.

One ``Const`` node carries every constant; its value's type picks the
IR mnemonic (``const`` for a number, ``error``, ``text`` or ``value``).
The continuation generators are invoked at most once per site, so
branches share code instead of duplicating it.  Compiling a constant
decides tests at code generation time: a constant condition collapses to
the chosen branch and constant comparison operands skip the runtime NaN
test.  Numeric cells keep raw doubles in their slots; a straight-line
numeric body boxes exactly once, at the return.

A FunctionCall here always names a builtin: DEFINE links every other
call to a function id (an SdfCall).  Calls in tail position return a
TailCall token, which ``sdf.FunctionTable.call`` chases, so tail
recursion runs in constant stack.  The IR listing is
emitted by the same traversal that builds the closures and is stored on
the CompiledFunction for ``dump-ir``.
"""

from __future__ import annotations

from .formula import (
    And, Apply, Arith1, Arith2, CachedExpr, CellAddr, CellRef, Choose,
    Comparison, Const, Expr, FunctionCall, If, MakeClosure, NormalCellArea,
    NormalCellRef, Or, SdfCall,
)
from .values import (
    BINARY_OPS, COMPARE_OPS, ERROR_VALUE, UNARY_OPS, ArrayValue, ErrorValue,
    FunctionValue, Number, Text, choose_index, error_nan, fconcat_values,
    format_number, from_double_or_nan, literal, make_number,
    to_double_or_nan,
)

__all__ = ["CompiledFunction", "TailCall", "compile_function", "is_numeric",
           "read_area", "UNSET"]


class _Unset:
    __slots__ = ()

    def __repr__(self):
        return "UNSET"


UNSET = _Unset()


class TailCall:
    """Continue-with token: run ``target`` on ``args`` in the caller's place."""

    __slots__ = ("target", "args")

    def __init__(self, target: int, args: list):
        self.target = target
        self.args = args


class Frame:
    __slots__ = ("args", "rt", "slots", "memo", "scratch")

    def __init__(self, args, rt, n_slots, n_memo):
        self.args = args
        self.rt = rt
        self.slots = [UNSET] * n_slots if n_slots else _EMPTY
        self.memo = [None] * n_memo if n_memo else _EMPTY
        self.scratch = None


_EMPTY: list = []


class CompiledFunction:
    """Executable form of a function body plus its IR listing."""

    __slots__ = ("fn_id", "name", "n_slots", "n_memo", "steps", "out_step",
                 "listing", "out_ir")

    def __init__(self, fn_id, name, n_slots, n_memo, steps, out_step,
                 listing, out_ir):
        self.fn_id = fn_id
        self.name = name
        self.n_slots = n_slots
        self.n_memo = n_memo
        self.steps = steps
        self.out_step = out_step
        self.listing = listing
        self.out_ir = out_ir

    def run(self, argv, rt):
        """Execute one frame; may return a TailCall token."""
        fr = Frame(argv, rt, self.n_slots, self.n_memo)
        for step in self.steps:
            step(fr)
        return self.out_step(fr)


def read_area(rt, start: CellAddr, end: CellAddr, fallback_sheet):
    """Materialize an area reference as an ArrayValue (shared with the
    interpreter so both paths agree)."""
    sheet = start.sheet if start.sheet is not None else fallback_sheet
    c1, c2 = sorted((start.col, end.col))
    r1, r2 = sorted((start.row, end.row))
    rows = []
    for r in range(r1, r2 + 1):
        rows.append([rt.get_value(CellAddr(sheet, c, r))
                     for c in range(c1, c2 + 1)])
    return ArrayValue(rows)


# --- compile context ---------------------------------------------------------

class _Slot:
    __slots__ = ("index", "numeric", "lazy", "thunk")

    def __init__(self, index, numeric, lazy):
        self.index = index
        self.numeric = numeric
        self.lazy = lazy
        self.thunk = None   # filled for lazy cells before use


class _Ctx:
    def __init__(self, registry, fn_name):
        self.registry = registry
        self.fn_name = fn_name
        self.args: dict[tuple[int, int], int] = {}
        self.slots: dict[tuple[int, int], _Slot] = {}
        self.memo_of: dict[int, int] = {}    # id(CachedExpr node) -> index
        self.memo_steps: dict[int, object] = {}
        self.n_memo = 0
        self.lines: list[str] = []
        self.n_labels = 0

    def emit(self, line: str) -> None:
        self.lines.append("  " + line)

    def raw(self, line: str) -> None:
        self.lines.append(line)

    def label(self) -> str:
        self.n_labels += 1
        return f"L{self.n_labels}"

    def mark(self, lab: str) -> None:
        self.lines.append(f"{lab}:")

    def memo_index(self, node: CachedExpr) -> int:
        key = id(node)
        idx = self.memo_of.get(key)
        if idx is None:
            idx = self.n_memo
            self.memo_of[key] = idx
            self.n_memo += 1
        return idx


def _key(addr: CellAddr) -> tuple[int, int]:
    return (addr.col, addr.row)


# --- numericness -------------------------------------------------------------

def is_numeric(e: Expr, registry, numeric_cell) -> bool:
    """Certainly numeric-or-error: safe to keep as a raw double.  A cell
    reference is numeric when ``numeric_cell(key)`` says so."""
    t = type(e)
    if t is Const:
        return type(e.value) in (Number, ErrorValue)
    if t in (Arith1, Comparison, And, Or):
        return True
    if t is Arith2:
        return e.op != "&"
    if t is CachedExpr:
        return True
    if t is CellRef:
        return numeric_cell(_key(e.addr))
    if t is If:
        return (is_numeric(e.then, registry, numeric_cell)
                and is_numeric(e.other, registry, numeric_cell))
    if t is Choose:
        return all(is_numeric(b, registry, numeric_cell)
                   for b in e.branches)
    if t is FunctionCall:
        return registry.get(e.name).numeric
    return False


# --- double mode -------------------------------------------------------------

def _certainly_proper(e: Expr) -> bool:
    """True when the expression cannot evaluate to a NaN."""
    return (type(e) is Const and type(e.value) is Number
            and e.value.value == e.value.value)


def compile_to_double(e: Expr, cx: _Ctx):
    """Compile to a step producing a raw double (errors as NaNs)."""
    t = type(e)
    if t is Const:
        v = e.value
        c = to_double_or_nan(v)
        if type(v) is Number:
            cx.emit(f"const {format_number(c)}")
        elif type(v) is ErrorValue:
            cx.emit(f"error {v.name}")
        else:
            cx.emit(f"value {literal(v)}")
            cx.emit("unwrap")
        return lambda fr: c
    if t is CellRef:
        return _ref_double(e, cx)
    if t is Arith2:
        return _arith2_double(e, cx)
    if t is Comparison:
        return _comparison_double(e, cx)
    if t is Arith1:
        s = compile_to_double(e.arg, cx)
        cx.emit(_UNARY_NAMES[e.op])
        f = UNARY_OPS[e.op]
        return lambda fr: f(s(fr))
    if t is CachedExpr:
        return _cached_double(e, cx)
    if t is If or t is Choose or t is And or t is Or:
        return _control_double(e, cx)
    if t is FunctionCall:
        b = cx.registry.get(e.name)
        if b is not None and b.dfunc is not None \
                and b.min_args == b.max_args == len(e.args):
            sub = [compile_to_double(a, cx) for a in e.args]
            cx.emit(f"calld {e.name} {len(sub)}")
            dfunc = b.dfunc
            if not sub:
                step = lambda fr: dfunc(fr.rt)
            elif len(sub) == 1:
                s0, = sub
                step = lambda fr: dfunc(fr.rt, s0(fr))
            elif len(sub) == 2:
                s0, s1 = sub
                step = lambda fr: dfunc(fr.rt, s0(fr), s1(fr))
            else:
                step = lambda fr: dfunc(fr.rt, *[s(fr) for s in sub])
            return _noting_volatile(step) if b.volatile else step
    # General case: build the boxed value, then unwrap.
    s = compile_to_value(e, cx)
    cx.emit("unwrap")
    return lambda fr: to_double_or_nan(s(fr))


def _ref_double(e: CellRef, cx: _Ctx):
    k = _key(e.addr)
    i = cx.args.get(k)
    if i is not None:
        cx.emit(f"arg {i}")
        cx.emit("unwrap")
        return lambda fr: to_double_or_nan(fr.args[i])
    slot = cx.slots[k]
    idx = slot.index
    if slot.numeric:
        cx.emit(f"slot {idx}")
        if slot.lazy:
            def step(fr):
                d = fr.slots[idx]
                if d is UNSET:
                    d = fr.slots[idx] = slot.thunk(fr)
                return d
            return step
        def step(fr):
            d = fr.slots[idx]
            if d is UNSET:
                raise RuntimeError(
                    f"{cx.fn_name}: read of unevaluated slot {idx}")
            return d
        return step
    s = _ref_value(e, cx)
    cx.emit("unwrap")
    return lambda fr: to_double_or_nan(s(fr))


def _cached_double(e: CachedExpr, cx: _Ctx):
    # A shared node compiles once; later sites reuse the memoized step.
    idx = cx.memo_index(e)
    inner = cx.memo_steps.get(id(e))
    if inner is None:
        cx.emit(f"memo {idx} <-")
        inner = compile_to_double(e.inner, cx)
        cx.memo_steps[id(e)] = inner
    else:
        cx.emit(f"memo {idx}")

    def step(fr):
        d = fr.memo[idx]
        if d is None:
            d = fr.memo[idx] = inner(fr)
        return d
    return step


def _arith2_double(e: Arith2, cx: _Ctx):
    op = e.op
    if op == "&":
        s = compile_to_value(e, cx)
        cx.emit("unwrap")
        return lambda fr: to_double_or_nan(s(fr))
    s1 = compile_to_double(e.left, cx)
    s2 = compile_to_double(e.right, cx)
    cx.emit(_BINARY_NAMES[op])
    f = BINARY_OPS[op]
    return lambda fr: f(s1(fr), s2(fr))


# IR mnemonics of the operators in ``values``.
_BINARY_NAMES = {"+": "add", "-": "sub", "*": "mul", "/": "div", "^": "pow"}
_UNARY_NAMES = {"-": "neg", "NOT": "not"}
_CMP_NAMES = {"=": "eq", "<>": "ne", "<": "lt", "<=": "le",
              ">": "gt", ">=": "ge"}


def _comparison_double(e: Comparison, cx: _Ctx):
    s1 = compile_to_double(e.left, cx)
    t1 = not _certainly_proper(e.left)
    if t1:
        cx.emit("nantest")
    s2 = compile_to_double(e.right, cx)
    t2 = not _certainly_proper(e.right)
    if t2:
        cx.emit("nantest")
    cx.emit(f"cmp {_CMP_NAMES[e.op]}")
    cmp = COMPARE_OPS[e.op]

    def step(fr):
        d1 = s1(fr)
        if d1 != d1:
            return d1
        d2 = s2(fr)
        if d2 != d2:
            return d2
        return 1.0 if cmp(d1, d2) else 0.0
    return step


def _control_double(e: Expr, cx: _Ctx):
    """If/Choose/And/Or in double mode, via the condition machinery."""
    if type(e) is If:
        s_then = s_other = None

        def gen_t():
            nonlocal s_then
            s_then = compile_to_double(e.then, cx)
            return s_then

        def gen_f():
            nonlocal s_other
            s_other = compile_to_double(e.other, cx)
            return s_other

        return compile_to_condition(e.cond, cx, gen_t, gen_f, _gen_bad_double)
    if type(e) is Choose:
        return _choose_step(e, cx, lambda b: compile_to_double(b, cx),
                            error_nan(ERROR_VALUE))
    if type(e) is And or type(e) is Or:
        one = lambda: _const_double_step(cx, 1.0)
        zero = lambda: _const_double_step(cx, 0.0)
        if type(e) is And:
            return _chain_condition(list(e.args), cx, one, zero,
                                    _gen_bad_double, is_and=True)
        return _chain_condition(list(e.args), cx, one, zero,
                                _gen_bad_double, is_and=False)
    raise AssertionError


def _const_double_step(cx, c):
    cx.emit(f"const {format_number(c)}")
    return lambda fr: c


def _gen_bad_double():
    return lambda fr: to_double_or_nan(fr.scratch)


# --- condition mode ----------------------------------------------------------

def _once(gen):
    """Wrap a generator so repeated requests share one emission."""
    cell = []

    def shared():
        if not cell:
            cell.append(gen())
        return cell[0]
    return shared


def compile_to_condition(e: Expr, cx: _Ctx, gen_t, gen_f, gen_bad):
    """Compile a condition; exactly one continuation runs per evaluation.

    ``gen_t``/``gen_f``/``gen_bad`` are invoked at most once each; the bad
    continuation finds the offending Value in ``fr.scratch``.
    """
    t = type(e)
    if t is Const and type(e.value) in (Number, ErrorValue):
        # Constant: decide now, emit only the surviving branch.
        c = to_double_or_nan(e.value)
        if c != c:
            err = from_double_or_nan(c)
            cx.emit(f"error {err.name}")
            bad = gen_bad()
            def step(fr):
                fr.scratch = err
                return bad(fr)
            return step
        return gen_t() if c != 0.0 else gen_f()
    if t is Arith1 and e.op == "NOT":
        # NOT in condition position: swap the branches, no code emitted.
        return compile_to_condition(e.arg, cx, gen_f, gen_t, gen_bad)
    if t is If:
        gen_t, gen_f, gen_bad = _once(gen_t), _once(gen_f), _once(gen_bad)
        return compile_to_condition(
            e.cond, cx,
            lambda: compile_to_condition(e.then, cx, gen_t, gen_f, gen_bad),
            lambda: compile_to_condition(e.other, cx, gen_t, gen_f, gen_bad),
            gen_bad)
    if t is And:
        return _chain_condition(list(e.args), cx, gen_t, gen_f, gen_bad,
                                is_and=True)
    if t is Or:
        return _chain_condition(list(e.args), cx, gen_t, gen_f, gen_bad,
                                is_and=False)
    if t is Comparison:
        return _comparison_condition(e, cx, gen_t, gen_f, gen_bad)
    if t is CachedExpr:
        s = _cached_double(e, cx)
        return _branch_on_double(s, cx, gen_t, gen_f, gen_bad)
    s = compile_to_double(e, cx)
    return _branch_on_double(s, cx, gen_t, gen_f, gen_bad)


def _branch_on_double(s, cx: _Ctx, gen_t, gen_f, gen_bad):
    lf, lbad, lend = cx.label(), cx.label(), cx.label()
    cx.emit(f"brf {lf}")
    cx.emit(f"brbad {lbad}")
    t_step = gen_t()
    cx.emit(f"jmp {lend}")
    cx.mark(lf)
    f_step = gen_f()
    cx.emit(f"jmp {lend}")
    cx.mark(lbad)
    bad_step = gen_bad()
    cx.mark(lend)

    def step(fr):
        d = s(fr)
        if d != d:
            fr.scratch = from_double_or_nan(d)
            return bad_step(fr)
        if d != 0.0:
            return t_step(fr)
        return f_step(fr)
    return step


def _comparison_condition(e: Comparison, cx: _Ctx, gen_t, gen_f, gen_bad):
    s1 = compile_to_double(e.left, cx)
    if not _certainly_proper(e.left):
        cx.emit("nantest")
    s2 = compile_to_double(e.right, cx)
    if not _certainly_proper(e.right):
        cx.emit("nantest")
    cmp = COMPARE_OPS[e.op]
    lf, lbad, lend = cx.label(), cx.label(), cx.label()
    cx.emit(f"cmp {_CMP_NAMES[e.op]}")
    cx.emit(f"brf {lf}")
    cx.emit(f"brbad {lbad}")
    t_step = gen_t()
    cx.emit(f"jmp {lend}")
    cx.mark(lf)
    f_step = gen_f()
    cx.emit(f"jmp {lend}")
    cx.mark(lbad)
    bad_step = gen_bad()
    cx.mark(lend)

    def step(fr):
        d1 = s1(fr)
        if d1 != d1:
            fr.scratch = from_double_or_nan(d1)
            return bad_step(fr)
        d2 = s2(fr)
        if d2 != d2:
            fr.scratch = from_double_or_nan(d2)
            return bad_step(fr)
        if cmp(d1, d2):
            return t_step(fr)
        return f_step(fr)
    return step


def _chain_condition(args, cx: _Ctx, gen_t, gen_f, gen_bad, *, is_and):
    """AND/OR as a short-circuit chain of conditions."""
    gen_t, gen_f, gen_bad = _once(gen_t), _once(gen_f), _once(gen_bad)

    def build(i):
        if i == len(args):
            return gen_t() if is_and else gen_f()
        later = lambda: build(i + 1)
        if is_and:
            return compile_to_condition(args[i], cx, later, gen_f, gen_bad)
        return compile_to_condition(args[i], cx, gen_t, later, gen_bad)

    return build(0)


# --- double proper -----------------------------------------------------------

def compile_to_double_proper(e: Expr, cx: _Ctx, gen_proper, gen_bad):
    """Split proper numbers from NaNs; ``gen_proper`` receives a loader for
    the tested double, ``gen_bad`` finds the Value in ``fr.scratch``."""
    s = compile_to_double(e, cx)
    if _certainly_proper(e):
        return gen_proper(s)
    cx.emit("nantest")
    box = [0.0]

    def load(fr):
        return box[0]

    p_step = gen_proper(load)
    bad_step = gen_bad()

    def step(fr):
        d = s(fr)
        if d != d:
            fr.scratch = from_double_or_nan(d)
            return bad_step(fr)
        box[0] = d
        return p_step(fr)
    return step


# --- value mode --------------------------------------------------------------

def compile_to_value(e: Expr, cx: _Ctx, tail: bool = False):
    """Compile to a step producing a boxed Value (or a TailCall token in
    tail position)."""
    t = type(e)
    if t is Const:
        v = e.value
        if type(v) is Number:
            # Boxed afresh on every evaluation, like any computed number.
            return _boxed_const_step(cx, v.value)
        if type(v) is ErrorValue:
            cx.emit(f"error {v.name}")
        else:
            cx.emit(f"{'text' if type(v) is Text else 'value'} {literal(v)}")
        return lambda fr: v
    if t is CellRef:
        return _ref_value(e, cx)
    if t is NormalCellRef:
        addr = e.addr
        cx.emit(f"getcell {addr.text()}")
        return lambda fr: fr.rt.get_value(addr)
    if t is NormalCellArea:
        start, end = e.start, e.end
        cx.emit(f"getarea {start.text()}:{end.local().text()}")
        return lambda fr: read_area(fr.rt, start, end, None)
    if t is Arith2 and e.op == "&":
        s1 = compile_to_value(e.left, cx)
        s2 = compile_to_value(e.right, cx)
        cx.emit("concat")
        return lambda fr: fconcat_values(s1(fr), s2(fr))
    if t in (Arith1, Arith2, Comparison):
        s = compile_to_double(e, cx)
        cx.emit("box")
        return lambda fr: make_number(s(fr))
    if t is CachedExpr:
        s = _cached_double(e, cx)
        cx.emit("box")
        return lambda fr: make_number(s(fr))
    if t is If:
        gen_t = lambda: compile_to_value(e.then, cx, tail)
        gen_f = lambda: compile_to_value(e.other, cx, tail)
        return compile_to_condition(e.cond, cx, gen_t, gen_f, _gen_bad_value)
    if t is Choose:
        return _choose_step(e, cx,
                            lambda b: compile_to_value(b, cx, tail),
                            ERROR_VALUE)
    if t is And or t is Or:
        gen_t = lambda: _boxed_const_step(cx, 1.0)
        gen_f = lambda: _boxed_const_step(cx, 0.0)
        return _chain_condition(list(e.args), cx, gen_t, gen_f,
                                _gen_bad_value, is_and=(t is And))
    if t is FunctionCall:
        return _call_value(e, cx)
    if t is SdfCall:
        return _sdf_value(e, cx, tail)
    if t is Apply:
        return _apply_value(e, cx, tail)
    if t is MakeClosure:
        sf = compile_to_value(e.fn, cx)
        sub = [compile_to_value(a, cx) for a in e.args]
        cx.emit(f"closure {len(sub)}")
        return lambda fr: fr.rt.function_table.make_closure(
            sf(fr), [s(fr) for s in sub])
    raise TypeError(f"cannot compile {e!r}")


def _boxed_const_step(cx, c):
    cx.emit(f"const {format_number(c)}")
    cx.emit("box")
    return lambda fr: make_number(c)


def _gen_bad_value():
    return lambda fr: fr.scratch


def _ref_value(e: CellRef, cx: _Ctx):
    k = _key(e.addr)
    i = cx.args.get(k)
    if i is not None:
        cx.emit(f"arg {i}")
        return lambda fr: fr.args[i]
    slot = cx.slots[k]
    idx = slot.index
    cx.emit(f"slot {idx}")
    if slot.numeric:
        cx.emit("box")
        if slot.lazy:
            def step(fr):
                d = fr.slots[idx]
                if d is UNSET:
                    d = fr.slots[idx] = slot.thunk(fr)
                return make_number(d)
            return step
        def step(fr):
            d = fr.slots[idx]
            if d is UNSET:
                raise RuntimeError(
                    f"{cx.fn_name}: read of unevaluated slot {idx}")
            return make_number(d)
        return step
    if slot.lazy:
        def step(fr):
            v = fr.slots[idx]
            if v is UNSET:
                v = fr.slots[idx] = slot.thunk(fr)
            return v
        return step
    def step(fr):
        v = fr.slots[idx]
        if v is UNSET:
            raise RuntimeError(f"{cx.fn_name}: read of unevaluated slot {idx}")
        return v
    return step


def _choose_step(e: Choose, cx: _Ctx, compile_branch, bad_value):
    """CHOOSE: truncate the selector, dispatch; out of range is #VALUE!."""
    n = len(e.branches)
    lend = cx.label()

    def gen_proper(load):
        cx.emit(f"choose {n}")
        steps = []
        for b in e.branches:
            steps.append(compile_branch(b))
            cx.emit(f"jmp {lend}")
        oob = bad_value

        def dispatch(fr):
            k = choose_index(load(fr), n)
            if k is None:
                return oob
            return steps[k](fr)
        return dispatch

    def gen_bad():
        if isinstance(bad_value, float):
            return lambda fr: to_double_or_nan(fr.scratch)
        return lambda fr: fr.scratch

    step = compile_to_double_proper(e.index, cx, gen_proper, gen_bad)
    cx.mark(lend)
    return step


def _call_value(e: FunctionCall, cx: _Ctx):
    b = cx.registry.get(e.name)
    if b.special:
        cx.emit("error #VALUE!")
        return lambda fr: ERROR_VALUE
    sub = [compile_to_value(a, cx) for a in e.args]
    cx.emit(f"call {e.name} {len(sub)}")
    invoke = b.invoke
    step = lambda fr: invoke([s(fr) for s in sub], fr.rt)
    return _noting_volatile(step) if b.volatile else step


def _noting_volatile(step):
    """A volatile builtin's call step: it first marks the cell being
    evaluated volatile (decided here, so other calls pay nothing)."""
    def run(fr):
        fr.rt.note_volatile()
        return step(fr)
    return run


def _sdf_value(e: SdfCall, cx: _Ctx, tail: bool):
    sub = [compile_to_value(a, cx) for a in e.args]
    target = e.target
    if tail:
        cx.emit(f"tailsdf fn#{target} {len(sub)}")
        return lambda fr: TailCall(target, [s(fr) for s in sub])
    cx.emit(f"sdf fn#{target} {len(sub)}")
    return lambda fr: fr.rt.function_table.call(
        target, [s(fr) for s in sub], fr.rt)


def _apply_value(e: Apply, cx: _Ctx, tail: bool):
    sf = compile_to_value(e.fn, cx)
    sub = [compile_to_value(a, cx) for a in e.args]
    if tail:
        cx.emit(f"tailapply {len(sub)}")

        def step(fr):
            fv = sf(fr)
            if type(fv) is ErrorValue:
                return fv
            if type(fv) is not FunctionValue:
                return ERROR_VALUE
            argv = [s(fr) for s in sub]
            return fr.rt.function_table.tail_apply(fv, argv)
        return step
    cx.emit(f"apply {len(sub)}")

    def step(fr):
        fv = sf(fr)
        if type(fv) is ErrorValue:
            return fv
        if type(fv) is not FunctionValue:
            return ERROR_VALUE
        argv = [s(fr) for s in sub]
        return fr.rt.function_table.apply(fv, argv, fr.rt)
    return step


# --- function assembly -------------------------------------------------------

def compile_function(info, registry) -> CompiledFunction:
    """Compile an SdfInfo's ComputeCell list (last entry is the output)."""
    cx = _Ctx(registry, info.name)
    for i, addr in enumerate(info.inputs):
        cx.args[_key(addr)] = i

    body, out = info.body[:-1], info.body[-1]

    def numeric_cell(k):
        slot = cx.slots.get(k)      # a parameter has no slot
        return slot is not None and slot.numeric

    # Decide slot representation cell by cell, in evaluation order.
    for cell in body:
        numeric = is_numeric(cell.expr, registry, numeric_cell)
        cx.slots[_key(cell.addr)] = _Slot(len(cx.slots), numeric, cell.lazy)

    steps = []
    for cell in body:
        slot = cx.slots[_key(cell.addr)]
        kind = "numeric" if slot.numeric else "value"
        flags = " lazy" if cell.lazy else ""
        guard = " guarded" if cell.eval_cond is not None else ""
        cx.raw(f".cell {cell.addr.local().text()} v{slot.index} "
               f"{kind}{guard}{flags}")
        compile_expr = (compile_to_double if slot.numeric
                        else compile_to_value)

        def make_assign(slot=slot, cell=cell, compile_expr=compile_expr):
            s = compile_expr(cell.expr, cx)
            cx.emit(f"store v{slot.index}")
            idx = slot.index

            def assign(fr):
                fr.slots[idx] = s(fr)
            return assign, s

        if cell.lazy:
            # No eager step; the slot computes on first read.
            _, s = make_assign()
            slot.thunk = s
            continue
        if cell.eval_cond is None:
            assign, _ = make_assign()
            steps.append(assign)
            continue
        cx.raw("  guard:")
        skip = lambda: (lambda fr: None)
        step = compile_to_condition(
            cell.eval_cond, cx,
            gen_t=lambda: make_assign()[0],
            gen_f=skip, gen_bad=skip)
        steps.append(step)

    cx.raw(f".out {out.addr.local().text()}")
    out_start = len(cx.lines)
    out_step = compile_to_value(out.expr, cx, tail=True)
    cx.emit("return")
    out_ir = [ln.strip() for ln in cx.lines[out_start:]
              if not ln.strip().endswith(":")]

    header = (f"func {info.name} id={info.id} params={len(info.inputs)} "
              f"slots={len(cx.slots)} memo={cx.n_memo}")
    listing = "\n".join([header] + cx.lines) + "\n"
    return CompiledFunction(info.id, info.name, len(cx.slots), cx.n_memo,
                            steps, out_step, listing, out_ir)
