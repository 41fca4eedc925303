"""Compilation of function bodies to executable closures plus an IR listing.

Each ComputeCell becomes a guarded assignment to a frame slot, executed
in order; the output expression's value is returned.  Three compile
modes drive translation:

* to_value: produce a boxed Value.
* to_double: produce a raw double; errors travel as tagged NaNs.
* to_condition: branch on true/false/error with three continuations.

Each construct is compiled in one place.  One ``Const`` node carries
every constant; its value's type picks the IR mnemonic (``const`` for a
number, ``error``, ``text`` or ``value``).  A slot read is one step for
every slot: a lazy slot computes its cell on first read, and reading any
other slot before its assignment raises.  If, CHOOSE, AND and OR share
one compiler for both modes, which differ only in how a branch, a 0/1
result and an error are produced; every two-way branch has the same
``brf``/``brbad``/``jmp`` layout.  A cell's guard (``sdf.Guard``) goes
through AND and OR's path compiler once, where a literal that reads
false or anything but a number moves on to the next path.  Each literal
but a parent guard's is compiled as the expression it tests
(``literal_test``) by the ordinary rules.  A guard that is not trivial,
and a guard atom (recognized by node identity before any other rule),
is computed into a memo at its first site.

The continuation generators are invoked at most once per site, so
branches share code instead of duplicating it.  Compiling a constant
decides tests at code generation time: a constant condition collapses to
the chosen branch and constant comparison operands skip the runtime NaN
test.  Numeric cells keep raw doubles in their slots; a straight-line
numeric body boxes exactly once, at the return.

A FunctionCall here always names a builtin: DEFINE links every other
call to a function id (an SdfCall).  Calls in tail position return a
TailCall token, which ``sdf.FunctionTable.call`` chases, so tail
recursion runs in constant stack.  The IR listing is emitted by the same
traversal that builds the closures and is stored on the CompiledFunction
for ``dump-ir``; ``out_ir`` reads the output's lines from it.
"""

from __future__ import annotations

from .formula import (
    And, Apply, Arith1, Arith2, CellAddr, CellRef, Choose, Comparison, Const,
    Expr, FunctionCall, If, MakeClosure, NormalCellArea, NormalCellRef, Or,
    SdfCall,
)
from .values import (
    BINARY_OPS, COMPARE_OPS, ERROR_VALUE, UNARY_OPS, ArrayValue, ErrorValue,
    FunctionValue, Number, Text, choose_index, fconcat_values,
    format_number, from_double_or_nan, literal, make_number,
    to_double_or_nan, unusable,
)

__all__ = ["CompiledFunction", "TailCall", "compile_function", "is_numeric",
           "literal_test", "read_area", "UNSET"]


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

    __slots__ = ("n_slots", "n_memo", "steps", "out_step", "listing")

    def __init__(self, n_slots, n_memo, steps, out_step, listing):
        self.n_slots = n_slots
        self.n_memo = n_memo
        self.steps = steps
        self.out_step = out_step
        self.listing = listing

    @property
    def out_ir(self) -> list[str]:
        """The output expression's IR lines, without labels."""
        out = self.listing.partition("\n.out ")[2]
        return [ln[2:] for ln in out.split("\n") if ln.startswith("  ")]

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
    __slots__ = ("index", "numeric", "thunk")

    def __init__(self, index, numeric, fn_name):
        self.index = index
        self.numeric = numeric

        def unevaluated(fr):
            raise RuntimeError(f"{fn_name}: read of unevaluated slot {index}")
        # A lazy cell replaces this with its compiled expression.
        self.thunk = unevaluated


class _Ctx:
    def __init__(self, registry, shared):
        self.registry = registry
        self.args: dict[tuple[int, int], int] = {}
        self.slots: dict[tuple[int, int], _Slot] = {}
        self.shared: set[int] = shared   # ids of the body's guard atoms
        # id(guard atom or Guard) -> (memo index, step reading the memo)
        self.memo: dict[int, tuple] = {}
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

    def numeric_cell(self, k) -> bool:
        slot = self.slots.get(k)    # a parameter has no slot
        return slot is not None and slot.numeric


def _key(addr: CellAddr) -> tuple[int, int]:
    return (addr.col, addr.row)


# A constant's listing operand escapes the backslash and the line breaks,
# so that each instruction stays on its one line.
_ESCAPES = str.maketrans({"\\": "\\\\", "\n": "\\n", "\r": "\\r"})


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


def compile_to_double(e: Expr, cx: _Ctx, memo: bool = True):
    """Compile to a step producing a raw double (errors as NaNs); a guard
    atom reads its memo unless ``memo`` is false (the memo's own code)."""
    if memo and id(e) in cx.shared:
        return _memo_step(e, cx, lambda: compile_to_double(e, cx, False))
    t = type(e)
    if t is Const:
        v = e.value
        c = to_double_or_nan(v)
        if type(v) is Number:
            cx.emit(f"const {format_number(c)}")
        elif type(v) is ErrorValue:
            cx.emit(f"error {v.name.translate(_ESCAPES)}")
        else:
            cx.emit(f"value {literal(v).translate(_ESCAPES)}")
            cx.emit("unwrap")
        return lambda fr: c
    if t is CellRef:
        k = _key(e.addr)
        i = cx.args.get(k)
        if i is not None:
            cx.emit(f"arg {i}")
            cx.emit("unwrap")
            return lambda fr: to_double_or_nan(fr.args[i])
        if cx.slots[k].numeric:
            return _slot_step(cx.slots[k], cx)
    elif t is Arith2 and e.op != "&":
        s1 = compile_to_double(e.left, cx)
        s2 = compile_to_double(e.right, cx)
        cx.emit(_BINARY_NAMES[e.op])
        f = BINARY_OPS[e.op]
        return lambda fr: f(s1(fr), s2(fr))
    elif t is Comparison:
        return _compare_double(*_comparison_operands(e, cx))
    elif t is Arith1:
        s = compile_to_double(e.arg, cx)
        cx.emit(_UNARY_NAMES[e.op])
        f = UNARY_OPS[e.op]
        return lambda fr: f(s(fr))
    elif t is If or t is Choose or t is And or t is Or:
        return _control(e, cx, lambda b: compile_to_double(b, cx),
                        lambda c: _const_double_step(cx, c),
                        lambda fr: to_double_or_nan(fr.scratch))
    elif t is FunctionCall:
        b = cx.registry.get(e.name)
        if b.dfunc is not None and b.min_args <= len(e.args) <= b.max_args:
            sub = [compile_to_double(a, cx) for a in e.args]
            cx.emit(f"calld {e.name} {len(sub)}")
            dfunc = b.dfunc
            if not sub:
                step = lambda fr: dfunc(fr.rt)
            elif len(sub) == 1:
                s0, = sub
                step = lambda fr: dfunc(fr.rt, s0(fr))
            else:
                s0, s1 = sub
                step = lambda fr: dfunc(fr.rt, s0(fr), s1(fr))
            return _noting_volatile(step) if b.volatile else step
    # General case: build the boxed value, then unwrap.
    s = compile_to_value(e, cx)
    cx.emit("unwrap")
    return lambda fr: to_double_or_nan(s(fr))


def _slot_step(slot: _Slot, cx: _Ctx):
    """Read a slot; an unset one runs its thunk, which computes a lazy
    cell and raises for any other."""
    idx = slot.index
    cx.emit(f"slot {idx}")

    def step(fr):
        v = fr.slots[idx]
        if v is UNSET:
            v = fr.slots[idx] = slot.thunk(fr)
        return v
    return step


def _memo_step(node, cx: _Ctx, compile_inner):
    """A double computed at most once per call: the first site emits
    ``compile_inner()`` into a memo, later sites read the memo."""
    hit = cx.memo.get(id(node))
    if hit is not None:
        idx, step = hit
        cx.emit(f"memo {idx}")
        return step
    idx = len(cx.memo)
    cx.memo[id(node)] = (idx, None)  # reserve the index before the inner nodes
    cx.emit(f"memo {idx} <-")
    inner = compile_inner()

    def step(fr):
        d = fr.memo[idx]
        if d is None:
            d = fr.memo[idx] = inner(fr)
        return d
    cx.memo[id(node)] = (idx, step)
    return step


# IR mnemonics of the operators in ``values``.
_BINARY_NAMES = {"+": "add", "-": "sub", "*": "mul", "/": "div", "^": "pow"}
_UNARY_NAMES = {"-": "neg", "NOT": "not"}
_CMP_NAMES = {"=": "eq", "<>": "ne", "<": "lt", "<=": "le",
              ">": "gt", ">=": "ge"}


def _comparison_operands(e: Comparison, cx: _Ctx):
    """Both operands as doubles, each NaN-tested unless a constant number,
    then the comparison; returns the two steps and the operator."""
    s1 = compile_to_double(e.left, cx)
    if not _certainly_proper(e.left):
        cx.emit("nantest")
    s2 = compile_to_double(e.right, cx)
    if not _certainly_proper(e.right):
        cx.emit("nantest")
    cx.emit(f"cmp {_CMP_NAMES[e.op]}")
    return s1, s2, COMPARE_OPS[e.op]


def _compare_double(s1, s2, cmp):
    """1 or 0, or the first operand's NaN."""
    def step(fr):
        d1 = s1(fr)
        if d1 != d1:
            return d1
        d2 = s2(fr)
        if d2 != d2:
            return d2
        return 1.0 if cmp(d1, d2) else 0.0
    return step


def _const_double_step(cx, c):
    cx.emit(f"const {format_number(c)}")
    return lambda fr: c


# --- control flow, in both modes ---------------------------------------------

def _control(e: Expr, cx: _Ctx, branch, const, bad):
    """If, CHOOSE, AND and OR in double or value mode.  ``branch``
    compiles a sub-expression in the mode, ``const`` a 0/1 result, and
    the step ``bad`` passes on the error Value in ``fr.scratch``."""
    t = type(e)
    gen_bad = lambda: bad
    if t is If:
        return compile_to_condition(e.cond, cx, lambda: branch(e.then),
                                    lambda: branch(e.other), gen_bad)
    if t is Choose:
        return _choose_step(e, cx, branch, bad)
    return _paths(_and_or_paths(e), cx, lambda: const(1.0),
                  lambda: const(0.0), gen_bad)


def _choose_step(e: Choose, cx: _Ctx, branch, bad):
    """CHOOSE: truncate the selector, dispatch; out of range is #VALUE!."""
    n = len(e.branches)
    lend = cx.label()
    s = compile_to_double(e.index, cx)
    if not _certainly_proper(e.index):
        cx.emit("nantest")
    cx.emit(f"choose {n}")
    steps = []
    for b in e.branches:
        steps.append(branch(b))
        cx.emit(f"jmp {lend}")
    cx.mark(lend)

    def step(fr):
        d = s(fr)
        if d != d:
            fr.scratch = from_double_or_nan(d)
            return bad(fr)
        k = choose_index(d, n)
        if k is None:
            fr.scratch = ERROR_VALUE
            return bad(fr)
        return steps[k](fr)
    return step


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
    # A guard atom reads its memo, so it takes the general case.
    t = None if id(e) in cx.shared else type(e)
    if t is Const and type(e.value) in (Number, ErrorValue):
        # Constant: decide now, emit only the surviving branch.
        c = to_double_or_nan(e.value)
        if c != c:
            err = from_double_or_nan(c)
            cx.emit(f"error {err.name.translate(_ESCAPES)}")
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
    if t is And or t is Or:
        return _paths(_and_or_paths(e), cx, gen_t, gen_f, gen_bad)
    if t is Comparison:
        s1, s2, cmp = _comparison_operands(e, cx)
        t_step, f_step, bad_step = _branches(cx, gen_t, gen_f, gen_bad)

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
    return _branch_on(compile_to_double(e, cx), cx, gen_t, gen_f, gen_bad)


def _branch_on(s, cx: _Ctx, gen_t, gen_f, gen_bad):
    """Branch on the double that step ``s`` computes: nonzero, zero or NaN."""
    t_step, f_step, bad_step = _branches(cx, gen_t, gen_f, gen_bad)

    def step(fr):
        d = s(fr)
        if d != d:
            fr.scratch = from_double_or_nan(d)
            return bad_step(fr)
        if d != 0.0:
            return t_step(fr)
        return f_step(fr)
    return step


def _branches(cx: _Ctx, gen_t, gen_f, gen_bad):
    """Lay out the three continuations of a branch on the value just
    computed; returns their steps."""
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
    return t_step, f_step, bad_step


def _and_or_paths(e):
    """AND as one path of its arguments, OR as one path per argument."""
    lits = tuple(("pos", a) for a in e.args)
    return (lits,) if type(e) is And else tuple((lit,) for lit in lits)


def literal_test(lit, atom=None) -> Expr:
    """The expression a guard literal other than ``cond`` tests (see
    ``sdf.Guard``), on its atom or on ``atom`` in its place: the atom,
    NOT(atom), or TRUNC(atom) = k.  The literal holds when it reads true."""
    a = lit[1] if atom is None else atom
    if lit[0] == "neg":
        return Arith1("NOT", a)
    if lit[0] == "sel":
        return Comparison("=", FunctionCall("TRUNC", (a,)),
                          Const(Number(float(lit[2]))))
    return a


def _paths(paths, cx: _Ctx, gen_t, gen_f, gen_bad=None):
    """Branch on whether some path holds, trying each path's literals (see
    ``sdf.Guard``) in turn.  A literal that reads false moves on to the
    next path; one that reads anything but a number goes to ``gen_bad``,
    or without one moves on too."""
    gen_t, gen_f = _once(gen_t), _once(gen_f)
    gen_bad = gen_bad and _once(gen_bad)

    def path(i):
        fail = gen_f if i + 1 == len(paths) else _once(lambda: path(i + 1))

        def chain(j):
            if j == len(paths[i]):
                return gen_t()
            lit, t = paths[i][j], lambda: chain(j + 1)
            if lit[0] == "cond":
                return _branch_on(_literal_double(lit, cx), cx, t, fail,
                                  gen_bad or fail)
            return compile_to_condition(literal_test(lit), cx, t, fail,
                                        gen_bad or fail)
        return chain(0)
    return path(0)


def _literal_double(lit, cx: _Ctx):
    """A guard literal as a double: its test's double, or a ``cond``
    literal's guard memo, which holds its one literal's double or else
    1 when some path holds and 0 when none does."""
    if lit[0] != "cond":
        return compile_to_double(literal_test(lit), cx)
    g = lit[1]
    return _memo_step(g, cx, lambda: (
        _literal_double(g[0][0], cx) if len(g) == 1 and len(g[0]) == 1
        else _paths(g, cx, lambda: _const_double_step(cx, 1.0),
                    lambda: _const_double_step(cx, 0.0))))


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
            cx.emit(f"error {v.name.translate(_ESCAPES)}")
        else:
            kind = "text" if type(v) is Text else "value"
            cx.emit(f"{kind} {literal(v).translate(_ESCAPES)}")
        return lambda fr: v
    if t is CellRef:
        k = _key(e.addr)
        i = cx.args.get(k)
        if i is not None:
            cx.emit(f"arg {i}")
            return lambda fr: fr.args[i]
        slot = cx.slots[k]
        s = _slot_step(slot, cx)
        return _box_step(s, cx) if slot.numeric else s
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
        return _box_step(compile_to_double(e, cx), cx)
    if t is If or t is Choose or t is And or t is Or:
        return _control(e, cx, lambda b: compile_to_value(b, cx, tail),
                        lambda c: _boxed_const_step(cx, c),
                        lambda fr: fr.scratch)
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


def _box_step(s, cx):
    cx.emit("box")
    return lambda fr: make_number(s(fr))


def _boxed_const_step(cx, c):
    cx.emit(f"const {format_number(c)}")
    cx.emit("box")
    return lambda fr: make_number(c)


def _call_value(e: FunctionCall, cx: _Ctx):
    b = cx.registry.get(e.name)
    if b.func is None:      # DEFINE, which only a sheet cell can run
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
    cx.emit(f"{'tailapply' if tail else 'apply'} {len(sub)}")

    def step(fr):
        fv = sf(fr)
        if type(fv) is not FunctionValue:
            return unusable(fv)
        argv = [s(fr) for s in sub]
        if tail:
            return fr.rt.function_table.tail_apply(fv, argv)
        return fr.rt.function_table.apply(fv, argv, fr.rt)
    return step


# --- function assembly -------------------------------------------------------

def compile_function(info, registry) -> CompiledFunction:
    """Compile an SdfInfo's ComputeCell list (last entry is the output)."""
    cx = _Ctx(registry, {id(a) for cell in info.body for a in cell.shared})
    for i, addr in enumerate(info.inputs):
        cx.args[_key(addr)] = i

    body, out = info.body[:-1], info.body[-1]

    # Decide slot representation cell by cell, in evaluation order.
    for cell in body:
        numeric = is_numeric(cell.expr, registry, cx.numeric_cell)
        cx.slots[_key(cell.addr)] = _Slot(len(cx.slots), numeric, info.name)

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
            _, slot.thunk = make_assign()
            continue
        if cell.eval_cond is None:
            assign, _ = make_assign()
            steps.append(assign)
            continue
        cx.raw("  guard:")
        steps.append(_paths(((cell.eval_cond.literal,),), cx,
                            lambda: make_assign()[0],
                            lambda: (lambda fr: None)))

    cx.raw(f".out {out.addr.local().text()}")
    out_step = compile_to_value(out.expr, cx, tail=True)
    cx.emit("return")

    header = (f"func {info.name} id={info.id} params={len(info.inputs)} "
              f"slots={len(cx.slots)} memo={len(cx.memo)}")
    listing = "\n".join([header] + cx.lines) + "\n"
    return CompiledFunction(len(cx.slots), len(cx.memo), steps, out_step,
                            listing)
