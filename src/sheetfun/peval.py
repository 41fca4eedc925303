"""Online partial evaluation of compiled functions.

SPECIALIZE(closure) builds a residual function from the closure's target,
treating captured values as static and holes as dynamic.  Specialization
is polyvariant: each distinct argument pattern of each function gets its
own residual, shared through a per-workbook cache.  The cache entry is
registered before the body is processed, so a recursive call with the
same pattern becomes a call to the residual under construction.

Reduction maps an expression to an expression.  A static subterm is a
``Const``; any other subterm is its residual expression.  A strict node
(an operator, a call of a builtin that is not volatile, or CLOSURE) is
folded only when all its children are static, and then by the
interpreter itself (``engine.eval_on_consts``: ``eval_expr`` of the node
with those ``Const`` children), so a static value is the interpreter's
bit for bit.  Otherwise the node is rebuilt from its reduced children, after the
exact arithmetic identities of ``_simplify``.  A call whose arguments
are all partly known is specialized in turn; under dynamic control a
recursive call is first generalized against the pattern currently being
specialized, keeping a static argument only where its value is
unchanged.  This cuts off unbounded unfolding of loops whose static
state changes, while still letting statically reachable recursion
unfold precisely.  Runaway chains (a recursion that never terminates on
the given statics) hit a per-function budget; the whole attempt is then
rolled back and the original closure returned.

A cell's evaluation condition, an ``sdf.Guard``, is reduced directly,
literal by literal, with ``dyn`` turning true after the first dynamic
one as in an AND or OR.  A literal whose atom reduces to a ``Const`` is
static, and holds when the interpreter reads its test
(``codegen.literal_test``) on that constant as true; one that holds
drops out of its path and one that fails kills the path.  A guard with
no live path drops its cell before its formula is looked at, so the
cell's calls are never specialized; one with a path that holds makes
the cell unconditional.  Each condition-position node is reduced once
per body and ``dyn``, so a guard atom costs one reduction for its
cell's expression and every guard that reads it.  Residual bodies
re-enter the normal pipeline (reachability, inlining, evaluation
conditions, code generation).
"""

from __future__ import annotations

import sys

from . import codegen, engine, sdf
from .formula import (
    And, Apply, Arith2, CellRef, Choose, Comparison, Const, Expr,
    FunctionCall, If, NormalCellArea, NormalCellRef, Or, SdfCall, children,
    walk, with_children,
)
from .values import (
    ERROR_NAME, ERROR_VALUE, FunctionValue, HOLE, Number, Value, choose,
    display, from_double_or_nan, to_double_or_nan, truth, unusable,
    value_key,
)

__all__ = ["Specializer"]


_ZERO = Const(Number(0.0))
_ONE = Const(Number(1.0))


class _SpecLimit(Exception):
    def __init__(self, name):
        self.name = name


# The static right operands (and 1 on either side of *) that give back
# the other operand, bit for bit, when that operand is a number or an
# error: NaN arithmetic keeps the payload, and x-0 keeps a negative zero
# where x+0 and x-(-0) do not.
_RIGHT_UNIT = {op: value_key(Number(d))
               for op, d in (("-", 0.0), ("*", 1.0), ("/", 1.0), ("^", 1.0))}


def _key(addr) -> tuple:
    return (addr.col, addr.row)


def _pattern_text(pattern) -> str:
    return "(" + ",".join("#NA" if p is HOLE else display(p)
                          for p in pattern) + ")"


class Specializer:
    """Per-workbook partial evaluator with cache, budget and rollback."""

    def __init__(self, wb, limit: int = 100):
        self.wb = wb
        self.limit = limit
        # (target id, pattern key) -> (residual id, name, dynamic positions)
        self.cache: dict = {}
        # The specializations in progress, innermost last: (target id,
        # pattern tuple, keys of the residual cells of its body that
        # certainly hold a number or an error, the reductions of its
        # condition-position nodes and guards by (id, dyn), and the
        # expressions of its residual cells by key).
        self.active: list = []
        # Observer for cache hits, generalizations, new residuals and
        # limit trips; called with dicts keyed event/function/pattern/action.
        self.trace = None
        self._counts: dict | None = None
        self._journal: list | None = None

    # -- entry point

    def specialize(self, fv: FunctionValue) -> Value:
        table = self.wb.function_table
        info = table.get(fv.target)
        if info is None:
            return ERROR_NAME
        if len(fv.captured) != len(info.inputs):
            return ERROR_VALUE
        pattern = tuple(fv.captured)
        if all(p is HOLE for p in pattern):
            return fv           # nothing static to exploit
        self._counts = {}
        self._journal = []
        old_limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(old_limit, 80 * self.limit + 2000))
        try:
            res_id, res_name, dyn_pos = self._ensure(fv.target, pattern)
        except _SpecLimit as ex:
            self._roll_back()
            self.wb.log_diagnostic(
                f"SPECIALIZE {ex.name}: budget of {self.limit} residual "
                "functions exceeded; keeping the original")
            if self.trace is not None:
                self._emit("limit", ex.name, _pattern_text(pattern),
                           f"rolled back {len(self._journal)} residuals; "
                           "keeping the original")
            return fv
        except BaseException:
            # Cache entries are made before their bodies are built; none
            # may outlive an attempt that did not finish.
            self._roll_back()
            raise
        finally:
            sys.setrecursionlimit(old_limit)
            self._counts = None
            self._journal = None
        return FunctionValue(res_id, res_name, [HOLE] * len(dyn_pos))

    def _roll_back(self) -> None:
        """Forget the cache entries and residuals of this attempt."""
        table = self.wb.function_table
        for pkey, rid in self._journal:
            self.cache.pop(pkey, None)
            table.remove(rid)

    def invalidate(self, fn_id: int) -> None:
        """Forget residuals of a redefined function."""
        for k in [k for k in self.cache if k[0] == fn_id]:
            del self.cache[k]

    def _emit(self, event: str, function: str, pattern: str,
              action: str) -> None:
        self.trace({"event": event, "function": function,
                    "pattern": pattern, "action": action})

    # -- one residual function

    def _ensure(self, target: int, pattern: tuple):
        table = self.wb.function_table
        info = table.get(target)
        pkey = (target, tuple(value_key(p) for p in pattern))
        hit = self.cache.get(pkey)
        if hit is not None:
            if self.trace is not None:
                self._emit("cache-hit",
                           info.name if info is not None else f"#{target}",
                           _pattern_text(pattern), f"reused {hit[1]}")
            return hit
        n = self._counts.get(target, 0) + 1
        if n > self.limit:
            raise _SpecLimit(info.name if info is not None else f"#{target}")
        self._counts[target] = n

        res_id = table.fresh_id()
        res_name = f"{info.name}{_pattern_text(pattern)}#{res_id}"
        dyn_pos = tuple(i for i, p in enumerate(pattern) if p is HOLE)
        entry = (res_id, res_name, dyn_pos)
        # Register before building the body: recursion with the same
        # pattern resolves to the residual under construction.
        self.cache[pkey] = entry
        self._journal.append((pkey, res_id))
        self.active.append((target, pattern, set(), {}, {}))
        try:
            body = self._pe_body(info, pattern)
        finally:
            self.active.pop()

        rinfo = sdf.SdfInfo(res_id, res_name,
                            [info.inputs[i] for i in dyn_pos], body,
                            origin="specialized")
        rinfo.compiled = codegen.compile_function(rinfo, self.wb.registry)
        table.bind(res_name, res_id)
        table.install(rinfo)
        if self.trace is not None:
            self._emit("specialize", info.name, _pattern_text(pattern),
                       f"created {res_name}")
        return entry

    def _pe_body(self, info, pattern):
        # env: cell key -> its Const, or a CellRef to the residual cell or
        # dynamic input; a cell pruned as unreachable has no entry.
        env: dict = {}
        for addr, pv in zip(info.inputs, pattern):
            env[_key(addr)] = CellRef(addr) if pv is HOLE else Const(pv)
        res_cells = self.active[-1][4]
        for cell in info.body[:-1]:
            k = _key(cell.addr)
            holds = (cell.eval_cond is None
                     or self._pe_guard(cell.eval_cond, env, False))
            if holds is False:
                # Statically unreachable: drop the cell before looking at
                # (or specializing) its formula.
                continue
            r = self._pe(cell.expr, env, cell.lazy or holds is None)
            if type(r) is Const:
                env[k] = r
            else:
                env[k] = CellRef(cell.addr)
                if self._numeric(r):
                    self.active[-1][2].add(k)
                res_cells[k] = r
        out = info.body[-1]
        out_key = _key(out.addr)
        res_cells[out_key] = self._pe(out.expr, env, False)
        dyn_inputs = {_key(a) for a, p in zip(info.inputs, pattern)
                      if p is HOLE}

        def load(k2):
            e = res_cells.get(k2)
            if e is None:
                raise AssertionError(
                    f"residual of {info.name} references dropped cell")
            return e
        return sdf.build_body(load, out_key, dyn_inputs)

    # -- expression reduction

    def _pe(self, e: Expr, env: dict, dyn: bool) -> Expr:
        """Reduce ``e``: a static subterm is a ``Const``, anything else is
        the residual expression.  ``dyn`` is true under dynamic control,
        where a recursive call is generalized."""
        t = type(e)
        if t is Const:
            return e
        if t is CellRef:
            r = env.get(_key(e.addr))
            if r is None:
                raise AssertionError(
                    f"reference to unavailable cell {e.addr.text()}")
            return r
        if t is NormalCellRef or t is NormalCellArea:
            return e            # reads sheet state at call time
        if t is If:
            return self._pe_if(e, env, dyn)
        if t is Choose:
            return self._pe_choose(e, env, dyn)
        if t is And or t is Or:
            return self._pe_and_or(e, env, dyn)
        if t is SdfCall:
            reduced = [self._pe(a, env, dyn) for a in e.args]
            return self._pe_call(e.target, e.name, reduced, dyn)
        if t is Apply:
            return self._pe_apply(e, env, dyn)
        if t is Comparison:
            return self._pe_comparison(e, env, dyn)
        return self._pe_strict(e, env, dyn)

    def _pe_strict(self, e: Expr, env, dyn, kids=None):
        """An operator, a builtin call or CLOSURE: every child is
        evaluated, so the node is static when all of them are (and, for a
        call, the builtin is not volatile).  ``kids`` are the children
        already reduced, if any."""
        if kids is None:
            kids = []
            for c in children(e):
                kids.append(self._pe(c, env, dyn))
        for k in kids:
            if type(k) is not Const:
                if type(e) is Arith2:
                    s = self._simplify(e.op, *kids)
                    if s is not None:
                        return s
                return with_children(e, tuple(kids))
        if type(e) is FunctionCall and self.wb.registry.get(e.name).volatile:
            return with_children(e, tuple(kids))
        return Const(engine.eval_on_consts(e, kids, self.wb))

    def _pe_comparison(self, e: Comparison, env, dyn):
        """A static left operand that is not a number decides a
        comparison, as in the interpreter: the right one is never
        reduced, so its calls are not specialized."""
        left = self._pe(e.left, env, dyn)
        if type(left) is Const:
            d = to_double_or_nan(left.value)
            if d != d:
                return Const(from_double_or_nan(d))
        return self._pe_strict(e, env, dyn,
                               [left, self._pe(e.right, env, dyn)])

    def _may_draw(self, r: Expr) -> bool:
        """Whether a residual expression may draw RAND or run another
        volatile builtin: it holds a call of a function or of a volatile
        builtin, or an APPLY, or reads a residual cell that does.  Each
        cell is looked at once, however many paths read it."""
        registry, unread = self.wb.registry, dict(self.active[-1][4])
        todo = [r]
        while todo:
            for n in walk(todo.pop()):
                t = type(n)
                if t is SdfCall or t is Apply or (
                        t is FunctionCall and registry.get(n.name).volatile):
                    return True
                if t is CellRef and _key(n.addr) in unread:
                    todo.append(unread.pop(_key(n.addr)))
        return False

    def _numeric(self, r: Expr) -> bool:
        return codegen.is_numeric(r, self.wb.registry,
                                  self.active[-1][2].__contains__)

    def _simplify(self, op, l, r):
        """The operand that ``l op r`` gives back bit for bit, or None:
        x-0, x*1, 1*x, x/1 and x^1 on an operand known to be a number or
        an error.  No rule drops an operand, which may hold an error or
        draw RAND: x*0 is #NA for x = #NA and -0 for x < 0, and x^0 and
        1^x are 1 for any x but would lose the draws of RAND()^0.
        """
        unit = _RIGHT_UNIT.get(op)
        if unit is None:
            return None
        if (type(r) is Const and value_key(r.value) == unit
                and self._numeric(l)):
            return l
        if (op == "*" and type(l) is Const and value_key(l.value) == unit
                and self._numeric(r)):
            return r
        return None

    def _atom(self, e: Expr, env, dyn):
        """Reduce a condition-position node, once per body and ``dyn``."""
        memo = self.active[-1][3]
        key = (id(e), dyn)
        if key not in memo:
            memo[key] = self._pe(e, env, dyn)
        return memo[key]

    def _holds(self, lit, r: Expr) -> bool | None:
        """Whether a guard literal holds on its atom's reduction ``r``: the
        interpreter reads its test (``codegen.literal_test``) on ``r`` as
        true.  None when ``r`` is dynamic."""
        if type(r) is not Const:
            return None
        test = codegen.literal_test(lit, r)
        return truth(engine.eval_expr(test, None, self.wb)) is True

    def _pe_guard(self, g, env, dyn):
        """Reduce a guard: True when a path statically holds, False when
        none can, None when that depends on the dynamic inputs."""
        memo = self.active[-1][3]
        key = (id(g), dyn)
        if key not in memo:
            memo[key] = False
            for path in g:
                static = True
                for lit in path:
                    s = (self._pe_guard(lit[1], env, dyn) if lit[0] == "cond"
                         else self._holds(lit, self._atom(lit[1], env, dyn)))
                    if s is False:
                        break
                    if s is None:
                        static, dyn = False, True
                else:
                    memo[key] = static or None
                    if static:
                        break
        return memo[key]

    def _pe_if(self, e: If, env, dyn):
        c = self._atom(e.cond, env, dyn)
        if type(c) is Const:
            tr = truth(c.value)
            if isinstance(tr, Value):
                return Const(tr)
            return self._pe(e.then if tr else e.other, env, dyn)
        return If(c, self._pe(e.then, env, True),
                  self._pe(e.other, env, True))

    def _pe_choose(self, e: Choose, env, dyn):
        c = self._atom(e.index, env, dyn)
        if type(c) is Const:
            k = choose(c.value, len(e.branches))
            if isinstance(k, Value):
                return Const(k)
            return self._pe(e.branches[k], env, dyn)
        return Choose(c, tuple(self._pe(b, env, True)
                               for b in e.branches))

    def _pe_and_or(self, e, env, dyn):
        is_and = type(e) is And
        decide = _ZERO if is_and else _ONE
        residual: list[Expr] = []
        under = dyn
        for a in e.args:
            r = self._atom(a, env, under)
            if type(r) is Const:
                tr = truth(r.value)
                if isinstance(tr, Value) or tr != is_and:
                    # An error or a deciding constant: later arguments
                    # never run.
                    c = Const(tr) if isinstance(tr, Value) else decide
                    if not residual:
                        return c
                    residual.append(c)
                    break
                continue        # neutral constant: drop
            residual.append(r)
            under = True
        if not residual:
            return _ONE if is_and else _ZERO
        make = And if is_and else Or
        return make(tuple(residual))

    def _pe_apply(self, e: Apply, env, dyn):
        f = self._pe(e.fn, env, dyn)
        reduced = [self._pe(a, env, dyn) for a in e.args]
        if type(f) is Const:
            fv = f.value
            if type(fv) is not FunctionValue:
                return Const(unusable(fv))
            merged = self.wb.function_table.merge_args(fv, reduced)
            if merged is None:
                return Const(ERROR_VALUE)
            # A captured value is static; a hole holds its reduced argument.
            return self._pe_call(fv.target, fv.name, [
                m if isinstance(m, Expr) else Const(m) for m in merged], dyn)
        return Apply(f, tuple(reduced))

    def _pe_call(self, target: int, name: str, reduced: list, dyn: bool):
        """A call with per-argument knowledge; the core decision point."""
        table = self.wb.function_table
        info = table.get(target)
        if info is None:
            return SdfCall(target, name, tuple(reduced))
        if len(reduced) != len(info.inputs):
            return Const(ERROR_VALUE)
        pattern = [r.value if type(r) is Const else HOLE for r in reduced]
        if all(p is HOLE for p in pattern):
            return SdfCall(target, name, tuple(reduced))
        if dyn:
            act = None
            for at, ap, *_ in reversed(self.active):
                if at == target:
                    act = ap
                    break
            if act is not None:
                # Generalize against the specialization in progress: keep
                # a static only where its value is unchanged.
                gen = [p if (p is not HOLE and a is not HOLE
                             and p == a) else HOLE
                       for p, a in zip(pattern, act)]
                if self.trace is not None and gen != pattern:
                    self._emit("generalize", info.name, _pattern_text(gen),
                               f"widened from {_pattern_text(pattern)}")
                pattern = gen
                if all(p is HOLE for p in pattern):
                    return SdfCall(target, name, tuple(reduced))
        res_id, res_name, dyn_pos = self._ensure(target, tuple(pattern))
        rinfo = table.get(res_id)
        dyn_args = tuple(reduced[i] for i in dyn_pos)
        if rinfo is not None and len(rinfo.body) == 1 \
                and type(rinfo.body[0].expr) is Const \
                and not any(map(self._may_draw, dyn_args)):
            # The call's value is known, and no argument it drops draws.
            return rinfo.body[0].expr
        return SdfCall(res_id, res_name, dyn_args)
