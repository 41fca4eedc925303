"""Online partial evaluation of compiled functions.

SPECIALIZE(closure) builds a residual function from the closure's target,
treating captured values as static and holes as dynamic.  Specialization
is polyvariant: each distinct argument pattern of each function gets its
own residual, shared through a per-workbook cache.  The cache entry is
registered before the body is processed, so a recursive call with the
same pattern becomes a call to the residual under construction.

Static-only subterms are computed now, with the interpreter's exact
semantics (the operator table in ``values``, so results match bit for
bit).  A call whose arguments are all partly known is specialized in
turn; under dynamic control a recursive call is first generalized
against the pattern currently being specialized, keeping a static
argument only where its value is unchanged.  This cuts off unbounded
unfolding of loops whose static state changes, while still letting
statically reachable recursion unfold precisely.  Runaway chains (a
recursion that never terminates on the given statics) hit a per-function
budget; the whole attempt is then rolled back and the original closure
returned.

Residual bodies re-enter the normal pipeline (reachability, inlining,
evaluation conditions, code generation), so cells whose evaluation
condition became statically false disappear without their calls ever
being specialized.
"""

from __future__ import annotations

import sys

from . import codegen, sdf
from .formula import (
    And, Apply, Arith1, Arith2, CachedExpr, CellRef, Choose, Comparison,
    Const, Expr, FunctionCall, If, MakeClosure, NormalCellArea,
    NormalCellRef, Or, SdfCall,
)
from .values import (
    BINARY_OPS, COMPARE_OPS, ERROR_NAME, ERROR_VALUE, UNARY_OPS, ErrorValue,
    FunctionValue, HOLE, Number, Value, choose_index, display,
    fconcat_values, from_double_or_nan, to_double_or_nan, truth, value_key,
)

__all__ = ["Specializer", "Static", "Dyn"]


class Static:
    """A subterm whose value is known at specialization time."""

    __slots__ = ("value",)

    def __init__(self, value: Value):
        self.value = value

    def __repr__(self):
        return f"Static({display(self.value)})"


class Dyn:
    """A subterm only known as a residual expression.  ``numeric`` marks a
    reference to a residual cell that certainly holds a number or an
    error (``codegen.is_numeric`` asks it of cell references)."""

    __slots__ = ("expr", "numeric")

    def __init__(self, expr: Expr, numeric: bool = False):
        self.expr = expr
        self.numeric = numeric

    def __repr__(self):
        return f"Dyn({self.expr!r})"


_PRUNED = object()     # body cell statically unreachable


class _SpecLimit(Exception):
    def __init__(self, name):
        self.name = name


def _expr_r(r) -> Expr:
    return r.expr if type(r) is Dyn else Const(r.value)


# The static right operands that give back the other operand, bit for bit,
# when that operand is a number or an error: NaN arithmetic keeps the
# payload, and x-0 keeps a negative zero where x+0 and x-(-0) do not.
_RIGHT_UNIT = {op: value_key(Number(d))
               for op, d in (("-", 0.0), ("*", 1.0), ("/", 1.0), ("^", 1.0))}


def _is_zero(r) -> bool:
    return (type(r) is Static and type(r.value) is Number
            and r.value.value == 0.0)


def _is_one(r) -> bool:
    return (type(r) is Static and type(r.value) is Number
            and r.value.value == 1.0)


def _key(addr) -> tuple:
    return (addr.col, addr.row)


def _pattern_text(pattern) -> str:
    return "(" + ",".join("#NA" if p is HOLE else display(p)
                          for p in pattern) + ")"


class Specializer:
    """Per-workbook partial evaluator with cache, budget and rollback."""

    def __init__(self, wb, limit: int = 100, strict_simplify: bool = False):
        self.wb = wb
        self.limit = limit
        self.strict_simplify = strict_simplify
        # (target id, pattern key) -> (residual id, name, dynamic positions)
        self.cache: dict = {}
        self.active: list = []      # (target id, pattern tuple), innermost last
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
        self.active.append((target, pattern))
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
        env: dict = {}
        for addr, pv in zip(info.inputs, pattern):
            k = _key(addr)
            env[k] = Dyn(CellRef(addr)) if pv is HOLE else Static(pv)
        res_cells: dict = {}
        for cell in info.body[:-1]:
            k = _key(cell.addr)
            under_dyn = cell.lazy
            if cell.eval_cond is not None:
                g = self._pe(cell.eval_cond, env, False)
                if type(g) is Static:
                    d = to_double_or_nan(g.value)
                    if d != d or d == 0.0:
                        # Statically unreachable: drop the cell before
                        # looking at (or specializing) its formula.
                        env[k] = _PRUNED
                        continue
                else:
                    under_dyn = True
            r = self._pe(cell.expr, env, under_dyn)
            if type(r) is Static:
                env[k] = r
            else:
                env[k] = Dyn(CellRef(cell.addr), self._numeric(r, env))
                res_cells[k] = r.expr
        out = info.body[-1]
        ro = self._pe(out.expr, env, False)
        out_key = _key(out.addr)
        res_cells[out_key] = _expr_r(ro)
        dyn_inputs = {_key(a) for a, p in zip(info.inputs, pattern)
                      if p is HOLE}
        if out_key in dyn_inputs:
            # Output cell doubles as a parameter: passthrough body.
            return sdf.build_body(lambda k2: None, out_key, dyn_inputs)

        def load(k2):
            e = res_cells.get(k2)
            if e is None:
                raise AssertionError(
                    f"residual of {info.name} references dropped cell")
            return e
        return sdf.build_body(load, out_key, dyn_inputs)

    # -- expression reduction

    def _pe(self, e: Expr, env: dict, dyn: bool):
        t = type(e)
        if t is Const:
            return Static(e.value)
        if t is CellRef:
            r = env.get(_key(e.addr))
            if r is None or r is _PRUNED:
                raise AssertionError(
                    f"reference to unavailable cell {e.addr.text()}")
            return r
        if t is NormalCellRef or t is NormalCellArea:
            return Dyn(e)       # reads sheet state at call time
        if t is Arith1:
            return self._pe_arith1(e, env, dyn)
        if t is Arith2:
            return self._pe_arith2(e, env, dyn)
        if t is Comparison:
            return self._pe_comparison(e, env, dyn)
        if t is If:
            return self._pe_if(e, env, dyn)
        if t is Choose:
            return self._pe_choose(e, env, dyn)
        if t is And or t is Or:
            return self._pe_and_or(e, env, dyn)
        if t is FunctionCall:
            return self._pe_builtin(e, env, dyn)
        if t is SdfCall:
            reduced = [self._pe(a, env, dyn) for a in e.args]
            return self._pe_call(e.target, e.name, reduced, dyn)
        if t is MakeClosure:
            return self._pe_closure(e, env, dyn)
        if t is Apply:
            return self._pe_apply(e, env, dyn)
        if t is CachedExpr:
            return self._pe(e.inner, env, dyn)
        raise TypeError(f"cannot reduce {e!r}")

    def _pe_arith1(self, e: Arith1, env, dyn):
        r = self._pe(e.arg, env, dyn)
        if type(r) is Static:
            d = UNARY_OPS[e.op](to_double_or_nan(r.value))
            return Static(from_double_or_nan(d))
        return Dyn(Arith1(e.op, r.expr))

    def _pe_arith2(self, e: Arith2, env, dyn):
        op = e.op
        l = self._pe(e.left, env, dyn)
        r = self._pe(e.right, env, dyn)
        if type(l) is Static and type(r) is Static:
            if op == "&":
                return Static(fconcat_values(l.value, r.value))
            d = BINARY_OPS[op](to_double_or_nan(l.value),
                               to_double_or_nan(r.value))
            return Static(from_double_or_nan(d))
        s = self._simplify(op, l, r, env)
        if s is not None:
            return s
        return Dyn(Arith2(op, _expr_r(l), _expr_r(r)))

    def _numeric(self, r: Dyn, env: dict) -> bool:
        return codegen.is_numeric(r.expr, self.wb.registry,
                                  lambda k: env[k].numeric)

    def _simplify(self, op, l, r, env):
        """Arithmetic identities on residual operands; one of ``l`` and
        ``r`` is static.

        x-0, x*1, 1*x, x/1 and x^1 apply only to an operand known to be
        a number or an error, where they are exact; 1^x and x^0 are 1
        for any x.  The multiply-by-zero pair deletes the dynamic
        operand, losing an error it might have produced and the sign of
        a zero; --strict-simplify turns the pair off.
        """
        if op == "*":
            if not self.strict_simplify and (_is_zero(r) or _is_zero(l)):
                return Static(Number(0.0))
            if _is_one(l) and self._numeric(r, env):
                return r
        elif op == "^" and (_is_one(l) or _is_zero(r)):
            return Static(Number(1.0))    # 1^x and x^0, even for NaN
        unit = _RIGHT_UNIT.get(op)
        if (unit is not None and type(r) is Static
                and value_key(r.value) == unit and self._numeric(l, env)):
            return l
        return None

    def _pe_comparison(self, e: Comparison, env, dyn):
        l = self._pe(e.left, env, dyn)
        r = self._pe(e.right, env, dyn)
        if type(l) is Static and type(r) is Static:
            da = to_double_or_nan(l.value)
            if da != da:
                return Static(from_double_or_nan(da))
            db = to_double_or_nan(r.value)
            if db != db:
                return Static(from_double_or_nan(db))
            ok = COMPARE_OPS[e.op](da, db)
            return Static(Number(1.0 if ok else 0.0))
        return Dyn(Comparison(e.op, _expr_r(l), _expr_r(r)))

    def _pe_if(self, e: If, env, dyn):
        c = self._pe(e.cond, env, dyn)
        if type(c) is Static:
            tr = truth(c.value)
            if isinstance(tr, Value):
                return Static(tr)
            return self._pe(e.then if tr else e.other, env, dyn)
        t = self._pe(e.then, env, True)
        o = self._pe(e.other, env, True)
        return Dyn(If(c.expr, _expr_r(t), _expr_r(o)))

    def _pe_choose(self, e: Choose, env, dyn):
        c = self._pe(e.index, env, dyn)
        if type(c) is Static:
            d = to_double_or_nan(c.value)
            if d != d:
                return Static(from_double_or_nan(d))
            k = choose_index(d, len(e.branches))
            if k is None:
                return Static(ERROR_VALUE)
            return self._pe(e.branches[k], env, dyn)
        branches = tuple(_expr_r(self._pe(b, env, True)) for b in e.branches)
        return Dyn(Choose(c.expr, branches))

    def _pe_and_or(self, e, env, dyn):
        is_and = type(e) is And
        decide = 0.0 if is_and else 1.0
        residual: list[Expr] = []
        under = dyn
        for a in e.args:
            r = self._pe(a, env, under)
            if type(r) is Static:
                tr = truth(r.value)
                if isinstance(tr, Value):
                    if not residual:
                        return Static(tr)
                    # Error decides: later arguments never run.
                    residual.append(Const(tr))
                    break
                if tr == (not is_and):
                    if not residual:
                        return Static(Number(decide))
                    # Deciding constant after dynamics: truncate here.
                    residual.append(Const(Number(decide)))
                    break
                continue        # neutral constant: drop
            residual.append(r.expr)
            under = True
        if not residual:
            return Static(Number(1.0 if is_and else 0.0))
        make = And if is_and else Or
        return Dyn(make(tuple(residual)))

    def _pe_builtin(self, e: FunctionCall, env, dyn):
        b = self.wb.registry.get(e.name)
        reduced = [self._pe(a, env, dyn) for a in e.args]
        if b.pure and all(type(r) is Static for r in reduced):
            return Static(b.invoke([r.value for r in reduced], self.wb))
        return Dyn(FunctionCall(e.name, tuple(_expr_r(r) for r in reduced)))

    def _pe_closure(self, e: MakeClosure, env, dyn):
        f = self._pe(e.fn, env, dyn)
        reduced = [self._pe(a, env, dyn) for a in e.args]
        if type(f) is Static and all(type(r) is Static for r in reduced):
            v = self.wb.function_table.make_closure(
                f.value, [r.value for r in reduced])
            return Static(v)
        return Dyn(MakeClosure(_expr_r(f),
                               tuple(_expr_r(r) for r in reduced)))

    def _pe_apply(self, e: Apply, env, dyn):
        f = self._pe(e.fn, env, dyn)
        reduced = [self._pe(a, env, dyn) for a in e.args]
        if type(f) is Static:
            fv = f.value
            if type(fv) is ErrorValue:
                return Static(fv)
            if type(fv) is not FunctionValue:
                return Static(ERROR_VALUE)
            if len(reduced) != fv.arity:
                return Static(ERROR_VALUE)
            merged = []
            it = iter(reduced)
            for c in fv.captured:
                merged.append(next(it) if c is HOLE else Static(c))
            return self._pe_call(fv.target, fv.name, merged, dyn)
        return Dyn(Apply(f.expr, tuple(_expr_r(r) for r in reduced)))

    def _pe_call(self, target: int, name: str, reduced: list, dyn: bool):
        """A call with per-argument knowledge; the core decision point."""
        table = self.wb.function_table
        info = table.get(target)
        if info is None:
            return Dyn(SdfCall(target, name,
                               tuple(_expr_r(r) for r in reduced)))
        if len(reduced) != len(info.inputs):
            return Static(ERROR_VALUE)
        pattern = [r.value if type(r) is Static else HOLE for r in reduced]
        if all(p is HOLE for p in pattern):
            return Dyn(SdfCall(target, name,
                               tuple(_expr_r(r) for r in reduced)))
        if dyn:
            act = None
            for at, ap in reversed(self.active):
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
                    return Dyn(SdfCall(target, name,
                                       tuple(_expr_r(r) for r in reduced)))
        res_id, res_name, dyn_pos = self._ensure(target, tuple(pattern))
        rinfo = table.get(res_id)
        if rinfo is not None and len(rinfo.body) == 1 \
                and type(rinfo.body[0].expr) is Const:
            return Static(rinfo.body[0].expr.value)
        args = tuple(_expr_r(reduced[i]) for i in dyn_pos)
        return Dyn(SdfCall(res_id, res_name, args))
