"""Sheet-defined functions: DEFINE pipeline, closures, and the function table.

DEFINE("NAME", out, in1..inN) turns a region of a function sheet into a
callable function.  Compilation proceeds in steps:

1. collect the cells the output transitively references (inputs are
   leaves; their stored formulas are ignored),
2. topologically sort them; static cycles are rejected,
3. inline cells referenced exactly once (never inputs),
4. attach evaluation conditions: a cell executes only when some
   conditional path that references it is live.  Guard subterms shared
   between a condition and its home expression are wrapped in CachedExpr
   so each is computed once per call.  Cells whose conditions would read
   slots that cannot be ordered first fall back to lazy on-demand slots,
5. code generation (see codegen).

A call to a name that is not a builtin is linked to the name's id when
DEFINE runs, defined yet or not, so the order of the DEFINEs does not
matter.  A builtin's name, or a form the parser takes itself, cannot be
defined.  CLOSURE builds FunctionValues with #NA arguments as holes;
APPLY fills the holes and calls the target.  The table binds names to
stable ids, so redefinition replaces the body under the same id and
existing closures pick up the new meaning.  A body lives as long as the
DEFINE cell that installed it: when that cell is overwritten, fails or
names another function, the body goes and the id stays reserved, so
calls and closures read #NAME?.  Every call by id goes through
``FunctionTable.call``, the tail-call trampoline.
"""

from __future__ import annotations

import re
from collections import Counter

from . import codegen
from .formula import (
    LEAF_TYPES, PARSER_FORMS, And, Arith1, CachedExpr, CellAddr, CellRef,
    Choose, Comparison, Const, Expr, FunctionCall, If, NormalCellArea,
    NormalCellRef, Or, SdfCall, children, map_children, walk,
)
from .values import (
    ERROR_NA, ERROR_NAME, ERROR_VALUE, ErrorValue, FunctionValue, HOLE,
    Number, Text, Value,
)

__all__ = ["ComputeCell", "SdfInfo", "FunctionTable", "DefineError",
           "define", "canonical_name", "build_body"]


class DefineError(Exception):
    """A function definition was rejected; the message says why."""


class ComputeCell:
    """One guarded assignment of a compiled body; the last cell of a body
    is the output and carries no condition."""

    __slots__ = ("addr", "expr", "eval_cond", "lazy")

    def __init__(self, addr: CellAddr, expr: Expr, eval_cond: Expr | None,
                 lazy: bool = False):
        self.addr = addr
        self.expr = expr
        self.eval_cond = eval_cond
        self.lazy = lazy

    def __repr__(self):
        flags = " lazy" if self.lazy else ""
        guard = "" if self.eval_cond is None else " guarded"
        return f"<ComputeCell {self.addr.local().text()}{guard}{flags}>"


class SdfInfo:
    """A defined function: inputs, retained body, and compiled form."""

    __slots__ = ("id", "name", "inputs", "body", "compiled", "origin")

    def __init__(self, fn_id: int, name: str, inputs, body, origin: str):
        self.id = fn_id
        self.name = name
        self.inputs = list(inputs)
        self.body = body
        self.compiled = None
        self.origin = origin

    def __repr__(self):
        return f"<SdfInfo #{self.id} {self.name}/{len(self.inputs)}>"


_SIMPLE_NAME = re.compile(r"^[A-Za-z_][A-Za-z0-9_.]*$")


def canonical_name(name: str) -> str:
    """Plain identifiers are case-insensitive; decorated residual names
    (containing '#', parentheses, ...) are used verbatim."""
    return name.upper() if _SIMPLE_NAME.match(name) else name


class FunctionTable:
    """Stable function ids with late-bound bodies."""

    def __init__(self):
        self._infos: dict[int, SdfInfo] = {}
        self._name_to_id: dict[str, int] = {}
        self._next_id = 1

    def ensure_id(self, name: str) -> int:
        fn_id = self._name_to_id.get(name)
        if fn_id is None:
            fn_id = self.fresh_id()
            self._name_to_id[name] = fn_id
        return fn_id

    def fresh_id(self) -> int:
        fn_id = self._next_id
        self._next_id += 1
        return fn_id

    def bind(self, name: str, fn_id: int) -> None:
        self._name_to_id[name] = fn_id

    def lookup_name(self, name: str) -> int | None:
        return self._name_to_id.get(canonical_name(name))

    def get(self, fn_id: int) -> SdfInfo | None:
        return self._infos.get(fn_id)

    def install(self, info: SdfInfo) -> None:
        self._infos[info.id] = info

    def uninstall(self, fn_id: int) -> None:
        """Remove a body; the name keeps its id, so calls read #NAME?."""
        self._infos.pop(fn_id, None)

    def unbind(self, name: str) -> None:
        fn_id = self._name_to_id.pop(name, None)
        if fn_id is not None:
            self._infos.pop(fn_id, None)

    def remove(self, fn_id: int) -> None:
        info = self._infos.pop(fn_id, None)
        if info is not None:
            self._name_to_id.pop(info.name, None)

    def items(self) -> list[SdfInfo]:
        return sorted(self._infos.values(), key=lambda i: i.id)

    # -- calling

    def call(self, fn_id: int | None, argv: list, rt) -> Value:
        """Run a function and chase the TailCall tokens it returns.  A
        missing target is #NAME?, a wrong argument count #VALUE!."""
        while True:
            info = self._infos.get(fn_id)
            if info is None:
                return ERROR_NAME
            if len(argv) != len(info.inputs):
                return ERROR_VALUE
            r = info.compiled.run(argv, rt)
            if type(r) is not codegen.TailCall:
                return r
            fn_id, argv = r.target, r.args

    def make_closure(self, fnv: Value, argv: list) -> Value:
        if type(fnv) is Text:
            info = self._infos.get(self.lookup_name(fnv.value))
            if info is None:
                return ERROR_NAME
            if len(argv) != len(info.inputs):
                return ERROR_VALUE
            captured = [HOLE if v is ERROR_NA else v for v in argv]
            return FunctionValue(info.id, info.name, captured)
        if type(fnv) is FunctionValue:
            merged = self.merge_args(
                fnv, [HOLE if v is ERROR_NA else v for v in argv])
            if merged is None:
                return ERROR_VALUE
            return FunctionValue(fnv.target, fnv.name, merged)
        if type(fnv) is ErrorValue:
            return fnv
        return ERROR_VALUE

    def merge_args(self, fv: FunctionValue, argv: list) -> list | None:
        if len(argv) != fv.arity:
            return None
        merged = list(fv.captured)
        it = iter(argv)
        for i, c in enumerate(merged):
            if c is HOLE:
                merged[i] = next(it)
        return merged

    def apply(self, fv: FunctionValue, argv: list, rt) -> Value:
        merged = self.merge_args(fv, argv)
        if merged is None:
            return ERROR_VALUE
        return self.call(fv.target, merged, rt)

    def tail_apply(self, fv: FunctionValue, argv: list):
        """Like apply, but produce the trampoline token instead of calling."""
        merged = self.merge_args(fv, argv)
        if merged is None:
            return ERROR_VALUE
        return codegen.TailCall(fv.target, merged)


# --- definition --------------------------------------------------------------

def define(wb, name: str, out: CellAddr, ins: list[CellAddr]) -> SdfInfo:
    """Build, compile and install a function from sheet cells."""
    table = wb.function_table
    keys = [(a.col, a.row) for a in ins]
    if len(set(keys)) != len(keys):
        raise DefineError("duplicate input cells")
    cname = canonical_name(name)
    if cname in PARSER_FORMS or wb.registry.get(cname) is not None:
        raise DefineError(f"{cname} is a builtin; a call by that name "
                          "never reaches a defined function")
    fresh = table.lookup_name(cname) is None
    fn_id = table.ensure_id(cname)
    sheet = wb.sheets[out.sheet]

    def load(key):
        cell = sheet.cells.get(key)
        if cell is None:
            return Const(Number(0.0))
        content = cell.content
        if isinstance(content, Value):
            return Const(content)
        return _resolve(content, sheet.name, table, wb.registry)

    try:
        body = build_body(load, (out.col, out.row), set(keys))
        info = SdfInfo(fn_id, cname, [a.local() for a in ins], body,
                       origin="define")
        info.compiled = codegen.compile_function(info, wb.registry)
    except DefineError:
        if fresh:
            table.unbind(cname)
        raise
    table.install(info)
    wb.specializer.invalidate(fn_id)
    return info


def _resolve(e: Expr, fsheet: str, table: FunctionTable, registry) -> Expr:
    """Rewrite a body formula: normalize local references, and link every
    call that is not a builtin to its name's id in the function table,
    whether or not that name is defined yet."""
    t = type(e)
    if t is CellRef:
        return CellRef(e.addr.local())
    if t is NormalCellRef:
        if e.addr.sheet == fsheet:
            return CellRef(e.addr.local())
        return e
    if t is NormalCellArea:
        if e.start.sheet is None or e.start.sheet == fsheet:
            raise DefineError(
                "cell areas on the function sheet are not supported "
                "in function bodies")
        return e
    e = map_children(e, lambda c: _resolve(c, fsheet, table, registry))
    if t is FunctionCall and registry.get(e.name) is None:
        name = canonical_name(e.name)
        return SdfCall(table.ensure_id(name), name, e.args)
    return e


# --- body assembly (pipeline steps 1-4) -------------------------------------

def _local_refs(e: Expr):
    for n in walk(e):
        if type(n) is CellRef:
            yield (n.addr.col, n.addr.row)


def build_body(load, out_key, input_keys: set, inline: bool = True):
    """Assemble the ComputeCell list for a function body.

    ``load(key)`` supplies the resolved formula of a local cell.  Raises
    DefineError on static cycles.  ``inline`` disables step 3 for tests.
    """
    if out_key in input_keys:
        addr = CellAddr(None, *out_key)
        return [ComputeCell(addr, CellRef(addr), None)]

    cellmap: dict[tuple, Expr] = {}
    order: list[tuple] = []
    state: dict[tuple, int] = {}
    stack: list[tuple] = []

    def visit(key):
        if key in input_keys:
            return
        st = state.get(key)
        if st == 2:
            return
        if st == 1:
            cycle = stack[stack.index(key):] + [key]
            names = " -> ".join(CellAddr(None, *k).text() for k in cycle)
            raise DefineError(f"static cycle among cells: {names}")
        state[key] = 1
        stack.append(key)
        e = load(key)
        cellmap[key] = e
        for r in set(_local_refs(e)):
            visit(r)
        stack.pop()
        state[key] = 2
        order.append(key)

    visit(out_key)

    if inline:
        _inline_single_use(cellmap, order, out_key, input_keys)

    return _attach_conditions(cellmap, order, out_key)


def _substitute(e: Expr, key, repl: Expr) -> Expr:
    """Replace the (single) CellRef to ``key`` with ``repl``."""
    if type(e) is CellRef:
        return repl if (e.addr.col, e.addr.row) == key else e
    return map_children(e, lambda c: _substitute(c, key, repl))


def _inline_single_use(cellmap, order, out_key, input_keys) -> None:
    """Step 3: fold cells with exactly one static reference into their use
    site.  Inputs and the output stay."""
    while True:
        counts = Counter()
        for e in cellmap.values():
            counts.update(_local_refs(e))
        target = None
        for key in order:
            if key != out_key and counts[key] == 1:
                target = key
                break
        if target is None:
            return
        repl = cellmap.pop(target)
        order.remove(target)
        for key2 in order:
            e2 = cellmap[key2]
            if target in _local_refs(e2):
                cellmap[key2] = _substitute(e2, target, repl)
                break


def _is_trivial(e: Expr) -> bool:
    return type(e) in (Const, CellRef, CachedExpr)


def _rebuild_with_wraps(e: Expr, need: set, nodemap: dict) -> Expr:
    """Rebuild a tree, wrapping nodes whose id is in ``need`` in CachedExpr.
    ``nodemap`` maps old node ids to the rebuilt (possibly wrapped) nodes
    so condition literals can point at the shared objects.  Leaves are
    never wrapped, and ``need`` holds no CachedExpr (they are trivial)."""
    new = map_children(e, lambda c: _rebuild_with_wraps(c, need, nodemap))
    if id(e) in need and type(e) not in LEAF_TYPES:
        new = CachedExpr(new)
    nodemap[id(e)] = new
    return new


def _collect_sites(e: Expr, path: list, sites: dict) -> None:
    """Record, per referenced cell, the conditional path to each reference.

    Branch literals come from If/Choose and from the short-circuit
    structure of And/Or (argument k only runs when the preceding
    arguments did not decide the result).  References inside a guard
    position contribute no literal of their own.
    """
    t = type(e)
    if t is CellRef:
        key = (e.addr.col, e.addr.row)
        sites.setdefault(key, []).append(tuple(path))
        return
    if t is If:
        _collect_sites(e.cond, path, sites)
        path.append(("pos", e.cond))
        _collect_sites(e.then, path, sites)
        path.pop()
        path.append(("neg", e.cond))
        _collect_sites(e.other, path, sites)
        path.pop()
        return
    if t is Choose:
        _collect_sites(e.index, path, sites)
        for i, b in enumerate(e.branches):
            path.append(("sel", e.index, i + 1))
            _collect_sites(b, path, sites)
            path.pop()
        return
    if t is And or t is Or:
        mark = "pos" if t is And else "neg"
        for j, a in enumerate(e.args):
            extra = [(mark, prev) for prev in e.args[:j]]
            path.extend(extra)
            _collect_sites(a, path, sites)
            del path[len(path) - len(extra):]
        return
    for c in children(e):
        _collect_sites(c, path, sites)


def _literal_expr(lit, nodemap) -> Expr:
    if lit[0] == "pos":
        return nodemap[id(lit[1])]
    if lit[0] == "neg":
        return Arith1("NOT", nodemap[id(lit[1])])
    node = nodemap[id(lit[1])]
    return Comparison("=", FunctionCall("TRUNC", (node,)),
                      Const(Number(float(lit[2]))))


def _and_expr(parts: list) -> Expr:
    return parts[0] if len(parts) == 1 else And(tuple(parts))


def _or_expr(parts: list) -> Expr:
    return parts[0] if len(parts) == 1 else Or(tuple(parts))


def _subsume_paths(paths):
    """Keep only the most general reference sites.

    A site whose path is a prefix of another site's path already makes
    the cell needed whenever the longer path applies; in particular a
    reference inside a guard subsumes every reference in the branches
    that guard controls.  Dropping the longer paths also drops guard
    literals that may mention the cell itself (a guard can test the very
    cell it protects a second use of), which would otherwise put the
    cell into its own evaluation condition."""
    sigs = [tuple((l[0], id(l[1])) + l[2:] for l in p) for p in paths]
    kept: list = []
    kept_sigs: list = []
    for p, s in sorted(zip(paths, sigs), key=lambda t: len(t[1])):
        if any(s[:len(q)] == q for q in kept_sigs):
            continue
        kept.append(p)
        kept_sigs.append(s)
    return kept


def _attach_conditions(cellmap, order, out_key):
    """Step 4: evaluation conditions, condition-aware ordering, lazy
    fallback.  Returns the final ComputeCell list (output last)."""
    # Collect reference sites and the guard nodes used by path literals.
    sites_by_cell: dict[tuple, dict] = {}
    for key in order:
        sites: dict = {}
        _collect_sites(cellmap[key], [], sites)
        for k2, paths in sites.items():
            sites[k2] = _subsume_paths(paths)
        sites_by_cell[key] = sites

    need: set[int] = set()
    for sites in sites_by_cell.values():
        for key, paths in sites.items():
            if key not in cellmap:
                continue    # reference to an input: never guarded
            for path in paths:
                for lit in path:
                    node = lit[1]
                    if not _is_trivial(node):
                        need.add(id(node))

    nodemap: dict[int, Expr] = {}
    for key in order:
        cellmap[key] = _rebuild_with_wraps(cellmap[key], need, nodemap)

    # Evaluation conditions, output first (reverse topological order).
    ec: dict[tuple, Expr | None] = {out_key: None}
    dropped: set[tuple] = set()
    for key in reversed(order):
        if key == out_key:
            continue
        disjuncts = []
        always = False
        for parent in order:
            if parent in dropped:
                continue
            for path in sites_by_cell[parent].get(key, ()):
                parts = []
                pc = ec.get(parent)
                if pc is not None:
                    parts.append(pc)
                parts.extend(_literal_expr(lit, nodemap) for lit in path)
                if not parts:
                    always = True
                    break
                disjuncts.append(_and_expr(parts))
            if always:
                break
        if always:
            ec[key] = None
        elif not disjuncts:
            dropped.add(key)
        else:
            cond = _or_expr(disjuncts)
            # Share the condition between this guard and child guards.
            if not _is_trivial(cond):
                cond = CachedExpr(cond)
            ec[key] = cond

    # Condition-aware order: a cell must follow everything its guard reads.
    cells = [k for k in order if k != out_key and k not in dropped]
    live = set(cells)
    deps = {}
    for k in cells:
        d = set(_local_refs(cellmap[k]))
        if ec[k] is not None:
            # A guard that reads its own cell (through a nested parent
            # condition) cannot be ordered; the knot goes lazy below.
            d |= set(_local_refs(ec[k]))
        deps[k] = d & live

    seq: list[tuple] = []
    lazy: set[tuple] = set()
    done: set[tuple] = set()
    pending = list(cells)
    while pending:
        pick = None
        for k in pending:
            if deps[k] <= done | lazy:
                pick = k
                break
        if pick is None:
            # Guard dependencies form a knot; evaluate the rest on demand.
            lazy.update(pending)
            break
        pending.remove(pick)
        done.add(pick)
        seq.append(pick)

    body = []
    for k in seq:
        body.append(ComputeCell(CellAddr(None, *k), cellmap[k], ec[k]))
    for k in (k for k in cells if k in lazy):
        body.append(ComputeCell(CellAddr(None, *k), cellmap[k], None,
                                lazy=True))
    body.append(ComputeCell(CellAddr(None, *out_key), cellmap[out_key], None))
    return body
