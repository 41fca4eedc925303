"""Sheet-defined functions: DEFINE pipeline, closures, and the function table.

DEFINE("NAME", out, in1..inN) turns a region of a function sheet into a
callable function.  Compilation proceeds in steps:

1. collect the cells the output transitively references (inputs are
   leaves; their stored formulas are ignored),
2. topologically sort them; static cycles are rejected,
3. inline cells referenced exactly once (never inputs),
4. attach evaluation conditions: a cell executes only when some path
   that references it is live.  A condition is a Guard over literals;
   one that reads anything but a number fails its own path only.  Each
   ComputeCell records the guard atoms of its expression, each computed
   once per call.  Cells whose conditions would read slots that cannot
   be ordered first fall back to lazy on-demand slots,
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
    LEAF_TYPES, PARSER_FORMS, And, CellAddr, CellRef, Choose, Const, Expr,
    FunctionCall, If, NormalCellArea, NormalCellRef, Or, SdfCall, children,
    map_children, walk,
)
from .values import (
    ERROR_NA, ERROR_NAME, ERROR_VALUE, ErrorValue, FunctionValue, HOLE,
    Number, Text, Value,
)

__all__ = ["Guard", "ComputeCell", "SdfInfo", "FunctionTable", "DefineError",
           "define", "canonical_name", "build_body"]


class DefineError(Exception):
    """A function definition was rejected; the message says why."""


class Guard(tuple):
    """An evaluation condition, the tuple of its paths: its cell runs when
    some path holds.

    A path is a tuple of literals that must all hold: ``("pos", atom)`` or
    ``("neg", atom)``, the atom reads true or false; ``("sel", atom, k)``,
    the CHOOSE index atom selects branch k; ``("cond", guard)``, the guard
    of a referencing cell holds.  Atoms are nodes of the body.  A literal
    that reads anything but a number fails its own path only.
    """

    __slots__ = ()

    @property
    def literal(self) -> tuple:
        """The literal that reads this guard: its one literal when that is
        cheap to read again, else a ``cond`` literal (the guard's memo)."""
        lit = self[0][0]
        if len(self) == 1 and len(self[0]) == 1 and (
                lit[0] == "cond" or lit[0] == "pos"
                and type(lit[1]) not in (NormalCellRef, NormalCellArea)):
            return lit
        return ("cond", self)


class ComputeCell:
    """One guarded assignment of a compiled body; the last cell of a body
    is the output and carries no condition.  ``shared`` holds the guard
    atoms of ``expr``: each is computed at most once per call."""

    __slots__ = ("addr", "expr", "eval_cond", "lazy", "shared")

    def __init__(self, addr: CellAddr, expr: Expr, eval_cond: Guard | None,
                 lazy: bool = False, shared: tuple = ()):
        self.addr = addr
        self.expr = expr
        self.eval_cond = eval_cond
        self.lazy = lazy
        self.shared = shared

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
        # Every key is its own canonical name, so a name found as given
        # needs no canonical_name (the parser upper-cases call names).
        fn_id = self._name_to_id.get(name)
        if fn_id is None:
            fn_id = self._name_to_id.get(canonical_name(name))
        return fn_id

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


def _collect_sites(e: Expr, path: tuple, sites: dict) -> None:
    """Record, per referenced cell, the conditional path to each reference.

    Branch literals come from If/Choose and from the short-circuit
    structure of And/Or (argument k only runs when the preceding
    arguments did not decide the result).  References inside a guard
    position contribute no literal of their own.
    """
    t = type(e)
    if t is CellRef:
        sites.setdefault((e.addr.col, e.addr.row), []).append(path)
        return
    if t is If:
        kids = ((e.cond, ()), (e.then, (("pos", e.cond),)),
                (e.other, (("neg", e.cond),)))
    elif t is Choose:
        kids = ((e.index, ()),) + tuple(
            (b, (("sel", e.index, i + 1),)) for i, b in enumerate(e.branches))
    elif t is And or t is Or:
        mark = "pos" if t is And else "neg"
        kids = ((a, tuple((mark, p) for p in e.args[:j]))
                for j, a in enumerate(e.args))
    else:
        kids = ((c, ()) for c in children(e))
    for c, lits in kids:
        _collect_sites(c, path + lits, sites)


def _subsume_paths(paths):
    """Keep only the most general reference sites.

    A site whose path is a prefix of another site's path already makes
    the cell needed whenever the longer path applies; in particular a
    reference inside a guard subsumes every reference in the branches
    that guard controls.  Dropping the longer paths also drops guard
    literals that may mention the cell itself (a guard can test the very
    cell it protects a second use of), which would otherwise put the
    cell into its own evaluation condition."""
    kept: dict = {}     # a path's literals by node identity -> the path
    for p in sorted(paths, key=len):
        s = tuple((lit[0], id(lit[1])) + lit[2:] for lit in p)
        if not any(s[:len(q)] == q for q in kept):
            kept[s] = p
    return list(kept.values())


def _attach_conditions(cellmap, order, out_key):
    """Step 4: evaluation conditions, condition-aware ordering, lazy
    fallback.  Returns the final ComputeCell list (output last, as it is
    in ``order``)."""
    # The reference sites of each cell, referencing cells in order, and
    # each cell's guard atoms: the nodes its sites' literals read.
    sites_of: dict[tuple, list] = {k: [] for k in order}
    atoms: dict[tuple, dict] = {}
    for key in order:
        sites: dict = {}
        _collect_sites(cellmap[key], (), sites)
        atoms[key] = {}
        for k2, paths in sites.items():
            if k2 in cellmap:     # an input is never guarded
                for path in _subsume_paths(paths):
                    sites_of[k2].append((key, path))
                    atoms[key].update((id(lit[1]), lit[1]) for lit in path
                                      if type(lit[1]) not in LEAF_TYPES)

    # Evaluation conditions, output first (reverse topological order).
    # ``reads`` maps the id of an atom or a guard to the cells it reads;
    # a cell must follow everything its expression and its guard read.
    ec: dict[tuple, Guard | None] = {out_key: None}
    reads: dict[int, set] = {}
    deps: dict[tuple, set] = {}
    for key in reversed(order[:-1]):
        paths, r = [], set()
        for parent, path in sites_of[key]:
            if ec[parent] is not None:
                path = (ec[parent].literal,) + path
            if not path:
                paths, r = None, set()
                break
            paths.append(path)
            for lit in path:
                if id(lit[1]) not in reads:     # an atom seen first
                    reads[id(lit[1])] = set(_local_refs(lit[1]))
                r |= reads[id(lit[1])]
        ec[key] = g = Guard(paths) if paths else None
        if g is not None:
            reads[id(g)] = r
        deps[key] = (set(_local_refs(cellmap[key])) | r) & cellmap.keys()

    # Each step takes the first cell whose reads are all done.  A guard
    # that reads its own cell (through a nested parent condition) cannot
    # be ordered: such a knot and the cells still pending go lazy.
    done: dict[tuple, None] = {}
    pending = order[:-1]
    while pick := next((k for k in pending if deps[k] <= done.keys()), None):
        pending.remove(pick)
        done[pick] = None

    def cell(k, guard=None, lazy=False):
        return ComputeCell(CellAddr(None, *k), cellmap[k], guard, lazy,
                           tuple(atoms[k].values()))
    return ([cell(k, ec[k]) for k in done]
            + [cell(k, lazy=True) for k in pending] + [cell(out_key)])
