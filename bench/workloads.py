"""The benchmark's three seeded workloads.

Each workload generates workbook text and a plain-Python model of every
value in it (see ``reference``), then yields operations.  An operation is
the engine call being timed (``act``) plus a check of its output against
the model (``check``); the model is brought up to date before the
operation runs, so only the engine call is timed.

All randomness comes from one ``random.Random(seed)`` per workload.  The
engine sees only the generated text and the generated arguments; its RAND
seed is the benchmark seed, and ``reference.SplitMix64`` replays it.
"""

from __future__ import annotations

import random

from sheetfun import CellAddr, FunctionValue, HOLE, Number, Text, Workbook
from sheetfun import cli

import reference as ref
from reference import evaluate, render, same

# The library of function sheets, one sheet per function (cell contents as
# in the acceptance tests).
LIBRARY = {
    "ADD3": [("B1", "0"), ("B2", "0"), ("B3", "0"), ("B4", "=B1+B2+B3"),
             ("B5", '=DEFINE("ADD3", B4, B1, B2, B3)')],
    "MONTHLEN": [
        ("B1", "0"), ("B2", "0"),
        ("B3", "=OR(AND(MOD(B1,4)=0, MOD(B1,100)<>0), MOD(B1,400)=0)"),
        ("B4", "=CHOOSE(B2, 31, 28+B3, 31, 30, 31, 30, 31, 31, 30, 31, 30, "
               "31)"),
        ("B5", '=DEFINE("MONTHLEN", B4, B1, B2)')],
    "FACD": [("B1", "0"), ("B2", "=IF(B1=0, 1, B1*FACD(B1-1))"),
             ("B3", '=DEFINE("FACD", B2, B1)')],
    "LOOP": [("C1", "0"), ("C2", "=IF(C1<=0, 0, LOOP(C1-1))"),
             ("C3", '=DEFINE("LOOP", C2, C1)')],
    "REPT4": [("B66", "0"), ("B67", "0"),
              ("B68", "=REPT4(B66, QUOTIENT(B67,2))"),
              ("B69", '=IF(B67=0, "", IF(MOD(B67,2)=0, B68&B68, '
                      'B68&B68&B66))'),
              ("B70", '=DEFINE("REPT4", B69, B66, B67)')],
    "ACKA": [("B1", "0"), ("B2", "0"),
             ("B3", "=IF(B1=0, B2+1, IF(B2=0, ACKA(B1-1,1), "
                    "ACKA(B1-1, ACKA(B1, B2-1))))"),
             ("B4", '=DEFINE("ACKA", B3, B1, B2)')],
    "ACKB": [("C1", "0"), ("C2", "0"),
             ("C3", "=IF(C1=0, C2+1, ACKB(C1-1, IF(C2=0, 1, "
                    "ACKB(C1, C2-1))))"),
             ("C4", '=DEFINE("ACKB", C3, C1, C2)')],
    "EXPSAMPLE": [("B1", "1"), ("B2", "1"),
                  ("B3", "=IF(RAND()<B1, B2, EXPSAMPLE(B1, B2+1))"),
                  ("B4", '=DEFINE("EXPSAMPLE", B3, B1, B2)')],
}

# A redefinition that keeps the meaning: the same output cell, written
# another way, so every expected value stays valid.
REDEFINE = {
    "MONTHLEN": ("B4", "=CHOOSE(B2, 31, B3+28, 31, 30, 31, 30, 31, 31, 30, "
                       "31, 30, 31)"),
    "ADD3": ("B4", "=B1+(B2+0)+B3"),
}


def library_lines(names) -> list[str]:
    lines = []
    for name in names:
        lines.append(f"function sheet Lib{name}")
        lines += [f"{addr} = {content}" for addr, content in LIBRARY[name]]
    return lines


class Op:
    """One timed engine call and the check of what it returned."""

    __slots__ = ("kind", "act", "check", "label", "out")

    def __init__(self, kind, act, check, label=None):
        self.kind = kind
        self.act = act
        self.check = check
        self.label = label      # the function called, for time shares
        self.out = None


def to_values(args) -> list:
    return [Text(a) if type(a) is str else Number(float(a)) for a in args]


def is_number(v, expected: float) -> bool:
    return type(v) is Number and same(v.value, expected)


def quarter(rng, lo: float, hi: float) -> float:
    return rng.randint(int(lo * 4), int(hi * 4)) / 4.0


def addr(sheet: str, key) -> CellAddr:
    return CellAddr(sheet, key[0], key[1])


class Workload:
    """Generated text, a set-up that loads it, and the op streams."""

    def __init__(self, params: dict, seed: int):
        self.p = params
        self.seed = seed
        self.rng = random.Random(seed)
        self.lines: list[str] = []
        self.wb = None

    def setup(self) -> Workbook:
        """Generated text to a recalculated workbook (the timed set-up)."""
        wb = Workbook(seed=self.seed)
        cli.read_into(wb, self.lines)
        wb.recalculate()
        return wb

    def start(self, wb: Workbook) -> None:
        """Adopt a freshly set-up workbook as the one the ops run on."""
        self.wb = wb
        self.table = wb.function_table
        self.fn_ids = {info.name: info.id for info in self.table.items()}
        self.rand = ref.SplitMix64(self.seed)

    def round(self):
        """One round of the workload's own op stream."""
        raise NotImplementedError

    def extra(self, i: int):
        """Ops for the end-to-end metrics the stream itself does not
        sample; the timed run follows round ``i`` with this slice, so
        these samples spread over the whole run.  Never traced."""
        raise NotImplementedError

    # -- ops shared by the workloads

    def call_op(self, name: str, args: list, expected, via_eval: bool):
        """A direct FunctionTable call, or the same call as an
        ``eval_formula`` text (the --eval / REPL path)."""
        if via_eval:
            text = "=" + name + "(" + ",".join(
                '"' + a + '"' if type(a) is str else repr(a)
                for a in args) + ")"
            act = lambda: self.wb.eval_formula(text)
        else:
            fn_id = self.fn_ids[name]
            argv = to_values(args)
            act = lambda: self.table.call(fn_id, argv, self.wb)
        return Op("call", act, value_check(expected), name)

    def specialize_ops(self, name: str, captured: list, residual):
        """SPECIALIZE a closure, then call the residual a few times.

        ``residual(rng)`` returns (dynamic args, expected value) for one
        call of the residual; None marks the budget rollback case, whose
        result must be the very closure it was given."""
        fv = FunctionValue(self.fn_ids[name], name,
                           [HOLE if c is None else to_values([c])[0]
                            for c in captured])
        op = Op("specialize", lambda: self.wb.specializer.specialize(fv),
                (lambda out: out is fv) if residual is None else
                (lambda out: type(out) is FunctionValue
                 and out.arity == fv.arity))
        yield op
        if residual is None or type(op.out) is not FunctionValue:
            return
        res = op.out
        for _ in range(self.p["residual_calls"]):
            args, expected = residual(self.rng)
            argv = to_values(args)
            yield Op("residual_call",
                     lambda argv=argv: self.table.apply(res, argv, self.wb),
                     value_check(expected))

    def library_pattern(self, name: str, hot: bool):
        """A static/dynamic split of a library function: the captured
        values (None = hole) and the residual's reference."""
        rng = self.rng
        if name == "MONTHLEN":
            y = 2012 if hot else rng.randint(1600, 2400)
            return [y, None], lambda r: _args(
                ref.monthlen, [r.randint(1, 12)], lambda m: (y, m))
        if name == "ADD3":
            a = 1.5 if hot else quarter(rng, 0, 1000)
            return [a, None, None], lambda r: _args(
                ref.add3, [quarter(r, 0, 64), quarter(r, 0, 64)],
                lambda b, c: (a, b, c))
        if name == "REPT4":
            n = 7 if hot else rng.randint(0, 60)
            return [None, n], lambda r: _args(
                ref.rept, [r.choice(["ab", "xyz", "q"])], lambda s: (s, n))
        if name == "FACD":
            n = 12 if hot else rng.randint(0, 25)
            return [n], lambda r: ((), ref.facd(n))
        # ACKA and ACKB keep one pattern: the first SPECIALIZE after a
        # recalculation generalizes, later ones hit the cache.
        if name == "ACKA":
            return [2, None], lambda r: _args(
                ref.ackermann, [r.randint(0, 8)], lambda n: (2, n))
        if name == "ACKB":
            return [1, None], lambda r: _args(
                ref.ackermann, [r.randint(0, 8)], lambda n: (1, n))
        if name == "EXPSAMPLE":
            p = 0.5 if hot else rng.randint(5, 95) / 100
            return [p, 1], lambda r: (
                (), lambda: ref.expsample(self.rand, p, 1.0))
        raise ValueError(name)


def _args(fn, args, full):
    """(dynamic args, expected result) of one residual call; ``full``
    rebuilds the original function's argument list from them."""
    return args, fn(*full(*args))


def value_check(expected):
    """Check a Value against a number, a string, or a thunk giving one
    (thunks run at check time, after the call, for RAND replay)."""
    def check(v):
        e = expected() if callable(expected) else expected
        if type(e) is str:
            return type(v) is Text and v.value == e
        return is_number(v, e)
    return check


# --- sheet ------------------------------------------------------------------

class SheetWorkload(Workload):
    """A large ordinary sheet, full recalcs and single-constant edits."""

    SHEET = "Data"

    def __init__(self, params, seed):
        super().__init__(params, seed)
        p = params
        rng = self.rng
        rows, cols = p["rows"], p["cols"]
        hub_keys = [(c, 1) for c in range(1, p["hubs"] + 1)]
        consts: dict = {}
        cells: dict = {}
        for c in range(1, cols + 1):
            consts[(c, 1)] = quarter(rng, 0.25, 4)
        for r in range(2, rows + 1):
            consts[(1, r)] = float(rng.randint(1900, 2099))
            consts[(2, r)] = float(rng.randint(1, 12))
        # RAND cells sit in the last column and nothing reads them, so the
        # engine draws for them in row order, once per recalculation.
        self.rand_keys = sorted(
            ((cols, r) for r in rng.sample(range(2, rows + 1),
                                           p["rand_cells"])),
            key=lambda k: k[1])
        for k in self.rand_keys:
            cells[k] = ("rand",)
        # Forward-reference chains: each cell reads the one below it, so
        # evaluating the head recurses down the chain.  Chain cells read
        # only their chain and the hubs, so no cycle can form.
        chain_cells = int(p["chain_share"] * (rows - 1) * (cols - 2))
        lo, hi = p["chain_len"]
        while chain_cells > 0:
            length = rng.randint(lo, hi)
            c = rng.randint(3, cols - 1)
            r0 = rng.randint(2, rows - length + 1)
            keys = [(c, r) for r in range(r0, r0 + length)]
            if any(k in cells for k in keys):
                continue
            for k, below in zip(keys, keys[1:] + [None]):
                src = ("r", below) if below else ("r", rng.choice(hub_keys))
                cells[k] = ("+", ("*", src, ("n", 0.5)),
                            ("n", quarter(rng, 0.25, 4)))
            chain_cells -= length
        kinds, weights = zip(*p["mix"].items())
        for r in range(2, rows + 1):
            for c in range(3, cols + 1):
                if (c, r) in cells:
                    continue
                kind = rng.choices(kinds, weights)[0]
                if kind == "const":
                    consts[(c, r)] = quarter(rng, 0.25, 8)
                else:
                    cells[(c, r)] = self._formula(kind, c, r, hub_keys)
        self.cells = {k: e for k, e in cells.items() if e[0] != "rand"}
        deps = {k: list(ref.refs(e)) for k, e in self.cells.items()}
        self.order = ref.topo_order(deps)
        users: dict = {}
        for k, ds in deps.items():
            for d in set(ds):
                users.setdefault(d, []).append(k)
        self.users = {k: sorted(v) for k, v in users.items()}
        vals = dict(consts)
        for k in self.order:
            vals[k] = evaluate(self.cells[k], vals.__getitem__)
        self.vals0 = vals
        # Edit targets by fan-out class: plain constants (few readers),
        # calendar constants (read by MONTHLEN calls), hubs (read by chains
        # and by much of the sheet through its neighbours).
        with_users = [k for k in consts if k in self.users]
        self.edit_targets = {
            "leaf": [k for k in with_users if k[0] > 2 and k[1] > 1],
            "calendar": [k for k in with_users if k[0] <= 2 and k[1] > 1],
            "hub": [k for k in with_users if k in hub_keys],
        }
        self.check_keys = sorted(vals)
        self.lines = library_lines(["MONTHLEN"]) + [f"sheet {self.SHEET}"]
        for r in range(1, rows + 1):
            for c in range(1, cols + 1):
                k = (c, r)
                text = (repr(consts[k]) if k in consts
                        else "=" + render(cells[k]))
                self.lines.append(f"{ref.a1(k)} = {text}")
        self.deep = Workbook()
        cli.read_into(self.deep, ["sheet Deep"] + [
            f"A{i} = =A{i + 1}+1" for i in range(1, p["deep_chain"])] + [
            f"A{p['deep_chain']} = 1"])

    def _formula(self, kind, c, r, hub_keys):
        rng = self.rng
        cols = self.p["cols"]

        def near():
            choice = rng.random()
            if choice < 0.4:
                k = (c - 1, r)
            elif choice < 0.8:
                k = (c, r - 1)
            elif choice < 0.9:
                k = (c - 1, r - 1)
            else:
                k = (rng.randint(1, cols), rng.randint(max(1, r - 5), r - 1))
            if k[0] == cols and k[1] > 1:
                k = rng.choice(hub_keys)     # never read a RAND cell
            return ("r", k)

        def k_(lo=0.25, hi=4):
            return ("n", quarter(rng, lo, hi))

        if kind == "arith":
            form = rng.randint(0, 2)
            if form == 0:
                return ("+", ("+", ("*", near(), ("n", 0.5)),
                              ("*", near(), ("n", 0.25))), k_())
            if form == 1:
                return ("*", ("-", near(), near()), ("n", 0.5))
            return ("+", ("*", near(), ("n", 0.5)),
                    ("r", rng.choice(hub_keys)))
        if kind == "sum":
            c2 = min(c, cols - 1)
            c1 = max(1, c2 - rng.randint(0, 2))
            r1 = max(1, r - rng.randint(1, 3))
            return ("*", ("sum", c1, r1, c2, r - 1), ("n", 0.1))
        if kind == "if":
            a, b = near(), near()
            return ("if", (">", a, b), ("*", a, ("n", 0.5)),
                    ("+", ("*", b, ("n", 0.5)), k_()))
        if kind == "choose":
            return ("choose", ("+", ("n", 1.0), (">", near(), k_(0, 8))),
                    (("*", near(), ("n", 0.5)), ("*", near(), ("n", 0.25))))
        if kind == "monthlen":
            r2 = rng.randint(max(2, r - 20), r)
            return ("fn", "MONTHLEN", (("r", (1, r2)), ("r", (2, r2))))
        raise ValueError(kind)

    def start(self, wb):
        super().start(wb)
        self.vals = dict(self.vals0)
        self.rand_vals: dict = {}
        self._draw()                     # the set-up's recalculation

    def _draw(self):
        for k in self.rand_keys:
            self.rand_vals[k] = self.rand.next_double()

    def _expected(self, k):
        return self.rand_vals[k] if k in self.rand_vals else self.vals[k]

    def _sample_check(self, n):
        keys = self.rng.sample(self.check_keys, n) + self.rng.sample(
            self.rand_keys, 2)
        wb = self.wb

        def check(_):
            return all(is_number(wb.get_value(addr(self.SHEET, k)),
                                 self._expected(k)) for k in keys)
        return check

    def _set_const(self, k, value):
        """Change a constant in the model and recompute what reads it."""
        self.vals[k] = value
        affected = set()
        stack = [k]
        while stack:
            for u in self.users.get(stack.pop(), ()):
                if u not in affected:
                    affected.add(u)
                    stack.append(u)
        get = self.vals.__getitem__
        for key in self.order:
            if key in affected:
                self.vals[key] = evaluate(self.cells[key], get)

    def recalc_op(self):
        self._draw()
        return Op("recalc", self.wb.recalculate,
                  self._sample_check(self.p["check_cells"]))

    def edit_op(self):
        rng = self.rng
        cls = rng.choices(list(self.p["edit_mix"]),
                          list(self.p["edit_mix"].values()))[0]
        k = rng.choice(self.edit_targets[cls])
        if cls == "calendar":
            value = float(rng.randint(1900, 2099) if k[0] == 1
                          else rng.randint(1, 12))
        else:
            value = quarter(rng, 0.25, 4 if cls == "hub" else 8)
        self._set_const(k, value)
        self._draw()
        reader = rng.choice(self.users[k])
        wb, at, dep, text = self.wb, addr(self.SHEET, k), \
            addr(self.SHEET, reader), repr(value)

        def act():
            wb.set_cell(at, text)
            wb.recalculate()
            return wb.get_value(dep)
        return Op("edit", act, value_check(self.vals[reader]))

    def deep_op(self):
        """Recalculate a forward chain far deeper than the main sheet's.

        Today this raises RecursionError at the default recursion limit
        and counts as a failed op; the chain depth is part of the
        workload, not a knob to turn until the op passes."""
        deep, depth = self.deep, float(self.p["deep_chain"])

        def act():
            deep.recalculate()
            return deep.get_value(CellAddr("Deep", 1, 1))
        return Op("deep_chain", act, value_check(depth))

    def round(self):
        for _ in range(self.p["recalcs_per_round"]):
            yield self.recalc_op()
            for _ in range(self.p["edits_per_round"]):
                yield self.edit_op()
        yield self.deep_op()

    def extra(self, i):
        rng, p, wb = self.rng, self.p, self.wb
        for j in range(p["extra_calls"]):
            y, m = rng.randint(1900, 2099), rng.randint(1, 12)
            yield self.call_op("MONTHLEN", [float(y), float(m)],
                               ref.monthlen(y, m), via_eval=j % 5 == 0)
        for j in range(p["extra_defines"]):
            # Alternate between the two spellings of MONTHLEN's body.
            cell, text = REDEFINE["MONTHLEN"] if j % 2 == 0 else \
                LIBRARY["MONTHLEN"][3]
            at = CellAddr("LibMONTHLEN", 2, int(cell[1:]))
            self._draw()

            def act(at=at, text=text):
                wb.set_cell(at, text)
                wb.recalculate()
            yield Op("define", act, self._sample_check(p["check_cells"]))
            # The first SPECIALIZE after a redefinition costs about twice
            # the others; a fixed share of such ops keeps the tail inside
            # that group instead of on its border.
            for _ in range(p["specializes_per_define"]):
                yield from self.specialize_ops(
                    "MONTHLEN", *self.library_pattern(
                        "MONTHLEN", hot=rng.random() < p["hot_share"]))


# --- calls ------------------------------------------------------------------

class CallsWorkload(Workload):
    """The function library called on generated arguments."""

    SHEET = "Data"

    def __init__(self, params, seed):
        super().__init__(params, seed)
        rng = self.rng
        self.lines = library_lines(LIBRARY) + [f"sheet {self.SHEET}"]
        self.data = {}
        for i in range(1, params["data_rows"] + 1):
            x = quarter(rng, 0, 64)
            self.data[i] = x
            self.lines += [f"A{i} = {x!r}", f"B{i} = =ADD3(A{i}, 1.5, 2.25)"]
        self.mix = list(params["mix"].items())

    def start(self, wb):
        super().start(wb)
        self.closure = FunctionValue(self.fn_ids["ADD3"], "ADD3",
                                     [HOLE, Number(10.0), HOLE])

    def call_args(self, name):
        """Generated arguments and the expected result of one call."""
        rng = self.rng
        if name == "ADD3":
            a = [round(rng.uniform(-50, 50), 3) for _ in range(3)]
            return a, ref.add3(*a)
        if name == "MONTHLEN":
            y, m = rng.randint(1900, 2099), rng.randint(1, 12)
            return [float(y), float(m)], ref.monthlen(y, m)
        if name == "FACD":
            n = rng.randint(0, 25)
            return [float(n)], ref.facd(n)
        if name == "LOOP":
            # A few long loops of one depth are the slowest calls of the
            # mix, well above the few-millisecond stalls of a shared
            # machine, so call_tail_us is set by them, not by the stalls.
            n = self.p["loop_n"]
            return [float(n)], ref.loop(n)
        if name == "REPT4":
            s, n = rng.choice(["ab", "xyz", "q"]), rng.randint(0, 40)
            return [s, float(n)], ref.rept(s, n)
        if name in ("ACKA", "ACKB"):
            m = rng.choices([0, 1, 2, 3], [2, 3, 4, 1])[0]
            n = rng.randint(0, 1 if m == 3 else 8)
            return [float(m), float(n)], ref.ackermann(m, n)
        if name == "EXPSAMPLE":
            p = quarter(rng, 0.25, 0.75)
            return [p, 1.0], lambda: ref.expsample(self.rand, p, 1.0)
        raise ValueError(name)

    def call(self):
        rng = self.rng
        name = rng.choices([m[0] for m in self.mix],
                           [m[1] for m in self.mix])[0]
        via_eval = rng.random() < self.p["eval_share"]
        if name == "APPLY":
            a, c = (round(rng.uniform(-50, 50), 3) for _ in range(2))
            expected = ref.add3(a, 10.0, c)
            if via_eval:
                text = f'=APPLY(CLOSURE("ADD3",#NA,10,#NA),{a!r},{c!r})'
                return Op("call", lambda: self.wb.eval_formula(text),
                          value_check(expected), name)
            argv, fv = [Number(a), Number(c)], self.closure
            return Op("call", lambda: self.table.apply(fv, argv, self.wb),
                      value_check(expected), name)
        args, expected = self.call_args(name)
        return self.call_op(name, args, expected, via_eval)

    def round(self):
        for _ in range(self.p["ops_per_round"]):
            yield self.call()

    def _data_check(self, rows):
        wb = self.wb

        def check(_):
            return all(is_number(
                wb.get_value(CellAddr(self.SHEET, 2, i)),
                ref.add3(self.data[i], 1.5, 2.25)) for i in rows)
        return check

    def extra(self, i):
        rng, p, wb = self.rng, self.p, self.wb
        rows = range(1, p["data_rows"] + 1)
        yield Op("recalc", wb.recalculate,
                 self._data_check(rng.sample(rows, 10)))
        for _ in range(p["extra_edits"]):
            r = rng.choice(rows)
            x = self.data[r] = quarter(rng, 0, 64)
            at, dep, text = (CellAddr(self.SHEET, 1, r),
                             CellAddr(self.SHEET, 2, r), repr(x))

            def act(at=at, dep=dep, text=text):
                wb.set_cell(at, text)
                wb.recalculate()
                return wb.get_value(dep)
            yield Op("edit", act, value_check(ref.add3(x, 1.5, 2.25)))
        cell, text = REDEFINE["ADD3"] if i % 2 == 0 else LIBRARY["ADD3"][3]
        at = CellAddr("LibADD3", 2, int(cell[1:]))

        def act():
            wb.set_cell(at, text)
            wb.recalculate()
        yield Op("define", act, self._data_check(rng.sample(rows, 10)))
        names, weights = zip(*p["library_mix"].items())
        for _ in range(p["extra_specializes"]):
            name = rng.choices(names, weights)[0]
            yield from self.specialize_ops(name, *self.library_pattern(
                name, hot=rng.random() < p["hot_share"]))


# --- specialize -------------------------------------------------------------

class GenFunction:
    """A generated function sheet: inputs A1:A3, body B1:Bn, output C1.

    Bodies mix averaging arithmetic, IF, CHOOSE and ADD3 calls, so every
    value stays finite and no operation yields an error.  Cells read at
    most once get inlined by DEFINE; ``max_inline`` bounds how deep such
    single-use cells nest, by letting the output read the cell that
    would nest deeper."""

    INPUTS = [(1, 1), (1, 2), (1, 3)]

    def __init__(self, name: str, size: int, rng, max_inline: int,
                 mix: dict):
        self.name = name
        self.sheet = "Fun" + name
        cells: dict = {}
        uses: dict = {}
        self.tunable = []
        for i in range(1, size + 1):
            key = (2, i)
            pool = [(2, j) for j in range(max(1, i - 30), i)]
            once = [k for k in pool if uses.get(k) == 1]

            def pick():
                # Reading a cell that has one reader so far keeps the share
                # of single-use (inlined) cells moderate.
                if once and rng.random() < 0.5:
                    k = once.pop(rng.randrange(len(once)))
                elif not pool or rng.random() < 0.15:
                    k = rng.choice(self.INPUTS)
                else:
                    k = rng.choice(pool)
                uses[k] = uses.get(k, 0) + 1
                return ("r", k)
            form = rng.choices(list(mix), list(mix.values()))[0]
            a, b, c = pick(), pick(), pick()
            k = ("n", quarter(rng, 0.25, 4))
            if form == "avg":
                e = ("+", ("+", ("+", ("*", a, ("n", 0.5)),
                                 ("*", b, ("n", 0.25))),
                           ("*", c, ("n", 0.125))), k)
                self.tunable.append(key)
            elif form == "diff":
                e = ("+", ("*", ("-", a, b), ("n", 0.25)),
                     ("*", c, ("n", 0.5)))
            elif form == "if":
                e = ("if", (">", a, b), ("*", a, ("n", 0.5)),
                     ("+", ("*", c, ("n", 0.5)), k))
            elif form == "choose":
                e = ("choose", ("+", ("n", 1.0), (">", a, k)),
                     (("*", b, ("n", 0.5)), ("*", c, ("n", 0.25))))
            else:
                e = ("*", ("fn", "ADD3", (a, b, c)), ("n", 0.25))
            cells[key] = e
        # Bound inlining depth; the output reads every cell left unread.
        extra = []
        depth: dict = {}
        for key in sorted(cells, key=lambda k: k[1]):
            d = 0
            for r in ref.refs(cells[key]):
                if r[0] == 2 and uses.get(r) == 1:
                    if depth[r] >= max_inline:
                        uses[r] = 2
                        extra.append(r)
                    else:
                        d = max(d, depth[r])
            depth[key] = d + 1
        last = (2, size)
        leaves = [("r", k) for k in
                  sorted(set(extra) | {k for k in cells
                                       if k not in uses and k != last})]
        leaves.append(("r", last))
        while len(leaves) > 1:
            leaves = [("*", ("+", leaves[j], leaves[j + 1]), ("n", 0.5))
                      if j + 1 < len(leaves) else leaves[j]
                      for j in range(0, len(leaves), 2)]
        self.out = leaves[0]
        self.cells = cells
        self.order = sorted(cells, key=lambda k: k[1])

    def lines(self) -> list[str]:
        out = [f"function sheet {self.sheet}", "A1 = 0", "A2 = 0", "A3 = 0"]
        out += [f"{ref.a1(k)} = ={render(e)}" for k, e in self.cells.items()]
        out += [f"C1 = ={render(self.out)}",
                f'C2 = =DEFINE("{self.name}", C1, A1, A2, A3)']
        return out

    def __call__(self, x, y, z) -> float:
        vals = {(1, 1): x, (1, 2): y, (1, 3): z}
        get = vals.__getitem__
        for k in self.order:
            vals[k] = evaluate(self.cells[k], get)
        return evaluate(self.out, get)


class SpecializeWorkload(Workload):
    """Generated function sheets, redefined in cycles, and SPECIALIZE."""

    SHEET = "Data"

    def __init__(self, params, seed):
        super().__init__(params, seed)
        p, rng = params, self.rng
        self.gens = [GenFunction(f"GEN{i + 1}", size, rng, p["max_inline"],
                                 p["body_mix"])
                     for i, size in enumerate(p["gen_sizes"])]
        self.lines = library_lines(LIBRARY)
        for g in self.gens:
            self.lines += g.lines()
        self.lines.append(f"sheet {self.SHEET}")
        self.cycle = 0
        self.data = {}
        for i in range(1, p["data_rows"] + 1):
            g = self.gens[(i - 1) % len(self.gens)]
            self.data[i] = [g, quarter(rng, 0, 8), 2.5, 1.25]
            self.lines += [f"A{i} = {self.data[i][1]!r}",
                           f"B{i} = ={g.name}(A{i}, 2.5, 1.25)"]

    def gen_pattern(self, g):
        rng = self.rng
        x, y = quarter(rng, 0, 8), quarter(rng, 0, 8)
        form = rng.randint(0, 2)
        captured = [[x, None, None], [None, y, None], [x, y, None]][form]

        def residual(r):
            full = [c if c is not None else quarter(r, 0, 8)
                    for c in captured]
            dyn = [v for v, c in zip(full, captured) if c is None]
            return dyn, g(*full)
        return captured, residual

    def _data_check(self):
        wb = self.wb
        rows = self.rng.sample(sorted(self.data), 4)

        def check(_):
            return all(is_number(wb.get_value(CellAddr(self.SHEET, 2, i)),
                                 self.data[i][0](*self.data[i][1:]))
                       for i in rows)
        return check

    def define_op(self):
        """Redefine a generated function with one constant changed.  The
        recalculation re-runs every DEFINE and so empties the specializer
        cache."""
        rng, wb = self.rng, self.wb
        g = rng.choice(self.gens)
        key = rng.choice(g.tunable)
        g.cells[key] = g.cells[key][:2] + (("n", quarter(rng, 0.25, 4)),)
        at, text = addr(g.sheet, key), "=" + render(g.cells[key])

        def act():
            wb.set_cell(at, text)
            wb.recalculate()
        return Op("define", act, self._data_check())

    def extra(self, i):
        """A full recalculation and an edit between cycles."""
        rng, wb = self.rng, self.wb
        yield Op("recalc", wb.recalculate, self._data_check())
        r = rng.choice(sorted(self.data))
        row = self.data[r]
        row[1] = quarter(rng, 0, 8)
        at, dep, text = (CellAddr(self.SHEET, 1, r),
                         CellAddr(self.SHEET, 2, r), repr(row[1]))

        def act():
            wb.set_cell(at, text)
            wb.recalculate()
            return wb.get_value(dep)
        yield Op("edit", act, value_check(row[0](*row[1:])))

    def round(self):
        p, rng = self.p, self.rng
        cycle = self.cycle
        self.cycle += 1
        yield self.define_op()
        for _ in range(p["library_calls"]):
            y, m = rng.randint(1900, 2099), rng.randint(1, 12)
            yield self.call_op("MONTHLEN", [float(y), float(m)],
                               ref.monthlen(y, m), via_eval=False)
        for _ in range(p["gen_calls"]):
            g = rng.choices(self.gens, p["call_weights"])[0]
            args = [quarter(rng, 0, 8) for _ in range(3)]
            yield self.call_op(g.name, args, g(*args), via_eval=False)
        # Every cycle starts with an empty specializer cache.  ACKA(2,#NA)
        # generalizes and FACD(-1) trips the residual budget and rolls
        # back; then new library patterns (misses) mix with repeats of this
        # cycle's library patterns (hits).
        yield from self.specialize_ops(
            "ACKA", *self.library_pattern("ACKA", hot=True))
        yield from self.specialize_ops("FACD", [-1], None)
        # A generated function, largest first, every gen_every cycles.  It
        # costs 10-100 times a library SPECIALIZE; drawn at random, the few
        # per run would decide specialize_tail_ms by which sizes came up.
        if cycle % p["gen_every"] == 0:
            g = self.gens[-1 - cycle // p["gen_every"] % len(self.gens)]
            yield from self.specialize_ops(g.name, *self.gen_pattern(g))
        names, weights = zip(*p["library_mix"].items())
        mix = [k for k, n in p["specialize_mix"].items() for _ in range(n)]
        rng.shuffle(mix)
        done = []
        for kind in mix:
            if kind == "hit" and done:
                yield from self.specialize_ops(*rng.choice(done))
            else:
                name = rng.choices(names, weights)[0]
                done.append((name, *self.library_pattern(name, hot=False)))
                yield from self.specialize_ops(*done[-1])


WORKLOADS = {"sheet": SheetWorkload, "calls": CallsWorkload,
             "specialize": SpecializeWorkload}
