"""Command line front end: workbook files, batch evaluation, a REPL.

Workbook file format, one statement per line:

    # comment
    sheet Data
    A1 = 3.5
    B1 = =A1*2
    function sheet Defs
    B1 = 0
    B2 = =IF(B1=0,1,B1*FAC(B1-1))
    B3 = =DEFINE("FAC", B2, B1)

``sheet NAME`` starts an ordinary sheet, ``function sheet NAME`` a
function sheet; ``ADDR = content`` stores cell source text (formulas
begin with ``=``, so a formula line reads ``B1 = =A1*2``).  Loading ends
with one recalculation, which runs the DEFINE cells.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time

from .engine import Workbook
from .formula import (
    A1_RE, CellAddr, FormulaError, letters_to_col, render_formula,
)
from .values import FunctionValue, Value, display, literal

__all__ = ["benchmark", "load_workbook", "save_workbook", "main"]


def benchmark(rt, fv: FunctionValue, count: int) -> float:
    """Mean wall time per call, in nanoseconds, for a zero-argument closure."""
    table = rt.function_table
    for _ in range(min(1000, count)):
        table.apply(fv, [], rt)
    t0 = time.perf_counter_ns()
    for _ in range(count):
        table.apply(fv, [], rt)
    return (time.perf_counter_ns() - t0) / count


# --- workbook files ----------------------------------------------------------

# A workbook file line that sets a cell: its address, "=", the content.
_CELL_LINE_RE = re.compile(A1_RE.pattern + r"\s*=(.*)", re.DOTALL)


def _parse_addr(text: str) -> tuple[int, int]:
    m = A1_RE.fullmatch(text)
    if m is None:
        raise ValueError(f"bad cell address {text!r}")
    return letters_to_col(m[1]), int(m[2])


def load_workbook(path: str, **wb_options) -> Workbook:
    wb = Workbook(**wb_options)
    with open(path, encoding="utf-8") as f:
        read_into(wb, f, source=path)
    wb.recalculate()
    return wb


def read_into(wb: Workbook, lines, source: str = "<input>") -> None:
    """Store the sheets and cells of workbook file lines in ``wb``.  A
    malformed line, or a formula that does not parse, raises ValueError
    naming ``source``, the line number and, for a formula, the cell."""
    sheet = None
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line[0] == "#":
            continue
        m = _CELL_LINE_RE.match(line)
        if m is None or sheet is None:
            where = f"{source}:{lineno}"
            low = line.lower()
            if low.startswith("function sheet "):
                sheet = wb.add_sheet(line[15:].strip(), kind="function")
                continue
            if low.startswith("sheet "):
                sheet = wb.add_sheet(line[6:].strip())
                continue
            addr_text, eq, _ = line.partition("=")
            if not eq:
                raise ValueError(f"{where}: expected 'ADDR = content'")
            if sheet is None:
                raise ValueError(f"{where}: cell before any sheet header")
            raise ValueError(
                f"{where}: bad cell address {addr_text.strip()!r}")
        letters, digits, content = m.groups()
        addr = CellAddr(sheet.name, letters_to_col(letters), int(digits))
        try:
            wb.set_cell(addr, content)      # set_cell strips the content
        except FormulaError as ex:
            raise ValueError(
                f"{source}:{lineno}: {addr.local().text()}: {ex}") from None


def save_workbook(wb: Workbook, path: str) -> None:
    """Write ``wb`` as a workbook file; a cell holding a line break raises
    ValueError, naming the cell, before the file is opened."""
    out = []
    for sheet in wb.sheets.values():
        head = "function sheet" if sheet.kind == "function" else "sheet"
        out.append(f"{head} {sheet.name}")
        for addr in sheet.sorted_addrs():
            content = sheet.cell(addr).content
            if isinstance(content, Value):
                text = literal(content)
            else:
                text = render_formula(content)
            if "\n" in text or "\r" in text:
                raise ValueError(f"{addr.text()}: a line break cannot be "
                                 "saved in a workbook file")
            out.append(f"{addr.local().text()} = {text}")
        out.append("")
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(out))


# --- REPL --------------------------------------------------------------------

_HELP = """\
commands:
  =FORMULA            evaluate in the current sheet
  eval ADDR           print a cell value (Sheet!A1 or A1 in the current sheet)
  set ADDR CONTENT    store cell source text and recalculate
  call NAME ARGS...   call a defined function on literal arguments
  specialize EXPR     specialize the closure EXPR evaluates to
  dump-ir NAME        print the compiled listing of a function (alias: ir)
  bench EXPR [COUNT]  time a 0-argument closure (default 10000 calls)
  list-functions      list defined and specialized functions (alias: funcs)
  sheet NAME [function]   switch to (or create) a sheet
  diag                show and clear diagnostics
  save PATH           write the workbook file
  recalc              force recalculation
  help                this text
  quit                leave
"""


def _evaluate(wb: Workbook, formula: str, current: str | None,
              show: bool = True) -> Value | None:
    """Evaluate a formula on the current sheet and print its value (unless
    ``show`` is false); a parse error is reported and gives None."""
    try:
        v = wb.eval_formula(formula, current)
    except FormulaError as ex:
        print(f"parse error: {ex}", file=sys.stderr)
        return None
    if show:
        print(display(v))
    return v


def repl(wb: Workbook, current: str | None = None) -> None:
    if current is None:
        current = next(iter(wb.sheets), None)
    while True:
        try:
            line = input(f"{current or '-'}> ").strip()
        except EOFError:
            print()
            return
        if not line:
            continue
        if line.startswith("="):
            _evaluate(wb, line, current)
            continue
        cmd, _, rest = line.partition(" ")
        rest = rest.strip()
        if cmd == "quit" or cmd == "exit":
            return
        if cmd == "help":
            print(_HELP, end="")
        elif cmd == "sheet":
            name, _, kind = rest.partition(" ")
            if name in wb.sheets:
                current = name
            elif name:
                wb.add_sheet(name, kind="function" if kind.strip() == "function"
                             else "ordinary")
                current = name
            else:
                print("usage: sheet NAME [function]", file=sys.stderr)
        elif cmd == "eval":
            if not rest:
                print("usage: eval ADDR", file=sys.stderr)
                continue
            _evaluate(wb, "=" + rest, current)
        elif cmd == "set":
            addr_text, _, content = rest.partition(" ")
            sheet, bang, local = addr_text.rpartition("!")
            if not bang:
                sheet = current
            if sheet is None or sheet not in wb.sheets:
                print(f"no sheet {sheet!r}", file=sys.stderr)
                continue
            try:
                col, row = _parse_addr(local)
                wb.set_cell(CellAddr(sheet, col, row), content)
                wb.recalculate()
            except (ValueError, FormulaError) as ex:
                print(f"error: {ex}", file=sys.stderr)
        elif cmd == "call":
            name, _, argtext = rest.partition(" ")
            if not name:
                print("usage: call NAME ARGS...", file=sys.stderr)
                continue
            args = ",".join(argtext.split())
            _evaluate(wb, f"={name}({args})", current)
        elif cmd == "specialize":
            if not rest:
                print("usage: specialize EXPR", file=sys.stderr)
                continue
            _evaluate(wb, f"=SPECIALIZE({rest})", current)
        elif cmd in ("funcs", "list-functions"):
            for info in wb.function_table.items():
                print(f"#{info.id} {info.name}/{len(info.inputs)} "
                      f"({info.origin})")
        elif cmd in ("ir", "dump-ir"):
            if len(rest) >= 2 and rest[0] == '"' and rest[-1] == '"':
                rest = rest[1:-1]
            target = wb.function_table.lookup_name(rest)
            info = wb.function_table.get(target) if target else None
            if info is None or info.compiled is None:
                print(f"unknown function {rest!r}", file=sys.stderr)
            else:
                print(info.compiled.listing, end="")
        elif cmd == "bench":
            head, _, tail = rest.rpartition(" ")
            if head and tail.isdigit():
                expr, count = head, int(tail)
            else:
                expr, count = rest, 10000
            if count < 1:
                print("bench needs a positive call count", file=sys.stderr)
                continue
            v = _evaluate(wb, expr if expr.startswith("=") else "=" + expr,
                          current, show=False)
            if v is None:
                continue
            if type(v) is not FunctionValue or v.arity != 0:
                print("bench needs a 0-argument closure", file=sys.stderr)
                continue
            ns = benchmark(wb, v, count)
            print(f"{ns:.0f} ns/call")
        elif cmd == "diag":
            for m in wb.diagnostics:
                print(m)
            wb.diagnostics.clear()
        elif cmd == "save":
            if rest:
                try:
                    save_workbook(wb, rest)
                except (OSError, ValueError) as ex:
                    print(f"error: {ex}", file=sys.stderr)
            else:
                print("usage: save PATH", file=sys.stderr)
        elif cmd == "recalc":
            wb.recalculate()
        else:
            print(f"unknown command {cmd!r}; try help", file=sys.stderr)


# --- entry point -------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(
        prog="sheetfun",
        description="Headless spreadsheet engine with compiled "
                    "sheet-defined functions")
    p.add_argument("file", nargs="?", help="workbook file to load")
    p.add_argument("--eval", action="append", metavar="ADDR",
                   help="evaluate a cell address (or =formula) and print "
                        "the result (repeatable)")
    p.add_argument("--seed", type=int, default=0,
                   help="PRNG seed for RAND (default 0)")
    p.add_argument("--spec-limit", type=int, default=100,
                   help="max residuals of any one function within one "
                        "SPECIALIZE (default 100)")
    p.add_argument("--trace-spec", action="store_true",
                   help="log specializer events to stderr, one JSON "
                        "object per line")
    p.add_argument("--repl", action="store_true",
                   help="accepted for clarity; the REPL runs whenever no "
                        "--eval is given")
    args = p.parse_args(argv)

    options = dict(seed=args.seed, spec_limit=args.spec_limit)
    try:
        if args.file:
            wb = load_workbook(args.file, **options)
        else:
            wb = Workbook(**options)
            wb.add_sheet("Sheet1")
    except (OSError, ValueError, FormulaError) as ex:
        print(f"sheetfun: {ex}", file=sys.stderr)
        return 2
    if args.trace_spec:
        wb.specializer.trace = lambda ev: print(json.dumps(ev),
                                                file=sys.stderr)

    if args.eval:
        status = 0
        for text in args.eval:
            try:
                v = wb.eval_formula(text if text.startswith("=")
                                    else "=" + text)
            except FormulaError as ex:
                print(f"sheetfun: {ex}", file=sys.stderr)
                status = 2
                continue
            print(display(v))
        return status

    # Without --eval the REPL runs, reading piped input as commands too.
    repl(wb)
    return 0


if __name__ == "__main__":
    sys.exit(main())
