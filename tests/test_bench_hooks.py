"""The bench tracer still sees every layer it patches.

``bench/tracer.py`` measures the engine by replacing module attributes
and methods at run time.  A refactor that calls one of those boundaries
some other way (a direct import instead of the module attribute, say)
would silently zero its per-layer metric; this test drives a small
workbook through every patched boundary and checks each one counted.
"""

import os
import sys

import pytest

from sheetfun import CellAddr, Number, Workbook, cli

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "bench")

# One count per patched attribute, plus the boxing hook.
BOUNDARIES = [
    "formula.parse", "cli.read_into", "engine.set_cell",
    "engine.recalculate", "engine.eval_formula", "engine.get_value",
    "sdf.define", "sdf.build_body", "codegen.compile", "peval.specialize",
    "sdf.call", "sdf.apply", "codegen.run", "values.make_number",
]

BOOK = """\
sheet S
A1 = 5
A2 = =A1*2
function sheet F
B1 = 0
B2 = 0
B3 = =B1+B2
B4 = =DEFINE("ADD", B3, B1, B2)
"""


@pytest.fixture
def tracer_module():
    sys.path.insert(0, BENCH)
    try:
        import tracer
        yield tracer
    finally:
        sys.path.remove(BENCH)
        sys.modules.pop("tracer", None)


def test_every_patched_boundary_counts_and_is_restored(tracer_module):
    t = tracer_module.Tracer()
    t.install()
    patched = list(t._patched)
    try:
        wb = Workbook()
        cli.read_into(wb, BOOK.splitlines())
        wb.recalculate()
        assert wb.eval_formula("=ADD(2, 3)", "S") == Number(5.0)
        assert wb.eval_formula('=APPLY(CLOSURE("ADD", 1, #NA), 4)',
                               "S") == Number(5.0)
        fv = wb.eval_formula('=SPECIALIZE(CLOSURE("ADD", #NA, 10))', "S")
        assert wb.function_table.apply(fv, [Number(1.0)], wb) \
            == Number(11.0)
        wb.set_cell(CellAddr("S", 1, 1), "7")
        wb.recalculate()
        assert wb.get_value(CellAddr("S", 1, 2)) == Number(14.0)
    finally:
        t.uninstall()
    assert len(patched) == len(BOUNDARIES) - 1
    zero = [name for name in BOUNDARIES if t.counts[name] <= 0]
    assert not zero, f"tracer boundaries that counted nothing: {zero}"
    moved = [f"{getattr(owner, '__name__', owner)}.{attr}"
             for owner, attr, old in patched
             if getattr(owner, attr) is not old]
    assert not moved, f"not restored after uninstall: {moved}"
