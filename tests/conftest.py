import pytest

from sheetfun import CellAddr, Number, Text, Value, Workbook
from sheetfun.formula import A1_RE, letters_to_col


def a1(sheet: str, ref: str) -> CellAddr:
    m = A1_RE.fullmatch(ref)
    assert m, ref
    return CellAddr(sheet, letters_to_col(m.group(1)), int(m.group(2)))


def fill(wb: Workbook, sheet: str, cells: dict) -> None:
    for ref, text in cells.items():
        wb.set_cell(a1(sheet, ref), text)


def wrap(x) -> Value:
    if isinstance(x, Value):
        return x
    if isinstance(x, str):
        return Text(x)
    return Number(float(x))


def call(wb: Workbook, name: str, *args) -> Value:
    target = wb.function_table.lookup_name(name)
    assert target is not None, f"no function {name}"
    return wb.function_table.call(target, [wrap(a) for a in args], wb)


def make_wb(cells: dict | None = None, **kw) -> Workbook:
    """Workbook with sheets S (ordinary) and F (function); optionally fill
    F and recalculate, failing on any DEFINE diagnostic."""
    w = Workbook(**kw)
    w.add_sheet("S")
    w.add_sheet("F", kind="function")
    if cells:
        fill(w, "F", cells)
        w.recalculate()
        assert not w.diagnostics, w.diagnostics
    return w


@pytest.fixture
def wb():
    return make_wb()


@pytest.fixture
def define(wb):
    """Fill cells on F, recalculate, and fail the test on DEFINE problems."""
    def _define(cells: dict):
        fill(wb, "F", cells)
        wb.recalculate()
        assert not wb.diagnostics, wb.diagnostics
        return wb
    return _define


# Worksheet definitions reused across the specializer and acceptance tests.

MONTHLEN_CELLS = {
    "B1": "0",      # year
    "B2": "0",      # month
    "B3": "=OR(AND(MOD(B1,4)=0, MOD(B1,100)<>0), MOD(B1,400)=0)",
    "B4": "=CHOOSE(B2, 31, 28+B3, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)",
    "B5": '=DEFINE("MONTHLEN", B4, B1, B2)',
}

REPT4_CELLS = {
    "B66": "0",     # text to repeat
    "B67": "0",     # count
    "B68": "=REPT4(B66, QUOTIENT(B67,2))",
    "B69": '=IF(B67=0, "", IF(MOD(B67,2)=0, B68&B68, B68&B68&B66))',
    "B70": '=DEFINE("REPT4", B69, B66, B67)',
}

ACKA_CELLS = {
    "B1": "0", "B2": "0",
    "B3": "=IF(B1=0, B2+1, IF(B2=0, ACKA(B1-1,1), "
          "ACKA(B1-1, ACKA(B1, B2-1))))",
    "B4": '=DEFINE("ACKA", B3, B1, B2)',
}

ACKB_CELLS = {
    "C1": "0", "C2": "0",
    "C3": "=IF(C1=0, C2+1, ACKB(C1-1, IF(C2=0, 1, ACKB(C1, C2-1))))",
    "C4": '=DEFINE("ACKB", C3, C1, C2)',
}

FACD_CELLS = {
    "B1": "0",
    "B2": "=IF(B1=0, 1, B1*FACD(B1-1))",
    "B3": '=DEFINE("FACD", B2, B1)',
}

LOOP_CELLS = {
    "C1": "0",
    "C2": "=IF(C1<=0, 0, LOOP(C1-1))",
    "C3": '=DEFINE("LOOP", C2, C1)',
}

# Counts Bernoulli trials until the first success; from n=1 the mean is
# 1/p.  Seed p=1 so the sheet itself stops after one draw.
EXPSAMPLE_CELLS = {
    "B1": "1",      # success probability
    "B2": "1",      # trial counter
    "B3": "=IF(RAND()<B1, B2, EXPSAMPLE(B1, B2+1))",
    "B4": '=DEFINE("EXPSAMPLE", B3, B1, B2)',
}

ADD3_CELLS = {
    "B1": "0", "B2": "0", "B3": "0",
    "B4": "=B1+B2+B3",
    "B5": '=DEFINE("ADD3", B4, B1, B2, B3)',
}
