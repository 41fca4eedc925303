"""Front end: workbook files, batch evaluation, benchmarking, the REPL."""

import io
import json
import math
import runpy
import sys

import pytest

from sheetfun import Number, Text, Workbook
from sheetfun.cli import (
    benchmark, load_workbook, main, read_into, repl, save_workbook,
)
from sheetfun.values import ERROR_NA, ERROR_VALUE, value_key

from conftest import a1, fill

DEMO = """\
# demo workbook
sheet Data
A1 = 3.5
A2 = "hi"
A3 = #NA
B1 = =A1*2

function sheet Defs
B1 = 0
B2 = =IF(B1=0, 1, B1*FAC(B1-1))
B3 = =DEFINE("FAC", B2, B1)
"""


def write_demo(tmp_path):
    path = tmp_path / "demo.wbk"
    path.write_text(DEMO, encoding="utf-8")
    return str(path)


# --- files -------------------------------------------------------------------

def test_load_workbook_values(tmp_path):
    wb = load_workbook(write_demo(tmp_path))
    assert wb.get_value(a1("Data", "B1")) == Number(7.0)
    assert wb.get_value(a1("Data", "A2")) == Text("hi")
    assert wb.get_value(a1("Data", "A3")) is ERROR_NA
    assert wb.eval_formula("=FAC(5)") == Number(120.0)


def test_save_reload_is_a_fixpoint(tmp_path):
    wb = load_workbook(write_demo(tmp_path))
    p1 = tmp_path / "one.wbk"
    p2 = tmp_path / "two.wbk"
    save_workbook(wb, str(p1))
    wb2 = load_workbook(str(p1))
    save_workbook(wb2, str(p2))
    assert p1.read_text() == p2.read_text()
    assert wb2.get_value(a1("Data", "B1")) == Number(7.0)
    assert wb2.eval_formula("=FAC(6)") == Number(720.0)


SIGNED_ZERO = """\
sheet Z
A1 = -0
A2 = =-0
A3 = =A1*1
A4 = =2^-0
A5 = ={-0,1}
A6 = =-A1*(-0)
A7 = =A4&"-0"
"""

# Infinities, and constants that are numbers only if they are the formula
# lexer's number token after an optional sign.
EDGE_NUMBERS = """\
sheet N
A1 = =1E400
A2 = =-1E400
A3 = ={1E400,-1E400}
A4 = =2^-1E400
B1 = nan
B2 = inf
B3 = Infinity
B4 = 1_000
B5 = -0
B6 = +2.5
B7 = .5
B8 = 1e+20
"""


def test_save_reload_keeps_every_value_bit_for_bit(tmp_path):
    path = tmp_path / "zero.wbk"
    path.write_text(DEMO + SIGNED_ZERO + EDGE_NUMBERS, encoding="utf-8")
    wb = load_workbook(str(path))
    assert value_key(wb.get_value(a1("Z", "A2"))) == value_key(Number(-0.0))
    assert wb.get_value(a1("N", "A2")) == Number(-math.inf)
    for cell, text in zip(("B1", "B2", "B3", "B4"),
                          ("nan", "inf", "Infinity", "1_000")):
        assert wb.get_value(a1("N", cell)) == Text(text)
    for cell, d in zip(("B5", "B6", "B7", "B8"), (-0.0, 2.5, 0.5, 1e20)):
        assert value_key(wb.get_value(a1("N", cell))) == value_key(Number(d))
    saved = tmp_path / "saved.wbk"
    save_workbook(wb, str(saved))
    wb2 = load_workbook(str(saved))
    for sheet in wb.sheets.values():
        for addr in sheet.sorted_addrs():
            want = value_key(wb.get_value(addr))
            assert value_key(wb2.get_value(addr)) == want, addr


@pytest.mark.parametrize("content", ["a\nb", '="x\r"&A1'])
def test_save_refuses_a_line_break_before_opening_the_file(
        monkeypatch, capsys, tmp_path, content):
    wb = Workbook()
    wb.add_sheet("Data")
    wb.set_cell(a1("Data", "B3"), content)
    path = tmp_path / "book.wbk"
    with pytest.raises(ValueError, match=r"^Data!B3: a line break"):
        save_workbook(wb, str(path))
    assert not path.exists()
    run_repl(monkeypatch, [f"save {path}", "quit"], wb=wb)
    assert "error: Data!B3: a line break" in capsys.readouterr().err
    assert not path.exists()


def test_read_into_rejects_bad_lines():
    wb = Workbook()
    with pytest.raises(ValueError, match="before any sheet"):
        read_into(wb, io.StringIO("A1 = 2\n"))
    wb2 = Workbook()
    with pytest.raises(ValueError, match="bad cell address"):
        read_into(wb2, io.StringIO("sheet S\n1A = 2\n"))
    # Column letters are A to Z; another letter is no column.
    with pytest.raises(ValueError, match=r"<input>:2: bad cell address 'É1'"):
        read_into(wb2, io.StringIO("sheet T\nÉ1 = 2\n"))
    wb3 = Workbook()
    with pytest.raises(ValueError, match="expected"):
        read_into(wb3, io.StringIO("sheet S\njunk\n"))
    # A column has one to three letters, as in a formula.
    for addr in ("ABCD1", "ZZZZZZZZZZZZZZ1"):
        with pytest.raises(ValueError,
                           match=f"<input>:2: bad cell address '{addr}'"):
            read_into(Workbook(), io.StringIO(f"sheet S\n{addr} = 5\n"))
    with pytest.raises(ValueError, match="sheet S already exists"):
        read_into(Workbook(), io.StringIO("sheet S\nsheet S\n"))


def test_a_formula_that_does_not_parse_names_its_file_line_and_cell(
        tmp_path, capsys):
    with pytest.raises(ValueError) as info:
        read_into(Workbook(), io.StringIO("sheet S\nA1 = 1\n\nb2 = =1+\n"),
                  source="book.wbk")
    assert str(info.value) == "book.wbk:4: B2: unexpected 'end' (at 3)"
    path = tmp_path / "bad.wbk"
    path.write_text("sheet S\nA1 = =1+\n", encoding="utf-8")
    assert main([str(path)]) == 2
    assert capsys.readouterr().err == \
        f"sheetfun: {path}:2: A1: unexpected 'end' (at 3)\n"


# --- batch evaluation --------------------------------------------------------

def test_main_eval_prints_results(capsys):
    assert main(["--eval", "1+2", "--eval", "=1/0"]) == 0
    out = capsys.readouterr().out
    assert out == "3\n#DIV/0!\n"


def test_python_m_sheetfun_runs_main(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["sheetfun", "--eval", "6*7"])
    with pytest.raises(SystemExit) as info:
        runpy.run_module("sheetfun", run_name="__main__")
    assert info.value.code == 0
    assert capsys.readouterr().out == "42\n"


def test_main_eval_with_workbook(tmp_path, capsys):
    rc = main([write_demo(tmp_path), "--eval", "FAC(5)"])
    assert rc == 0
    assert capsys.readouterr().out == "120\n"


def test_main_parse_error_sets_status(capsys):
    assert main(["--eval", "1+"]) == 2
    err = capsys.readouterr().err
    assert "sheetfun:" in err


def test_main_missing_file(capsys):
    assert main(["/no/such/file.wbk"]) == 2
    assert "sheetfun:" in capsys.readouterr().err


def test_main_seed_reproducible(capsys):
    main(["--eval", "RAND()", "--seed", "9"])
    first = capsys.readouterr().out
    main(["--eval", "RAND()", "--seed", "9"])
    assert capsys.readouterr().out == first
    main(["--eval", "RAND()", "--seed", "10"])
    assert capsys.readouterr().out != first


def test_main_trace_spec(tmp_path, capsys):
    path = tmp_path / "m.wbk"
    path.write_text(
        "function sheet Defs\n"
        "B1 = 0\n"
        "B2 = 0\n"
        "B3 = =OR(AND(MOD(B1,4)=0, MOD(B1,100)<>0), MOD(B1,400)=0)\n"
        "B4 = =CHOOSE(B2, 31, 28+B3, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)\n"
        'B5 = =DEFINE("MONTHLEN", B4, B1, B2)\n',
        encoding="utf-8")
    rc = main([str(path), "--trace-spec", "--eval",
               'APPLY(SPECIALIZE(CLOSURE("MONTHLEN", 2012, #NA)), 2)'])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.out == "29\n"
    events = [json.loads(ln) for ln in captured.err.splitlines() if ln]
    assert events
    assert all(set(ev) == {"event", "function", "pattern", "action"}
               for ev in events)
    assert any(ev["event"] == "specialize" and ev["function"] == "MONTHLEN"
               and ev["pattern"] == "(2012,#NA)" for ev in events)


# --- benchmarking ------------------------------------------------------------

def test_benchmark_returns_mean_nanoseconds(tmp_path):
    wb = load_workbook(write_demo(tmp_path))
    fv = wb.eval_formula('=CLOSURE("FAC", 5)')
    ns = benchmark(wb, fv, 200)
    assert isinstance(ns, float) and ns > 0


def test_benchmark_builtin_validation(tmp_path):
    wb = load_workbook(write_demo(tmp_path))
    assert wb.eval_formula("=BENCHMARK(5, 10)") is ERROR_VALUE
    assert wb.eval_formula('=BENCHMARK(CLOSURE("FAC", #NA), 10)') \
        is ERROR_VALUE
    assert wb.eval_formula('=BENCHMARK(CLOSURE("FAC", 5), 0)') is ERROR_VALUE
    v = wb.eval_formula('=BENCHMARK(CLOSURE("FAC", 5), 5)')
    assert type(v) is Number and v.value > 0


# --- REPL --------------------------------------------------------------------

def run_repl(monkeypatch, lines, wb=None):
    it = iter(lines)

    def fake_input(prompt=""):
        try:
            return next(it)
        except StopIteration:
            raise EOFError from None

    monkeypatch.setattr("builtins.input", fake_input)
    if wb is None:
        wb = Workbook()
    repl(wb)
    return wb


def test_repl_session(monkeypatch, capsys, tmp_path):
    save_path = tmp_path / "out.wbk"
    wb = run_repl(monkeypatch, [
        "sheet Data",
        "set A1 21",
        "=A1*2",
        "sheet Defs function",
        "set B1 0",
        "set B2 =B1+1",
        'set B3 =DEFINE("BUMP", B2, B1)',
        "=BUMP(41)",
        "funcs",
        "ir BUMP",
        'bench CLOSURE("BUMP", 1)',
        "help",
        "diag",
        "recalc",
        f"save {save_path}",
        "quit",
    ])
    out = capsys.readouterr().out
    assert "42" in out
    assert "#1 BUMP/1 (define)" in out
    assert "func BUMP id=1 params=1" in out
    assert "ns/call" in out
    assert "commands:" in out
    assert save_path.exists()
    wb2 = load_workbook(str(save_path))
    assert wb2.eval_formula("=BUMP(1)", "Defs") == Number(2.0)
    assert wb.get_value(a1("Data", "A1")) == Number(21.0)


def test_repl_spec_commands(monkeypatch, capsys):
    wb = run_repl(monkeypatch, [
        "sheet Defs function",
        "set B1 0",
        "set B2 =B1+1",
        'set B3 =DEFINE("BUMP", B2, B1)',
        "sheet Data",
        "set A1 5",
        "eval A1",
        "eval Defs!B2",
        "call BUMP 41",
        'specialize CLOSURE("BUMP", 4)',
        "list-functions",
        'dump-ir "BUMP(4)#2"',
        'bench CLOSURE("BUMP", 1) 500',
        "quit",
    ], wb=Workbook())
    out = capsys.readouterr().out
    assert "5\n" in out                  # eval A1
    assert "1\n" in out                  # eval Defs!B2 (0+1)
    assert "42" in out                   # call BUMP 41
    assert "BUMP(4)#2" in out            # specialize result and listing
    assert "(specialized)" in out        # list-functions shows the residual
    assert "const 5" in out              # dump-ir of the folded residual
    assert "ns/call" in out
    assert wb.eval_formula("=BUMP(1)", "Defs") == Number(2.0)


def test_repl_error_paths(monkeypatch, capsys):
    wb = run_repl(monkeypatch, [
        "=1+",                  # parse error
        "nonsense",             # unknown command
        "ir NOPE",              # unknown function
        "set A1 5",             # no current sheet yet
        "bench 1+1",            # not a closure
        "bench 1+1 0",          # zero calls
        "bench =1+",            # parse error
        "eval",                 # missing address
        "call",                 # missing name
        "specialize",           # missing expression
        "sheet",                # missing name
        "save",                 # missing path
        "",
        "sheet S",
        "sheet T",
        "sheet S",              # back to a sheet that exists
        "set ABCD1 5",          # four column letters
        "set A1 =1+",           # a formula that does not parse
        'set A2 =DEFINE("X", A3)',  # a diagnostic: not a function sheet
        "set A3 7",
        "diag",
    ])                          # ends at end of input, not at quit
    out, err = capsys.readouterr()
    assert wb.get_value(a1("S", "A3")) == Number(7.0)
    assert "function sheet" in out
    assert not wb.diagnostics
    assert out.endswith("\n\n")
    assert "usage: sheet" in err
    assert "usage: save" in err
    assert "error: bad cell address 'ABCD1'" in err
    assert "error: unexpected 'end' (at 3)" in err
    assert "parse error" in err
    assert "unknown command" in err
    assert "unknown function" in err
    assert "no sheet" in err
    assert "0-argument closure" in err
    assert "positive call count" in err
    assert "usage: eval" in err
    assert "usage: call" in err
    assert "usage: specialize" in err
    assert err.count("parse error") == 2


def test_main_piped_repl(monkeypatch, capsys):
    it = iter(["=6*7", "quit"])

    def fake_input(prompt=""):
        try:
            return next(it)
        except StopIteration:
            raise EOFError from None

    monkeypatch.setattr("builtins.input", fake_input)
    assert main([]) == 0
    assert "42" in capsys.readouterr().out
