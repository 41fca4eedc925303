"""Front end: workbook files, batch evaluation, benchmarking, the REPL."""

import io
import json

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


def test_save_reload_keeps_every_value_bit_for_bit(tmp_path):
    path = tmp_path / "zero.wbk"
    path.write_text(DEMO + SIGNED_ZERO, encoding="utf-8")
    wb = load_workbook(str(path))
    assert value_key(wb.get_value(a1("Z", "A2"))) == value_key(Number(-0.0))
    saved = tmp_path / "saved.wbk"
    save_workbook(wb, str(saved))
    wb2 = load_workbook(str(saved))
    for sheet in wb.sheets.values():
        for addr in sheet.sorted_addrs():
            want = value_key(wb.get_value(addr))
            assert value_key(wb2.get_value(addr)) == want, addr


def test_read_into_rejects_bad_lines():
    wb = Workbook()
    with pytest.raises(ValueError, match="before any sheet"):
        read_into(wb, io.StringIO("A1 = 2\n"))
    wb2 = Workbook()
    with pytest.raises(ValueError, match="bad cell address"):
        read_into(wb2, io.StringIO("sheet S\n1A = 2\n"))
    wb3 = Workbook()
    with pytest.raises(ValueError, match="expected"):
        read_into(wb3, io.StringIO("sheet S\njunk\n"))


# --- batch evaluation --------------------------------------------------------

def test_main_eval_prints_results(capsys):
    assert main(["--eval", "1+2", "--eval", "=1/0"]) == 0
    out = capsys.readouterr().out
    assert out == "3\n#DIV/0!\n"


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
    run_repl(monkeypatch, [
        "=1+",                  # parse error
        "nonsense",             # unknown command
        "ir NOPE",              # unknown function
        "set A1 5",             # no current sheet yet
        "bench 1+1",            # not a closure
        "bench 1+1 0",          # zero calls
        "eval",                 # missing address
        "call",                 # missing name
        "specialize",           # missing expression
        "quit",
    ])
    err = capsys.readouterr().err
    assert "parse error" in err
    assert "unknown command" in err
    assert "unknown function" in err
    assert "no sheet" in err
    assert "0-argument closure" in err
    assert "positive call count" in err
    assert "usage: eval" in err
    assert "usage: call" in err
    assert "usage: specialize" in err


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
