"""The lines of ``src/sheetfun`` that no tier-1 test runs, and an allowlist.

    PYTHONPATH=src python tests/line_coverage.py [pytest args]

Runs the tier-1 tests under a ``sys.settrace`` line tracer that records
only frames whose file is in ``src/sheetfun/``.  The executable lines of
a module are the lines ``co_lines()`` gives for every code object the
module compiles to.  A line is unrun when it is executable and no trace
event reached it.  Arguments replace the default ``tests/``, so a subset
of the suite reports every line it leaves unrun.

``ALLOWED`` names each line that may stay unrun, keyed by file, enclosing
function (``co_qualname``) and the line's stripped text, so an edit
elsewhere in the file does not move a key; two equal lines in one
function are two entries.  Every entry gives the reason no tier-1 test
runs the line.  The script prints the source size and the unrun count,
and exits 1 when the unrun lines differ from the allowlist in either
direction, or when a test fails.  Line tables differ between Python
versions, so the allowlist holds for CPython 3.11.  pytest does not
collect this file.

CPython drops a trace function that raises, and a RecursionError raised
in a frame at the stack limit is raised inside it.  So a pytest hook
installs the tracer again before each test's set-up, call and teardown;
what runs after such an error within the same phase stays unseen.
"""

from __future__ import annotations

import collections
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "sheetfun")

_TOO_DEEP = ("runs only after a RecursionError, which CPython raises inside "
             "the trace function and so drops it; test_engine.py's deep-chain "
             "tests reach it")
_REPR = "a debugging aid; no test prints the object"
_UNKNOWN = "an object of no known type; every type has a case above"
_INVARIANT = "an invariant check that no input breaks"

# (file, enclosing function, stripped line, reason no tier-1 test runs it)
ALLOWED: list[tuple[str, str, str, str]] = [
    ("cli.py", "<module>", "sys.exit(main())",
     "runs only as python -m sheetfun.cli; runpy would import the module "
     "a second time, which warns"),
    ("codegen.py", "_Slot.__init__.<locals>.unevaluated",
     'raise RuntimeError(f"{fn_name}: read of unevaluated slot {index}")',
     _INVARIANT + ": the evaluation conditions order an eager cell before "
     "every read of its slot that runs"),
    ("codegen.py", "_Unset.__repr__", 'return "UNSET"', _REPR),
    ("codegen.py", "compile_to_value",
     'raise TypeError(f"cannot compile {e!r}")', _UNKNOWN),
    *[("engine.py", "Workbook._evaluate_outermost", line, _TOO_DEEP)
      for line in (
          "self.rng.state = state",
          "self._invalidate(attempt)",
          "deeper = ex.args[0]",
          "if deeper is cell:      # too deep with the stack free",
          "raise RecursionError(",
          '"formula nested too deeply") from None',
          "self._inflight.add(cell)",
          "todo.append((cell, addr))",
          "cell, addr = deeper, None",
          "continue",
          "cell, addr = todo.pop()",
          "self._inflight.discard(waiting)",
      )],
    ("engine.py", "Workbook._refresh", "raise _TooDeep(cell) from None",
     _TOO_DEEP),
    ("engine.py", "eval_expr", 'raise TypeError(f"cannot evaluate {e!r}")',
     _UNKNOWN),
    ("formula.py", "_render", 'raise TypeError(f"cannot render {e!r}")',
     _UNKNOWN),
    *[("peval.py", "Specializer._pe", line,
       _INVARIANT + ": env holds every input and every cell not pruned, "
       "and a pruned cell is read by no live path")
      for line in ("raise AssertionError(",
                   'f"reference to unavailable cell {e.addr.text()}")')],
    *[("peval.py", "Specializer._pe_body.<locals>.load", line,
       _INVARIANT + ": build_body loads only cells the residual output "
       "reaches, and each of those has a residual expression")
      for line in ("raise AssertionError(",
                   'f"residual of {info.name} references dropped cell")')],
    *[("sdf.py", "ComputeCell.__repr__", line, _REPR) for line in (
        'flags = " lazy" if self.lazy else ""',
        'guard = "" if self.eval_cond is None else " guarded"',
        'return f"<ComputeCell {self.addr.local().text()}{guard}{flags}>"')],
    ("sdf.py", "SdfInfo.__repr__",
     'return f"<SdfInfo #{self.id} {self.name}/{len(self.inputs)}>"', _REPR),
    ("values.py", "Text.__repr__", 'return f"Text({self.value!r})"', _REPR),
    ("values.py", "ErrorValue.__repr__",
     'return f"ErrorValue({self.name})"', _REPR),
    ("values.py", "ArrayValue.__repr__",
     'return f"ArrayValue({self.rows!r})"', _REPR),
    ("values.py", "_Hole.__repr__", 'return "HOLE"', _REPR),
    ("values.py", "FunctionValue.__repr__",
     'return f"FunctionValue({display(self)})"', _REPR),
    ("values.py", "ErrorValue.intern",
     'raise OverflowError("error registry exhausted")',
     "needs 2**32 distinct error names in one process"),
    ("values.py", "display", 'raise TypeError(f"not a value: {v!r}")',
     _UNKNOWN),
    ("values.py", "value_key", 'return ("o", id(v))',
     _UNKNOWN + "; every caller passes a value or HOLE"),
]


def executable_lines(path: str) -> dict[int, str]:
    """Line number -> qualified name of the innermost code object that
    has an instruction on it."""
    with open(path, encoding="utf-8") as f:
        code = compile(f.read(), path, "exec")
    owner: dict[int, str] = {}
    stack = [code]
    while stack:
        co = stack.pop()
        name = getattr(co, "co_qualname", co.co_name)
        for _, _, line in co.co_lines():
            if line is not None and line > 0:
                owner[line] = name
        stack.extend(c for c in co.co_consts if isinstance(c, type(code)))
    return owner


class Tracer:
    """Records, per file of ``SRC``, the line of every trace event there."""

    def __init__(self) -> None:
        self.hits: dict[str, set[int]] = collections.defaultdict(set)
        self._local: dict[object, object] = {}  # code -> local tracer or None

    def _local_for(self, code):
        path = os.path.realpath(code.co_filename)
        if os.path.dirname(path) != SRC:
            return None
        lines = self.hits[os.path.basename(path)]

        def local(frame, event, arg):
            lines.add(frame.f_lineno)
            return local
        return local

    def __call__(self, frame, event, arg):
        code = frame.f_code
        try:
            local = self._local[code]
        except KeyError:
            local = self._local[code] = self._local_for(code)
        if local is None:
            return None
        return local(frame, event, arg)

    def install(self) -> None:
        sys.settrace(self)

    @pytest.hookimpl(tryfirst=True)
    def pytest_runtest_setup(self, item):
        self.install()

    @pytest.hookimpl(tryfirst=True)
    def pytest_runtest_call(self, item):
        self.install()

    @pytest.hookimpl(tryfirst=True)
    def pytest_runtest_teardown(self, item):
        self.install()


def unrun(hits: dict[str, set[int]]) -> tuple[list, int, int]:
    """The allowlist key and line number of every unrun line, the number
    of source lines and the number of executable lines."""
    found, total, executable = [], 0, 0
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(SRC, name)
        with open(path, encoding="utf-8") as f:
            text = f.read().splitlines()
        owner = executable_lines(path)
        total += len(text)
        executable += len(owner)
        for line in sorted(set(owner) - hits.get(name, set())):
            found.append(((name, owner[line], text[line - 1].strip()), line))
    return found, total, executable


def main(argv: list[str]) -> int:
    tracer = Tracer()
    tracer.install()
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider",
                              *(argv or [os.path.join(ROOT, "tests")])],
                             plugins=[tracer])
    finally:
        sys.settrace(None)
    found, total, executable = unrun(tracer.hits)
    got = collections.Counter(key for key, _ in found)
    allowed = collections.Counter(entry[:3] for entry in ALLOWED)
    print(f"src/ lines: {total}, executable: {executable}")
    print(f"src/ unrun lines: {sum(got.values())} "
          f"(allowlisted: {sum(allowed.values())})")
    bad = [f"  allowlisted without a reason: {name} {func}: {text}"
           for name, func, text, reason in ALLOWED if not reason.strip()]
    for title, diff in (("unrun, not allowlisted", got - allowed),
                        ("allowlisted, but run or gone", allowed - got)):
        for key, n in sorted(diff.items()):
            lines = ",".join(str(ln) for k, ln in found if k == key) or "-"
            name, func, text = key
            bad.append(f"  {title}: {name}:{lines} {func}: {text}"
                       + (f" (x{n})" if n > 1 else ""))
    for line in bad:
        print(line)
    return 1 if status != 0 or bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
