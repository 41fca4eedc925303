"""Per-layer tracing from outside the engine.

``Tracer.install`` replaces public module attributes and methods with
wrappers and ``uninstall`` puts the originals back; nothing under
``src/`` knows it is being traced.  Low-rate boundaries get a span (name,
start, end, parent span, op id) kept in memory; high-rate boundaries are
timed or only counted.  A layer's self time is its own duration minus
the time of the timed boundaries nested inside it.  While ``paused`` is
set (the harness sets it around its reference checks) nothing is counted.
"""

from __future__ import annotations

import gc
import json
from collections import Counter
from time import perf_counter

from sheetfun import cli, codegen, engine, sdf, values
from sheetfun.engine import Workbook
from sheetfun.sdf import FunctionTable
from sheetfun.codegen import CompiledFunction, TailCall
from sheetfun.peval import Specializer

SPANNED, TIMED = True, False


class Tracer:
    """Counters, self times and spans of one traced pass."""

    def __init__(self):
        self.counts: Counter = Counter()
        self.self_s: Counter = Counter()
        self.spans: list = []
        self.op_id = 0
        self.op_kind = None
        self._stack: list = []     # [start, child time, span id or None]
        self._next_span = 0
        self._patched: list = []
        self._watched: list = []
        self._gc2 = 0
        self._running = 0          # CompiledFunction.run frames on the stack
        self.paused = False

    # -- ops

    def begin_op(self, kind: str) -> None:
        self.op_id += 1
        self.op_kind = kind
        self.counts["op." + kind] += 1

    # -- wrappers

    def _timed(self, name: str, fn, spanned: bool, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            stack = tracer._stack
            span_id = None
            if spanned:
                span_id = tracer._next_span
                tracer._next_span += 1
            frame = [perf_counter(), 0.0, span_id]
            stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - frame[0]
                tracer.counts[name] += 1
                tracer.self_s[name] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if spanned:
                    parent = next((f[2] for f in reversed(stack)
                                   if f[2] is not None), None)
                    tracer.spans.append((span_id, name, frame[0], end,
                                         parent, tracer.op_id))
            if after is not None:
                after(out)
            return out
        return wrapper

    def _patch(self, owner, attr: str, new) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        T = self._timed
        self._patch(engine, "parse_formula",
                    T("formula.parse", engine.parse_formula, TIMED))
        self._patch(cli, "read_into",
                    T("cli.read_into", cli.read_into, SPANNED))
        self._patch(Workbook, "set_cell",
                    T("engine.set_cell", Workbook.set_cell, TIMED))
        self._patch(Workbook, "recalculate",
                    T("engine.recalculate", Workbook.recalculate, SPANNED))
        self._patch(Workbook, "eval_formula",
                    T("engine.eval_formula", Workbook.eval_formula, TIMED))
        self._patch(Workbook, "get_value",
                    self._get_value(Workbook.get_value))
        self._patch(sdf, "define", T("sdf.define", sdf.define, SPANNED))
        self._patch(sdf, "build_body",
                    T("sdf.build_body", sdf.build_body, TIMED,
                      after=self._count_body))
        self._patch(codegen, "compile_function",
                    T("codegen.compile", codegen.compile_function, SPANNED,
                      after=self._count_ir))
        self._patch(Specializer, "specialize",
                    T("peval.specialize", Specializer.specialize, SPANNED))
        self._patch(FunctionTable, "call",
                    self._counted("sdf.call", FunctionTable.call))
        self._patch(FunctionTable, "apply",
                    self._counted("sdf.apply", FunctionTable.apply))
        self._patch(CompiledFunction, "run", self._run(CompiledFunction.run))
        values.set_box_hook(self._box)
        self._gc2 = gc.get_stats()[2]["collections"]

    def watch(self, wb: Workbook) -> None:
        """Observe a workbook's specializer events (its ``trace`` hook)."""
        self._watched.append((wb.specializer, wb.specializer.trace))
        wb.specializer.trace = self._spec_event

    def uninstall(self) -> None:
        self.counts["python.gc_gen2"] = (gc.get_stats()[2]["collections"]
                                         - self._gc2)
        values.set_box_hook(None)
        for spec, old in reversed(self._watched):
            spec.trace = old
        for owner, attr, old in reversed(self._patched):
            setattr(owner, attr, old)
        self._patched.clear()
        self._watched.clear()

    def _counted(self, name: str, fn):
        tracer = self
        counts = self.counts

        def wrapper(*args, **kwargs):
            if not tracer.paused:
                counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _run(self, fn):
        tracer = self
        counts = self.counts

        def run(compiled, argv, rt):
            if tracer.paused:
                return fn(compiled, argv, rt)
            counts["codegen.run"] += 1
            tracer._running += 1
            try:
                out = fn(compiled, argv, rt)
            finally:
                tracer._running -= 1
            if type(out) is TailCall:
                counts["codegen.tailcalls"] += 1
            return out
        return run

    def _get_value(self, fn):
        tracer = self
        counts = self.counts

        def get_value(wb, addr):
            if tracer.paused:
                return fn(wb, addr)
            counts["engine.get_value"] += 1
            sheet = wb.sheets.get(addr.sheet)
            cell = sheet.cells.get((addr.col, addr.row)) if sheet else None
            if cell is not None and not isinstance(cell.content,
                                                   values.Value):
                if cell.cached_gen == wb.generation:
                    counts["engine.memo_hits"] += 1
                else:
                    counts["engine.cells_evaluated"] += 1
                    if tracer.op_kind == "edit":
                        counts["engine.cells_evaluated.edit"] += 1
            return fn(wb, addr)
        return get_value

    def _box(self, d) -> None:
        # Only the boxings of compiled code at run time: not those of the
        # interpreter, nor the constants peval boxes while it specializes.
        if self._running and not self.paused:
            self.counts["values.make_number"] += 1

    def _count_body(self, body) -> None:
        self.counts["sdf.body_cells"] += len(body)

    def _count_ir(self, compiled) -> None:
        self.counts["codegen.ir_lines"] += compiled.listing.count("\n")

    def _spec_event(self, ev: dict) -> None:
        if self.paused:
            return
        kind = ev["event"]
        if kind == "cache-hit":
            self.counts["peval.cache_hits"] += 1
        elif kind == "specialize":
            self.counts["peval.cache_misses"] += 1
        elif kind == "generalize":
            self.counts["peval.generalizations"] += 1
        elif kind == "limit":
            self.counts["peval.rollbacks"] += 1
            # action reads "rolled back N residuals; keeping the original"
            words = ev["action"].split()
            self.counts["peval.rolled_back_residuals"] += int(words[2])

    # -- results

    def metrics(self) -> dict:
        c, s = self.counts, self.self_s

        def ratio(a, b):
            return a / b if b else 0.0
        calls = c["sdf.call"]
        m = {
            "cli.read_into.self_s": s["cli.read_into"],
            "formula.parse.calls": c["formula.parse"],
            "formula.parse.self_s": s["formula.parse"],
            "engine.recalculate.calls": c["engine.recalculate"],
            "engine.recalculate.self_s": s["engine.recalculate"],
            "engine.set_cell.self_s": s["engine.set_cell"],
            "engine.get_value.calls": c["engine.get_value"],
            "engine.cells_evaluated": c["engine.cells_evaluated"],
            "engine.cells_evaluated_per_edit": ratio(
                c["engine.cells_evaluated.edit"], c["op.edit"]),
            "engine.memo_hit_ratio": ratio(
                c["engine.memo_hits"],
                c["engine.memo_hits"] + c["engine.cells_evaluated"]),
            "engine.eval_formula.calls": c["engine.eval_formula"],
            "engine.eval_formula.self_s": s["engine.eval_formula"],
            "python.gc_gen2": c["python.gc_gen2"],
            "sdf.call.calls": calls,
            "sdf.apply.calls": c["sdf.apply"],
            "codegen.run.calls": c["codegen.run"],
            "codegen.tailcalls": c["codegen.tailcalls"],
            "codegen.frames_per_call": ratio(c["codegen.run"], calls),
            "values.make_number.calls": c["values.make_number"],
            "values.boxings_per_call": ratio(c["values.make_number"], calls),
            "sdf.define.calls": c["sdf.define"],
            "sdf.define.self_s": s["sdf.define"],
            "sdf.build_body.calls": c["sdf.build_body"],
            "sdf.build_body.self_s": s["sdf.build_body"],
            "sdf.body_cells": c["sdf.body_cells"],
            "codegen.compile.calls": c["codegen.compile"],
            "codegen.compile.self_s": s["codegen.compile"],
            "codegen.ir_lines": c["codegen.ir_lines"],
            "peval.specialize.calls": c["peval.specialize"],
            "peval.specialize.self_s": s["peval.specialize"],
            "peval.cache_hits": c["peval.cache_hits"],
            "peval.cache_misses": c["peval.cache_misses"],
            "peval.cache_hit_ratio": ratio(
                c["peval.cache_hits"],
                c["peval.cache_hits"] + c["peval.cache_misses"]),
            "peval.generalizations": c["peval.generalizations"],
            "peval.rollbacks": c["peval.rollbacks"],
            "peval.rolled_back_residuals": c["peval.rolled_back_residuals"],
            # Share of residual builds thrown away by budget rollbacks.
            "peval.rollback_waste_ratio": ratio(
                c["peval.rolled_back_residuals"],
                c["peval.rolled_back_residuals"] + c["peval.cache_misses"]),
        }
        return m

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"fields": ["id", "name", "start", "end", "parent",
                                  "op"], "spans": self.spans}, f)
