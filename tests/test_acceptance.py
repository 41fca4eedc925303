"""Acceptance criteria, one test per criterion.

Each test prints a single ``[criterion N] PASS/FAIL`` line with its stated
tolerance; run with ``-rA`` (or ``-s``) to see the lines for passing tests.
"""

import inspect
import math
import random
import struct
import sys
import time

from sheetfun import Number, Text, Workbook
from sheetfun.cli import benchmark
from sheetfun.values import (
    ERROR_CYCLE, ERROR_DIV0, ERROR_NA, ERROR_NAME, ERROR_NUM, ERROR_REF,
    ERROR_VALUE, ErrorValue, FunctionValue, HOLE, error_nan,
    from_double_or_nan, set_box_hook,
)

from conftest import (
    ACKA_CELLS, ACKB_CELLS, ADD3_CELLS, EXPSAMPLE_CELLS, FACD_CELLS,
    LOOP_CELLS, MONTHLEN_CELLS, REPT4_CELLS, call, fill, make_wb, wrap,
)

SEVEN = [ERROR_NA, ERROR_DIV0, ERROR_VALUE, ERROR_NUM, ERROR_NAME,
         ERROR_REF, ERROR_CYCLE]


def report(n: int, ok: bool, desc: str) -> None:
    print(f"[criterion {n}] {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, f"criterion {n}: {desc}"


def bits(x: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", x))[0]


def spec(w, formula):
    fv = w.eval_formula(formula, "S")
    assert type(fv) is FunctionValue, fv
    return fv


def apply(w, fv, *xs):
    return w.function_table.apply(fv, [wrap(x) for x in xs], w)


def out_ir(w, fv):
    return w.function_table.get(fv.target).compiled.out_ir


def listing(w, fv):
    return w.function_table.get(fv.target).compiled.listing


def names_added(w, before):
    return [i.name for i in w.function_table.items() if i.id not in before]


def ids_before(w):
    return {i.id for i in w.function_table.items()}


def test_criterion_1_golden_residual_ir():
    t0 = time.perf_counter()
    ok = True

    # March has a fixed length: the whole body folds away.
    w = make_wb(MONTHLEN_CELLS)
    march = spec(w, '=SPECIALIZE(CLOSURE("MONTHLEN", #NA, 3))')
    ok &= out_ir(w, march) == ["const 31", "box", "return"]

    # A fixed leap year folds the leap test; only the month dispatch stays.
    year = spec(w, '=SPECIALIZE(CLOSURE("MONTHLEN", 2012, #NA))')
    text = listing(w, year)
    ok &= "const 29" in text
    ok &= "MOD" not in text and "cmp" not in text

    # Staged specialization: fixing one argument at a time ends in a constant.
    w2 = make_wb(ADD3_CELLS)
    s1 = spec(w2, '=SPECIALIZE(CLOSURE("ADD3", 11, #NA, #NA))')
    table = w2.function_table
    s2 = w2.specializer.specialize(
        table.make_closure(s1, [Number(22.0), ERROR_NA]))
    s3 = w2.specializer.specialize(table.make_closure(s2, [Number(33.0)]))
    ok &= s2.name.startswith(s1.name + "(22,#NA)#")
    ok &= s3.name.startswith(s2.name + "(33)#")
    ok &= apply(w2, s1, 22, 33) == Number(66.0)
    ok &= apply(w2, s2, 33) == Number(66.0)
    ok &= apply(w2, s3) == Number(66.0)
    ok &= out_ir(w2, s3) == ["const 66", "box", "return"]

    dt = time.perf_counter() - t0
    ok &= dt < 1.0
    report(1, ok, "residual IR is fully folded (month=3 -> const 31; "
                  f"year=2012 leap folded; staged ADD3 -> const 66) "
                  f"in {dt:.2f}s (< 1s)")


def test_criterion_2_polyvariant_specialization_count():
    ok = True

    w = make_wb(REPT4_CELLS)
    before = ids_before(w)
    seven = spec(w, '=SPECIALIZE(CLOSURE("REPT4", #NA, 7))')
    added = names_added(w, before)
    ok &= len(added) == 4
    for pat in ("(#NA,7)#", "(#NA,3)#", "(#NA,1)#", "(#NA,0)#"):
        ok &= any(n.startswith("REPT4" + pat) for n in added)
    ok &= apply(w, seven, "ab") == Text("ab" * 7)

    w0 = make_wb(REPT4_CELLS)
    before0 = ids_before(w0)
    zero = spec(w0, '=SPECIALIZE(CLOSURE("REPT4", #NA, 0))')
    ok &= len(names_added(w0, before0)) == 1
    ok &= apply(w0, zero, "ab") == Text("")
    ok &= "fn#" not in listing(w0, zero)    # pruned call left no residue

    report(2, ok, "count=7 specializes exactly the 4 reachable counts "
                  "(7,3,1,0); count=0 creates exactly 1 residual and never "
                  "touches the pruned recursive call")


def test_criterion_3_ackermann_residual_structure():
    ok = True

    wa = make_wb(ACKA_CELLS)
    orig_a = wa.function_table.lookup_name("ACKA")
    before = ids_before(wa)
    fa = spec(wa, '=SPECIALIZE(CLOSURE("ACKA", 2, #NA))')
    ok &= len(names_added(wa, before)) == 1
    text = listing(wa, fa)
    ok &= f"fn#{fa.target}" in text         # generalized self-recursion
    ok &= f"fn#{orig_a}" in text            # falls back to the original
    for n in range(6):
        want = Number(float(2 * n + 3))
        ok &= apply(wa, fa, n) == want == call(wa, "ACKA", 2, n)

    wb_ = make_wb(ACKB_CELLS)
    before_b = ids_before(wb_)
    fb = spec(wb_, '=SPECIALIZE(CLOSURE("ACKB", 2, #NA))')
    added = names_added(wb_, before_b)
    ok &= len(added) == 3
    infos = {i.name: i for i in wb_.function_table.items()}
    r2 = infos.get(fb.name)
    r1 = next((i for n, i in infos.items()
               if n.startswith("ACKB(1,#NA)#")), None)
    r0 = next((i for n, i in infos.items()
               if n.startswith("ACKB(0,#NA)#")), None)
    ok &= None not in (r2, r1, r0)
    if ok:
        ok &= f"fn#{r1.id}" in r2.compiled.listing
        ok &= f"fn#{r0.id}" in r1.compiled.listing
        ok &= "fn#" not in r0.compiled.listing
    for n in range(6):
        want = Number(float(2 * n + 3))
        ok &= apply(wb_, fb, n) == want == call(wb_, "ACKB", 2, n)

    report(3, ok, "nested-call Ackermann generalizes to 1 self-recursive "
                  "residual; argument-position variant unfolds to the "
                  "3-stage chain m=2 -> 1 -> 0; both equal 2n+3")


SAFE_CONSTS = ["2", "3", "5", "7", "(-2.5)", "(-3)", "0.5", "11", "2.25"]
SAFE_STATICS = [2.0, 3.0, 5.0, -2.5, 7.0, 0.5, -3.25, 13.0]
VECTOR_POOL = [0.5, 2.0, -2.5, 3.25, 17.0, -9.5, 0.125, 100.0, -0.75, 6.5]


def _leaf(rng, refs):
    if rng.random() < 0.55:
        return rng.choice(refs)
    return rng.choice(SAFE_CONSTS)


def _gen(rng, depth, dyn_refs, refs, must_dyn):
    """Random numeric formula text.  ``must_dyn`` forces the subtree to
    stay dynamic under every specialization pattern, which keeps the
    zero/one rewrite rules of the specializer out of play (their operand
    would otherwise need a static value of exactly 0 or 1; constants and
    pattern values are drawn from sets that exclude both)."""
    if depth == 0:
        return rng.choice(dyn_refs) if must_dyn else _leaf(rng, refs)
    pick = rng.random()
    if pick < 0.40:
        op = rng.choice(["+", "-", "*", "/", "^"])
        d = _gen(rng, depth - 1, dyn_refs, refs, True)
        # The other operand is a leaf or always-dynamic, never a tree
        # that could fold to a constant: folds can land on exactly 0 or
        # 1 (say B2-B3 or a comparison), waking the rewrite rules.
        if rng.random() < 0.3:
            o = _gen(rng, depth - 1, dyn_refs, refs, True)
        else:
            o = _leaf(rng, refs)
        l, r = (d, o) if rng.random() < 0.5 else (o, d)
        return f"({l}{op}{r})"
    if pick < 0.52:
        op = rng.choice(["<", "<=", "=", "<>", ">", ">="])
        a = _gen(rng, depth - 1, dyn_refs, refs, must_dyn)
        b = _gen(rng, depth - 1, dyn_refs, refs, False)
        return f"({a}{op}{b})"
    if pick < 0.66:
        c = _gen(rng, depth - 1, dyn_refs, refs, must_dyn)
        a = _gen(rng, depth - 1, dyn_refs, refs, False)
        b = _gen(rng, depth - 1, dyn_refs, refs, False)
        return f"IF({c},{a},{b})"
    if pick < 0.74:
        i = _gen(rng, depth - 1, dyn_refs, refs, must_dyn)
        branches = ",".join(_gen(rng, depth - 1, dyn_refs, refs, False)
                            for _ in range(rng.randint(2, 4)))
        return f"CHOOSE({i},{branches})"
    if pick < 0.82:
        name = rng.choice(["AND", "OR"])
        a = _gen(rng, depth - 1, dyn_refs, refs, must_dyn)
        b = _gen(rng, depth - 1, dyn_refs, refs, False)
        return f"{name}({a},{b})"
    if pick < 0.86:
        return f"NOT({_gen(rng, depth - 1, dyn_refs, refs, must_dyn)})"
    if pick < 0.94:
        name = rng.choice(["MOD", "MIN", "MAX", "QUOTIENT"])
        a = _gen(rng, depth - 1, dyn_refs, refs, must_dyn)
        b = _gen(rng, depth - 1, dyn_refs, refs, False)
        return f"{name}({a},{b})"
    name = rng.choice(["SQRT", "ABS", "EXP", "LN", "TRUNC", "FLOOR"])
    return f"{name}({_gen(rng, depth - 1, dyn_refs, refs, must_dyn)})"


def _same(a, b) -> bool:
    if type(a) is not type(b):
        return False
    if type(a) is Number:
        return bits(a.value) == bits(b.value)
    return a is b


def test_criterion_4_specialized_equals_original_bit_for_bit():
    t0 = time.perf_counter()
    rng = random.Random(987654321)
    checked = 0
    for trial in range(50):
        nin = rng.randint(2, 4)
        inputs = [f"B{i + 1}" for i in range(nin)]
        dyn_refs = [inputs[0]]       # first input stays dynamic throughout
        refs = list(inputs)
        body = {}
        for row in (5, 6, 7, 8):
            cell = f"B{row}"
            body[cell] = "=" + _gen(rng, rng.randint(2, 3), dyn_refs, refs,
                                    True)
            dyn_refs.append(cell)
            refs.append(cell)
        w = make_wb(dict(body, B9='=DEFINE("EQ", B8, %s)' % ", ".join(inputs)))
        target = w.function_table.lookup_name("EQ")

        for _ in range(10):
            captured = [HOLE]
            for _i in range(1, nin):
                captured.append(HOLE if rng.random() < 0.5
                                else Number(rng.choice(SAFE_STATICS)))
            if not any(type(c) is Number for c in captured):
                captured[-1] = Number(rng.choice(SAFE_STATICS))
            res = w.specializer.specialize(
                FunctionValue(target, "EQ", list(captured)))
            assert type(res) is FunctionValue, res
            dyn_pos = [i for i, c in enumerate(captured) if c is HOLE]

            for _v in range(200):
                dyn_vals = [Number(rng.choice(VECTOR_POOL))
                            for _ in dyn_pos]
                full = list(captured)
                for p, v in zip(dyn_pos, dyn_vals):
                    full[p] = v
                a = w.function_table.call(target, full, w)
                b = w.function_table.apply(res, dyn_vals, w)
                assert _same(a, b), (trial, body, captured, dyn_vals, a, b)
                checked += 1
    dt = time.perf_counter() - t0
    ok = checked == 50 * 10 * 200 and dt < 60.0
    report(4, ok, f"{checked} original-vs-specialized calls agree bit for "
                  f"bit (50 functions x 10 patterns x 200 vectors) in "
                  f"{dt:.1f}s (< 60s)")


def test_criterion_5_randomness_is_preserved():
    n = 20000
    p = 0.15
    wa = make_wb(EXPSAMPLE_CELLS, seed=42)
    wb_ = make_wb(EXPSAMPLE_CELLS, seed=42)
    orig = wa.function_table.lookup_name("EXPSAMPLE")
    res = spec(wb_, '=SPECIALIZE(CLOSURE("EXPSAMPLE", 0.15, 1))')
    args = [Number(p), Number(1.0)]
    seq_a = [wa.function_table.call(orig, args, wa).value for _ in range(n)]
    seq_b = [wb_.function_table.apply(res, [], wb_).value for _ in range(n)]
    identical = all(bits(a) == bits(b) for a, b in zip(seq_a, seq_b))
    mean = sum(seq_b) / n
    expected = 1.0 / p
    rel = abs(mean - expected) / expected
    ok = identical and rel <= 0.05
    report(5, ok, f"same seed, same {n} samples bit for bit through the "
                  f"residual; mean {mean:.3f} within 5% of {expected:.3f} "
                  f"(off by {100 * rel:.2f}%)")


def test_criterion_6_divergent_specialization_backs_off():
    w = make_wb(FACD_CELLS)
    original = w.function_table.lookup_name("FACD")
    count = len(w.function_table.items())
    t0 = time.perf_counter()
    fv = spec(w, '=SPECIALIZE(CLOSURE("FACD", -1))')
    dt = time.perf_counter() - t0
    ok = dt < 5.0
    # The input closure comes back untouched: same function, the -1
    # still captured, and nothing new in the table.
    ok &= fv.target == original
    ok &= list(fv.captured) == [Number(-1.0)]
    ok &= len(w.function_table.items()) == count
    ok &= any("budget" in d for d in w.diagnostics)
    for x in range(11):
        want = Number(float(math.factorial(x)))
        ok &= w.function_table.call(fv.target, [wrap(x)], w) == want
        ok &= call(w, "FACD", x) == want
    report(6, ok, f"FACD(-1) hits the residual budget and keeps the "
                  f"original in {dt:.2f}s (< 5s); fallback equals FACD "
                  f"on 0..10")


def bench_min(w, fvs, count, rounds=5, slices=10):
    """Per-closure minimum over ``rounds`` of the mean ns/call on ``count``
    calls.  Each round times every closure in turn, ``slices`` times on
    ``count // slices`` calls, so a drift in machine speed (its phases
    last about as long as one whole measurement) hits all of them alike
    instead of whichever happened to run during it."""
    best = [math.inf] * len(fvs)
    for _ in range(rounds):
        total = [0.0] * len(fvs)
        for _ in range(slices):
            for i, fv in enumerate(fvs):
                total[i] += benchmark(w, fv, count // slices)
        best = [min(b, t / slices) for b, t in zip(best, total)]
    return best


def test_criterion_7_specialization_pays_off():
    w = make_wb(REPT4_CELLS)
    orig0 = w.eval_formula('=CLOSURE("REPT4", "abc", 7)', "S")
    res = spec(w, '=SPECIALIZE(CLOSURE("REPT4", #NA, 7))')
    res0 = w.function_table.make_closure(res, [Text("abc")])
    t_orig, t_spec = bench_min(w, [orig0, res0], 20000)
    ratio = t_orig / t_spec

    # Fixing one ADD3 argument at a time: each stage does less work at
    # run time, so the per-call means must not grow (10% noise allowed).
    w2 = make_wb(ADD3_CELLS)
    table = w2.function_table
    full = w2.eval_formula('=CLOSURE("ADD3", 11, 22, 33)', "S")
    s1 = spec(w2, '=SPECIALIZE(CLOSURE("ADD3", 11, #NA, #NA))')
    s2 = w2.specializer.specialize(
        table.make_closure(s1, [Number(22.0), ERROR_NA]))
    s3 = w2.specializer.specialize(table.make_closure(s2, [Number(33.0)]))
    b0, b1, b2, b3 = bench_min(w2, [
        full,
        table.make_closure(s1, [Number(22.0), Number(33.0)]),
        table.make_closure(s2, [Number(33.0)]),
        s3,
    ], 50000)
    stages_ok = (b1 <= 1.10 * b0 and b2 <= 1.10 * b1 and b3 <= 1.10 * b2)

    ok = ratio >= 1.2 and stages_ok
    report(7, ok, f"REPT4(.,7) residual on 'abc' is {ratio:.2f}x the "
                  f"original (>= 1.2x); staged ADD3 means never grow by "
                  f"more than 10% ({b0:.0f} -> {b1:.0f} -> {b2:.0f} -> "
                  f"{b3:.0f} ns/call)")


def test_criterion_8_compiled_code_properties():
    ok = True

    # One boxing per call of a straight-line numeric body.
    w = make_wb(ADD3_CELLS)
    target = w.function_table.lookup_name("ADD3")
    args = [Number(1.0), Number(2.0), Number(3.0)]
    boxes = []
    set_box_hook(lambda d: boxes.append(d))
    try:
        v = w.function_table.call(target, args, w)
    finally:
        set_box_hook(None)
    ok &= v == Number(6.0) and len(boxes) == 1

    # A million tail-recursive calls in constant Python stack.
    w2 = make_wb(LOOP_CELLS)
    depth = len(inspect.stack())
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 60)
    try:
        got = call(w2, "LOOP", 10 ** 6)
    finally:
        sys.setrecursionlimit(old)
    ok &= got == Number(0.0)

    # Branching code passes every error straight through.
    w3 = make_wb({
        "B1": "0",
        "B2": "=IF(B1>0, B1+1, B1*2)",
        "B3": '=DEFINE("PROP", B2, B1)',
    })
    for e in SEVEN:
        ok &= call(w3, "PROP", e) is e
    ok &= call(w3, "PROP", 3) == Number(4.0)

    report(8, ok, "straight-line numeric call boxes once; LOOP(10^6) runs "
                  "at a recursion limit just above the test's own depth; "
                  "compiled IF propagates all 7 error codes")


def test_criterion_9_error_payloads_round_trip():
    t0 = time.perf_counter()
    ok = True

    for i in range(3):
        ErrorValue.intern(f"#ERR:roundtrip{i}")
    for e in ErrorValue.registered():
        d = error_nan(e)
        ok &= from_double_or_nan(d) is e
        flipped = struct.unpack(
            "<d", struct.pack("<Q", bits(d) | (1 << 63)))[0]
        ok &= from_double_or_nan(flipped) is e

    rng = random.Random(13)
    for _ in range(10 ** 5):
        mant = rng.getrandbits(52)
        if (mant >> 48) & 0xF == 0b1101:
            mant ^= 1 << 51             # leave the error tag space
        if mant == 0:
            mant = 1
        raw = (rng.getrandbits(1) << 63) | (0x7FF << 52) | mant
        d = struct.unpack("<d", struct.pack("<Q", raw))[0]
        if from_double_or_nan(d) is not ERROR_NUM:
            ok = False
            break

    dt = time.perf_counter() - t0
    ok &= dt < 5.0
    report(9, ok, f"every registered error survives the NaN round trip "
                  f"(either sign); 10^5 random untagged NaNs all decode to "
                  f"#NUM! in {dt:.1f}s (< 5s)")
