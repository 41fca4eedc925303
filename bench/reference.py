"""Plain-Python reference results for the benchmark's checks.

Nothing here imports the engine.  Every expected value comes from the
generator's own expression model or from a closed form, so a check never
compares the engine against itself.  Arithmetic follows the engine's
IEEE operation order (left to right, one rounding per operator) and SUM
uses ``math.fsum``, so expected numbers are exact, not approximate.
"""

from __future__ import annotations

import calendar
import math
import struct

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """Copy of the engine's RAND generator, replayed from the same seed."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_double(self) -> float:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return ((z ^ (z >> 31)) >> 11) * 2.0 ** -53


def same(a: float, b: float) -> bool:
    """Bit-for-bit equality of two doubles (tells +0.0 from -0.0)."""
    return struct.pack("<d", a) == struct.pack("<d", b)


# --- the library functions --------------------------------------------------

def add3(a: float, b: float, c: float) -> float:
    return a + b + c


def monthlen(y: float, m: float) -> float:
    return float(calendar.monthrange(int(y), int(m))[1])


def facd(n: int) -> float:
    r = 1.0
    for k in range(1, n + 1):
        r = float(k) * r
    return r


def loop(n: float) -> float:
    return 0.0


def ackermann(m: int, n: int) -> float:
    if m == 0:
        return float(n + 1)
    if m == 1:
        return float(n + 2)
    if m == 2:
        return float(2 * n + 3)
    if m == 3:
        return float(2 ** (n + 3) - 3)
    raise ValueError("Ackermann closed form kept to m <= 3")


def rept(s: str, n: int) -> str:
    return s * n


def expsample(rng: SplitMix64, p: float, n: float) -> float:
    """Trials until the first RAND() < p, counting up from ``n``."""
    while not rng.next_double() < p:
        n += 1.0
    return n


# The library functions generated formulas may call.
LIBRARY = {"ADD3": add3, "MONTHLEN": monthlen}


# --- the expression model ---------------------------------------------------
#
# ("n", x)                 number literal
# ("r", key)               reference to the cell key = (col, row)
# (op, a, b)               op in "+", "-", "*", ">"
# ("if", c, a, b)
# ("choose", i, branches)
# ("sum", c1, r1, c2, r2)  SUM over an area of the same sheet
# ("fn", name, args)       call of a library function
# ("rand",)                RAND(), a cell of its own that nothing reads

def col_letters(col: int) -> str:
    s = ""
    while col:
        col, rem = divmod(col - 1, 26)
        s = chr(65 + rem) + s
    return s


def a1(key) -> str:
    return f"{col_letters(key[0])}{key[1]}"


def render(e) -> str:
    """Formula text (without '=') whose parse tree is ``e``."""
    op = e[0]
    if op == "n":
        return repr(e[1])
    if op == "r":
        return a1(e[1])
    if op in ("+", "-", "*", ">"):
        return f"({render(e[1])}{op}{render(e[2])})"
    if op == "if":
        return f"IF({render(e[1])},{render(e[2])},{render(e[3])})"
    if op == "choose":
        return f"CHOOSE({render(e[1])},{','.join(map(render, e[2]))})"
    if op == "sum":
        return f"SUM({a1(e[1:3])}:{a1(e[3:5])})"
    if op == "fn":
        return f"{e[1]}({','.join(map(render, e[2]))})"
    if op == "rand":
        return "RAND()"
    raise ValueError(op)


def refs(e):
    """Every cell key ``e`` reads, areas expanded."""
    op = e[0]
    if op == "r":
        yield e[1]
    elif op == "sum":
        for r in range(e[2], e[4] + 1):
            for c in range(e[1], e[3] + 1):
                yield (c, r)
    elif op in ("+", "-", "*", ">"):
        yield from refs(e[1])
        yield from refs(e[2])
    elif op == "if":
        for sub in e[1:]:
            yield from refs(sub)
    elif op == "choose":
        yield from refs(e[1])
        for b in e[2]:
            yield from refs(b)
    elif op == "fn":
        for a in e[2]:
            yield from refs(a)


def evaluate(e, get) -> float:
    """Value of ``e`` with ``get(key)`` supplying cell values."""
    op = e[0]
    if op == "n":
        return e[1]
    if op == "r":
        return get(e[1])
    if op == "+":
        return evaluate(e[1], get) + evaluate(e[2], get)
    if op == "-":
        return evaluate(e[1], get) - evaluate(e[2], get)
    if op == "*":
        return evaluate(e[1], get) * evaluate(e[2], get)
    if op == ">":
        return 1.0 if evaluate(e[1], get) > evaluate(e[2], get) else 0.0
    if op == "if":
        return evaluate(e[2] if evaluate(e[1], get) != 0.0 else e[3], get)
    if op == "choose":
        return evaluate(e[2][math.trunc(evaluate(e[1], get)) - 1], get)
    if op == "sum":
        return math.fsum(get((c, r)) for r in range(e[2], e[4] + 1)
                         for c in range(e[1], e[3] + 1))
    if op == "fn":
        return LIBRARY[e[1]](*(evaluate(a, get) for a in e[2]))
    raise ValueError(op)


def topo_order(deps: dict) -> list:
    """Keys of ``deps`` (key -> keys it reads) with every key after the
    keys it reads; reads of keys outside ``deps`` are ignored."""
    users: dict = {k: [] for k in deps}
    pending = {}
    for k, ds in deps.items():
        inside = [d for d in ds if d in deps]
        pending[k] = len(inside)
        for d in inside:
            users[d].append(k)
    ready = [k for k, n in pending.items() if n == 0]
    order = []
    while ready:
        k = ready.pop()
        order.append(k)
        for u in users[k]:
            pending[u] -= 1
            if pending[u] == 0:
                ready.append(u)
    if len(order) != len(deps):
        raise ValueError("generated cells form a cycle")
    return order
