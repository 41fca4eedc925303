"""Digest of every IR listing the bench workloads compile.

    PYTHONPATH=src python3 tests/listing_digest.py [sheet calls specialize]

Runs each workload at seed 1 through ``bench/run.py``'s ``Result``: the
set-up, ``start``, then three rounds each followed by its ``extra``
slice, skipping the ``deep_chain`` ops.  For each workload it prints the
first 16 hex digits of a sha256 over every listing that
``codegen.compile_function`` returns, in compilation order, the number
of compilations, and the first 16 hex digits of the op digest (every
op's kind, check and shown output).  A change that must not move code
generation keeps all three equal.  pytest does not collect this file.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

from sheetfun import codegen  # noqa: E402
from run import Result  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROUNDS = 3


def digest(name: str, seed: int = 1) -> tuple[str, int, str]:
    with open(os.path.join(ROOT, "bench", "spec.json"), encoding="utf-8") as f:
        params = json.load(f)["workloads"][name]
    listings = hashlib.sha256()
    count = 0
    compile_function = codegen.compile_function

    def recording(*args, **kw):
        nonlocal count
        compiled = compile_function(*args, **kw)
        listings.update(compiled.listing.encode())
        count += 1
        return compiled

    codegen.compile_function = recording
    try:
        wl = WORKLOADS[name](params, seed)
        wl.start(wl.setup())
        res = Result()
        for i in range(ROUNDS):
            res.run(op for op in wl.round() if op.kind != "deep_chain")
            res.run(wl.extra(i))
    finally:
        codegen.compile_function = compile_function
    return listings.hexdigest()[:16], count, res.digest.hexdigest()[:16]


def main(argv: list[str]) -> int:
    for name in argv or ["sheet", "calls", "specialize"]:
        listing, count, ops = digest(name)
        print(f"{name}: listings {listing}/{count} ops {ops}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
