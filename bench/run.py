"""The sheetfun benchmark.

    python3 bench/run.py --workload sheet --seed 1 --seconds 30 --trace 0

Run from the repository root; the engine is imported from ``src/``.  With
``--trace 0`` it runs the workload's op stream as a closed loop for about
``--seconds`` and prints every end-to-end metric.  With ``--trace 1`` it
runs a fixed number of rounds twice, untraced and then traced through
``tracer.Tracer``, and prints every per-layer metric, including the
tracing overhead; the spans go to ``bench/out/``.  Every op's output is
checked against ``reference``.  The last line of standard output is the
result object; the line before it carries the run's context (Python
version, commit, nproc, load average, sample counts, tail percentiles).
"""

from __future__ import annotations

import argparse
import array
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
from collections import Counter
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


class Result:
    """Runs ops and keeps their timings, outcomes and a digest of them."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.samples: dict = {}
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.errors: Counter = Counter()
        self.label_s: Counter = Counter()
        self.digest = hashlib.sha256()

    def run(self, ops) -> None:
        from sheetfun import display
        for op in ops:
            if self.tracer is not None:
                self.tracer.begin_op(op.kind)
            self.attempted += 1
            t0 = perf_counter()
            try:
                out = op.act()
            except Exception as ex:    # an op that raises is a failed op
                self.failed += 1
                self.errors[f"{op.kind}: {type(ex).__name__}"] += 1
                self.digest.update(f"{op.kind} raised\n".encode())
                continue
            dt = perf_counter() - t0
            op.out = out
            # The check reads cells too; keep its reads out of the counts.
            if self.tracer is not None:
                self.tracer.paused = True
            try:
                ok = op.check(out)
            finally:
                if self.tracer is not None:
                    self.tracer.paused = False
            shown = display(out) if out is not None else "-"
            self.digest.update(f"{op.kind} {ok} {shown}\n".encode())
            if ok:
                # Compact storage: the benchmark's own memory stays out of
                # peak_rss_mb as far as it can.
                self.samples.setdefault(op.kind, array.array("d")).append(dt)
                if op.label is not None:
                    self.label_s[op.label] += dt
            else:
                self.failed += 1
                self.wrong += 1
                self.errors[f"{op.kind}: wrong result"] += 1


def percentile(sorted_vals: list, p: float) -> float:
    """Nearest-rank percentile."""
    k = max(0, min(len(sorted_vals) - 1,
                   -(-p * len(sorted_vals) // 100) - 1))
    return sorted_vals[int(k)]


def tail(samples) -> tuple[float, float]:
    """(percentile, value): the highest percentile with ten samples beyond
    it, 100*(1-10/N); below 20 samples that would fall under the median,
    so the median is used."""
    p = max(50.0, 100.0 * (1 - 10 / len(samples)))
    return p, percentile(sorted(samples), p)


def commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        name = head[5:]
        path = os.path.join(git, name)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as f:
            for line in f:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def context(name: str, seed: int) -> dict:
    return {"workload": name, "seed": seed,
            "python": platform.python_version(), "commit": commit(),
            "nproc": os.cpu_count(), "loadavg_1m": os.getloadavg()[0]}


def settle() -> None:
    """Collect, then freeze the benchmark's own objects (generated text,
    the reference model) so the collector does not scan them while the
    engine runs; everything the engine allocates later is collected as
    usual."""
    gc.collect()
    gc.freeze()


def timed_setup(wl) -> float:
    """Time one set-up in a forked child and return its seconds.

    The child freezes everything it inherited, as ``settle`` does for the
    harness, so the set-up runs as it would in a fresh process; the
    parent's heap and peak RSS stay those of the op stream."""
    r, w = os.pipe()
    sys.stdout.flush()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(r)
            gc.freeze()
            t0 = perf_counter()
            wl.setup()
            os.write(w, repr(perf_counter() - t0).encode())
        finally:
            os._exit(0)
    os.close(w)
    with os.fdopen(r, "rb") as f:
        data = f.read()
    os.waitpid(pid, 0)
    if not data:
        raise RuntimeError("a timed set-up failed")
    return float(data)


def timed_run(spec: dict, name: str, seed: int, seconds: float):
    from workloads import WORKLOADS
    params = spec["workloads"][name]
    wl = WORKLOADS[name](params, seed)
    settle()
    start = perf_counter()
    wb = wl.setup()
    wl.start(wb)
    gc.collect()
    res = Result()
    # The timed set-ups are spread evenly over the run, like every other
    # sample, so that one slow stretch of the machine does not set them.
    n_setups = params["setup_repeats"]
    setup_at = [start + seconds * (k + 0.5) / n_setups
                for k in range(n_setups)]
    setups = []
    deadline = start + seconds
    i = 0
    while perf_counter() < deadline:
        res.run(wl.round())
        res.run(wl.extra(i))
        i += 1
        while len(setups) < n_setups and perf_counter() >= setup_at[
                len(setups)]:
            setups.append(timed_setup(wl))
    while len(setups) < n_setups:
        setups.append(timed_setup(wl))

    s = res.samples
    missing = {"recalc", "edit", "call", "define", "specialize",
               "residual_call"} - set(s)
    if missing:
        raise RuntimeError(f"no successful samples of {sorted(missing)}")
    edit_p, edit_tail = tail(s["edit"])
    call_p, call_tail = tail(s["call"])
    spec_p, spec_tail = tail(s["specialize"])
    med = statistics.median
    metrics = {
        "setup_s": (med(setups), "s"),
        "recalc_s": (med(s["recalc"]), "s"),
        "edit_p50_ms": (med(s["edit"]) * 1e3, "ms"),
        "edit_tail_ms": (edit_tail * 1e3, "ms"),
        "calls_per_s": (len(s["call"]) / sum(s["call"]), "1/s"),
        "call_p50_us": (med(s["call"]) * 1e6, "us"),
        "call_tail_us": (call_tail * 1e6, "us"),
        "define_p50_ms": (med(s["define"]) * 1e3, "ms"),
        "specialize_p50_ms": (med(s["specialize"]) * 1e3, "ms"),
        "specialize_tail_ms": (spec_tail * 1e3, "ms"),
        "residual_call_p50_us": (med(s["residual_call"]) * 1e6, "us"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "ok_ratio": ((res.attempted - res.failed) / res.attempted, "ratio"),
    }
    info = {**context(name, seed), "mode": "timed",
            "samples": {k: len(v) for k, v in sorted(s.items())},
            "setup_samples": len(setups), "rounds": i,
            "tail_percentiles": {"edit": edit_p, "call": call_p,
                                 "specialize": spec_p},
            "fail_ratio": res.failed / res.attempted,
            "errors": dict(res.errors),
            "call_time_share": {k: round(v / sum(res.label_s.values()), 3)
                                for k, v in res.label_s.most_common()}}
    return res, metrics, info


def traced_run(spec: dict, name: str, seed: int):
    from workloads import WORKLOADS
    from tracer import Tracer
    params = spec["workloads"][name]
    rounds = params["trace_rounds"]

    def one_pass(wl, res, tracer=None):
        wb = wl.setup()
        if tracer is not None:
            tracer.watch(wb)
        wl.start(wb)
        for _ in range(rounds):
            res.run(wl.round())
        return wb

    wl = WORKLOADS[name](params, seed)
    settle()
    t0 = perf_counter()
    one_pass(wl, Result())
    plain = perf_counter() - t0
    wl = WORKLOADS[name](params, seed)
    settle()
    tracer = Tracer()
    res = Result(tracer)
    tracer.install()
    try:
        t0 = perf_counter()
        wb = one_pass(wl, res, tracer)
        traced = perf_counter() - t0
    finally:
        tracer.uninstall()
    m = tracer.metrics()
    m["sdf.table_size"] = len(wb.function_table.items())
    m["trace.overhead_ratio"] = traced / plain
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    tracer.write_spans(os.path.join(out_dir, f"trace_{name}_{seed}.json"))
    units = {e["name"]: e["unit"] for e in spec["per_layer"]}
    metrics = {k: (v, units[k]) for k, v in m.items()}
    info = {**context(name, seed), "mode": "traced", "rounds": rounds,
            "ops": dict(sorted((k[3:], v) for k, v in tracer.counts.items()
                               if k.startswith("op."))),
            "fail_ratio": res.failed / res.attempted,
            "errors": dict(res.errors), "digest": res.digest.hexdigest(),
            "spans": len(tracer.spans)}
    return res, metrics, info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "sheetfun")):
        print(f"bench: no engine sources at {src}/sheetfun", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    with open(os.path.join(HERE, "spec.json"), encoding="utf-8") as f:
        spec = json.load(f)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec["per_layer"] = json.load(f)["per_layer"]
    if args.workload not in spec["workloads"]:
        print(f"bench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    if args.trace:
        res, metrics, info = traced_run(spec, args.workload, args.seed)
    else:
        res, metrics, info = timed_run(spec, args.workload, args.seed,
                                       args.seconds)
    print(json.dumps({"info": info}))
    # A raised exception is a failed op, not a wrong output.
    print(json.dumps({
        "correct": res.wrong == 0,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
