"""steencalc benchmark.

    python3 perfbench/run.py --workload {adem,cartan-cold,session} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout.  Every workload is a closed loop with one
client in one thread: the next operation starts when the previous one has
returned.  Inputs come from the seed alone.  Each operation's output is
checked outside the timed region; a wrong or raising operation counts as
failed.

--trace 0 prints the end-to-end metrics, from up to MAX_PASSES passes over
the same operations (see end_to_end); --trace 1 runs the workload once untraced and
once, on the same operations from a fresh state, with spans recorded around
the engine's public functions, and prints the per-layer metrics.  The last
line of standard output is one JSON object {"correct", "attempted",
"failed", "metrics"}; the line before it holds the details (tail
percentile, repeat share, cache fills, failures).
"""

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from time import perf_counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import ROOT, Env, MissingCheckout, table_fill  # noqa: E402

WORKLOADS = {
    "adem": "wl_adem",
    "cartan-cold": "wl_cartan",
    "session": "wl_session",
}
# Passes over the same operations in an end-to-end run (see end_to_end).
MAX_PASSES = 16
# A pass stops early after PASS_WALL_CAP wall seconds, and no pass starts
# after RUN_WALL_CAP, so that a very slow machine or engine cannot push a run
# past its time limit.
PASS_WALL_CAP = 30.0
RUN_WALL_CAP = 120.0
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TRACE_DIR = os.path.join(ROOT, ".bench_build", "perfbench")


def monotonic():
    # CLOCK_MONOTONIC is shared by all processes, so a child's reading can be
    # compared with the parent's.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def load_workload(env, name, seed):
    module = __import__(WORKLOADS[name])
    return module.Workload(env, seed)


# ------------------------------------------------------------------ set-up


def setup_child(name, seed):
    """Import the engine, build what the workload loads, report readiness."""
    env = Env()
    wl = load_workload(env, name, seed)
    wl.setup()
    print("%.9f" % monotonic())


def measure_setup(name, seed):
    """Time from interpreter start to "ready to run the first operation" in
    one fresh interpreter, which is waited for."""
    start = monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-child",
         "--workload", name, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError("set-up child failed:\n" + proc.stderr)
    return float(proc.stdout.split()[-1]) - start


# -------------------------------------------------------------- timed loop


class LoopResult:
    def __init__(self):
        self.latencies = array("d")
        self.failed_ops = set()
        self.failures = []
        self.timed = 0.0
        self.wall = 0.0


def run_loop(wl, n, tracer=None, check=True):
    """Closed loop over operations 0..n-1: make the input (untimed), run it
    (timed), check it (untimed).  Stops early, with fewer operations, once
    PASS_WALL_CAP seconds have gone by."""
    res = LoopResult()
    wall0 = perf_counter()
    for i in range(n):
        if perf_counter() - wall0 > PASS_WALL_CAP:
            break
        op = wl.op(i)
        if tracer is not None:
            tracer.op = i
            tracer.on = True
        error = None
        t0 = perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # a raising operation is a failed one
            error = exc
        t1 = perf_counter()
        if tracer is not None:
            tracer.on = False
        res.latencies.append(t1 - t0)
        res.timed += t1 - t0
        ok = error is None
        if ok and check:
            try:
                ok = wl.check(op, out)
            except Exception as exc:  # a check that cannot run fails the operation
                ok, error = False, exc
        if not ok:
            res.failed_ops.add(i)
            if len(res.failures) < 5:
                res.failures.append({
                    "op": i, "input": repr(op.key)[:300],
                    "error": repr(error)[:300] if error else "wrong result",
                })
    res.wall = perf_counter() - wall0
    return res


def block_size(wl, seconds):
    """Operations per pass: the workload's nominal rate times a MAX_PASSES-th
    of --seconds, in whole units of the workload's input mix and at least
    one unit.  The count, not the clock, ends a pass, so every run of a
    workload does the same work whatever the machine's speed."""
    units = max(1, round(wl.ops_per_second * seconds / MAX_PASSES / wl.block_unit))
    return units * wl.block_unit


def pass_count(wl, seconds, block):
    """Passes in an end-to-end run: as many blocks as the nominal rate fits
    into --seconds, at most MAX_PASSES.  A workload whose one unit is more
    than its MAX_PASSES-th share makes fewer, longer passes."""
    return max(1, min(MAX_PASSES, round(wl.ops_per_second * seconds / block)))


def rank(pct, n):
    """Nearest rank (1-based) of the pct-th percentile of n samples."""
    return min(n, max(1, math.ceil(round(pct * n, 6) / 100)))


def tail(n):
    """The highest percentile of TAIL_LADDER with at least ten of the n
    samples above it."""
    for pct in TAIL_LADDER:
        if n - rank(pct, n) >= 10:
            return pct
    return 50.0


def fresh_workload(env, name, seed):
    """The workload set up from scratch with the engine's process-wide caches
    emptied, so every pass starts from the same state; its operations are
    the same on every call with the same seed."""
    for table in env.lru_tables():
        table.cache_clear()
    wl = load_workload(env, name, seed)
    wl.setup()
    gc.collect()
    return wl


# -------------------------------------------------------------------- runs


def end_to_end(env, name, seed, seconds):
    """pass_count passes over one block of operations, each from a fresh
    state.  The first pass checks every output; the others replay the same
    operations.  Each operation's latency is its best over the passes, which
    filters out stretches when other work on the machine slows the processor.
    Set-up is timed in a fresh interpreter before every pass and after the
    last, and the best of these is reported, for the same reason.  A later
    pass that PASS_WALL_CAP cuts short is left out, and no more passes run."""
    start = perf_counter()
    setup_samples = [measure_setup(name, seed)]
    wl = fresh_workload(env, name, seed)
    block = block_size(wl, seconds)
    first = run_loop(wl, block)
    n = len(first.latencies)
    best = array("d", first.latencies)
    failed_ops = set(first.failed_ops)
    failures = list(first.failures)
    timed, wall = first.timed, first.wall
    pass_rates = [n / first.timed]
    cut_short = False
    for _ in range(pass_count(wl, seconds, block) - 1):
        if perf_counter() - start > RUN_WALL_CAP:
            break
        setup_samples.append(measure_setup(name, seed))
        again = run_loop(fresh_workload(env, name, seed), n, check=False)
        if len(again.latencies) < n:
            cut_short = True
            break
        best = array("d", map(min, best, again.latencies))
        failed_ops |= again.failed_ops
        failures += again.failures[:5 - len(failures)]
        timed, wall = timed + again.timed, wall + again.wall
        pass_rates.append(n / again.timed)
    setup_samples.append(measure_setup(name, seed))
    lat = sorted(best)
    pct = tail(n)
    metrics = {
        "setup_s": (min(setup_samples), "s"),
        "ops_per_s": (n / sum(best), "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_tail_ms": (lat[rank(pct, n) - 1] * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    details = {
        "workload": name,
        "seed": seed,
        "loop": "closed",
        "clients": 1,
        "sizes": wl.sizes,
        "passes": len(pass_rates),
        "pass_cut_short": cut_short,
        "fail_ratio": {"value": len(failed_ops) / n, "failed": len(failed_ops),
                       "attempted": n},
        "latency_tail": {"percentile": pct, "samples": n, "samples_beyond": n - rank(pct, n)},
        "timed_s": timed,
        "wall_s": wall,
        "pass_ops_per_s": pass_rates,
        "setup_samples_s": setup_samples,
        "failures": failures,
    }
    details.update(wl.details(n))
    return n, len(failed_ops), metrics, details


def traced(env, name, seed, seconds):
    """One untraced pass over a block, then the same operations from a
    fresh state with the tracer installed."""
    from tracer import Tracer

    wl = fresh_workload(env, name, seed)
    plain = run_loop(wl, block_size(wl, seconds))
    n = len(plain.latencies)
    wl = fresh_workload(env, name, seed)
    tracer = Tracer()
    tracer.install()
    try:
        res = run_loop(wl, n, tracer=tracer)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    # the process-wide Adem tables, filled from empty during the traced pass
    for key, value in table_fill(env.adem_tables()).items():
        metrics["steenrod.adem_tables." + key] = (value, "count")
    metrics["trace.ops"] = (n, "count")
    metrics["trace.overhead_ratio"] = (res.timed / plain.timed, "ratio")
    metrics["trace.attributed_share"] = (tracer.root_s / res.timed, "ratio")
    path = os.path.join(TRACE_DIR, "trace-%s-%s" % (name, seed))
    tracer.write(path, {"workload": name, "seed": seed, "ops": n})
    details = {
        "workload": name,
        "seed": seed,
        "untraced": {"ops": n, "timed_s": plain.timed, "failed": len(plain.failed_ops)},
        "traced": {"ops": n, "timed_s": res.timed, "failed": len(res.failed_ops)},
        "spans_written": os.path.relpath(path, ROOT) + ".spans",
        "spans_dropped": tracer.dropped,
        "failures": (plain.failures + res.failures)[:5],
    }
    details.update(wl.details(n))
    return n, len(plain.failed_ops | res.failed_ops), metrics, details


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_child:
            setup_child(args.workload, args.seed)
            return 0
        env = Env()
        run = traced if args.trace else end_to_end
        attempted, failed, metrics, details = run(env, args.workload, args.seed, args.seconds)
    except MissingCheckout as exc:
        print("error: %s (run from the root of a steencalc checkout)" % exc, file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 1
    for key, (value, unit) in metrics.items():
        print("%-48s %16.6f %s" % (key, value, unit))
    if not args.trace:
        fr = details["fail_ratio"]
        print("%-48s %16.6f ratio (%d of %d)" % ("fail_ratio", fr["value"], fr["failed"],
                                                  fr["attempted"]))
    print(json.dumps({"details": details}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
