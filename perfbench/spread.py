"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workloads adem,cartan-cold,session \
        --seeds 1-10 [--second-seeds 11-20] [--out FILE] [--baseline FILE]

Runs perfbench/run.py once per workload and seed, one run at a time, and
prints, for every end-to-end metric, the median and quartiles of the values
(statistics.quantiles(values, n=4)) and the quartile distance as a share of
the median -- the spread that BENCHMARK.json's bounds are checked against.
With --second-seeds, a second set of runs is made on those seeds, each run
alternating with one of the first set so that both see the same machine,
and each second-set median is compared with the first set's.  With --out,
every run's result and details lines are also written to FILE as JSON;
--baseline FILE compares each first-set median with that of an earlier
--out FILE.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_of(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(bench, workload, seed):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit("run failed: %s\n%s" % (" ".join(cmd), proc.stderr))
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        print("%s seed %d: %d of %d operations failed"
              % (workload, seed, result["failed"], result["attempted"]))
    return {"workload": workload, "seed": seed, "result": result,
            "details": json.loads(lines[-2])["details"]}


def medians_of(runs):
    values = {}
    for run in runs:
        for name, metric in run["result"]["metrics"].items():
            values.setdefault((run["workload"], name), []).append(metric["value"])
    return values


def worse_than(med, ref, better):
    """How much worse med is than ref, as a share of ref."""
    return (med - ref) / ref if better == "lower" else (ref - med) / ref


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--second-seeds", help="a second set, run alternating with the first")
    parser.add_argument("--out")
    parser.add_argument("--baseline", help="an earlier --out FILE to compare medians with")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    base = {}
    if args.baseline:
        with open(args.baseline, encoding="utf-8") as fh:
            base = medians_of(r for r in json.load(fh) if r.get("set", 1) == 1)
    first, second = seeds_of(args.seeds), seeds_of(args.second_seeds or "")
    runs = []
    worst = 0.0
    for workload in args.workloads.split(","):
        for i in range(max(len(first), len(second))):
            for set_no, seeds in ((1, first), (2, second)):
                if i < len(seeds):
                    runs.append(dict(run_once(bench, workload, seeds[i]), set=set_no))
        sets = [medians_of(r for r in runs if r["workload"] == workload and r["set"] == k)
                for k in (1, 2)]
        for set_no, values in enumerate(sets, 1):
            if not values:
                continue
            print("%s set %d (%d runs)" % (workload, set_no, len(next(iter(values.values())))))
            for (_, name), vals in values.items():
                q1, med, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med
                worst = max(worst, spread / bounds[name])
                line = ("  %-16s median %12.6g  q1 %12.6g  q3 %12.6g  spread %6.3f  bound %.2f"
                        % (name, med, q1, q3, spread, bounds[name]))
                ref = base.get((workload, name)) if set_no == 1 else sets[0][workload, name]
                if ref:
                    worse = worse_than(med, statistics.median(ref), better[name])
                    line += "  worse than %s %+.3f%s" % (
                        "baseline" if set_no == 1 else "set 1", worse,
                        "  EXCEEDS BOUND" if worse > bounds[name] else "")
                print(line)
    print("largest spread / bound: %.3f" % worst)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(runs, fh, indent=1)


if __name__ == "__main__":
    main()
