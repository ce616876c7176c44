#!/usr/bin/env python3
"""Steadiness check for the repository benchmark.

    python3 perfbench/steady.py [--trace] [--out results.jsonl]
    python3 perfbench/steady.py --summarize results.jsonl

Runs every workload in two sets of ten runs (set after set, each run a
different seed, all from the repository root), then prints for each set
and end-to-end metric the median and quartiles, the quartile spread as a
share of the median, and whether the two sets agree:

  * each spread is within the metric's bound;
  * the second set's median differs from the first set's, in either
    direction, by no more than the bound;
  * the share of failed operations is exactly the same in every run.

With --trace it also makes one traced run per workload and prints the
per-layer metrics, with the tracing overhead of the report cold phase
(traced minus the untraced median).  Every result is appended to --out
as one JSON line, so a summary can be recomputed later.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from fractions import Fraction

sys.dont_write_bytecode = True

RUNS = 10  # runs per workload per set
SETS = 2
# Seeds are numbered on from 1: set 1 takes 1-10 on the first workload,
# 11-20 on the second, set 2 continues at 21, and the traced runs follow.
FIRST_SEED = 1


def load_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit("run failed: %s seed %d (exit %d)" % (workload, seed, proc.returncode))
    return json.loads(proc.stdout.splitlines()[-1])


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def worse_by(metric, base, other):
    """Relative worsening of `other` against `base` (negative = better)."""
    sign = 1 if metric["better"] == "lower" else -1
    return sign * (other - base) / base


def summarize(records, spec):
    ok = True
    for w in [w["name"] for w in spec["workloads"]]:
        rows = [r for r in records if r["workload"] == w and r["trace"] == 0]
        sets = sorted({r["set"] for r in rows})
        if not sets:
            continue
        print("\n== %s (%s)" % (w, ", ".join(
            "set %d: %d runs" % (s, sum(r["set"] == s for r in rows)) for s in sets)))
        shares = {}
        for s in sets:
            rs = [r for r in rows if r["set"] == s]
            shares[s] = Fraction(sum(r["result"]["failed"] for r in rs),
                                 sum(r["result"]["attempted"] for r in rs))
            bad = [r["seed"] for r in rs if not r["result"]["correct"]]
            if bad:
                ok = False
                print("  set %d: output checks FAILED on seeds %s" % (s, bad))
        per_run = {s: sorted({Fraction(r["result"]["failed"], r["result"]["attempted"])
                              for r in rows if r["set"] == s}) for s in sets}
        same = len({x for v in per_run.values() for x in v}) == 1
        ok &= same
        print("  failed share: %s  per run: %s  %s" % (
            ", ".join("set %d %s" % (s, shares[s]) for s in sets),
            sorted({str(x) for v in per_run.values() for x in v}),
            "same in every run" if same else "DIFFERS"))
        print("  %-20s %5s %5s  %12s %12s %12s %7s  %s" % (
            "metric", "bound", "set", "q1", "median", "q3", "spread", "verdict"))
        for m in spec["end_to_end"]:
            base = None
            for s in sets:
                vals = [r["result"]["metrics"][m["name"]]["value"]
                        for r in rows if r["set"] == s]
                if len(vals) < 2:
                    continue
                q1, med, q3 = quartiles(vals)
                spread = (q3 - q1) / med
                verdict = ["spread ok" if spread <= m["bound"] else "SPREAD > bound"]
                ok &= spread <= m["bound"]
                if spread > m["bound"] / 3:
                    verdict.append("(over a third of the bound)")
                if base is None:
                    base = med
                else:
                    wb = worse_by(m, base, med)
                    verdict.append("median %+.1f%% worse than set %d: %s" % (
                        100 * wb, sets[0], "ok" if abs(wb) <= m["bound"] else "DRIFT > bound"))
                    ok &= abs(wb) <= m["bound"]
                print("  %-20s %5.2f %5d  %12.6g %12.6g %12.6g %6.1f%%  %s" % (
                    m["name"], m["bound"], s, q1, med, q3, 100 * spread, " ".join(verdict)))
    traced = [r for r in records if r["trace"] == 1]
    for r in traced:
        print("\n== traced %s seed %d (correct: %s)" % (
            r["workload"], r["seed"], r["result"]["correct"]))
        for name, v in r["result"]["metrics"].items():
            print("  %-26s %14.6g %s" % (name, v["value"], v["unit"]))
        if r["workload"] == "report":
            cold = [x["result"]["metrics"]["report_cold_s"]["value"] for x in records
                    if x["workload"] == "report" and x["trace"] == 0]
            if cold:
                t = r["result"]["metrics"]["traced.cold_s"]["value"]
                base = statistics.median(cold)
                print("  tracing overhead: traced cold %.2f s - untraced median %.2f s"
                      " = %+.2f s (%+.1f%%)" % (t, base, t - base, 100 * (t - base) / base))
    print("\nverdict: %s" % ("steady" if ok else "NOT steady"))
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trace", action="store_true", help="add one traced run per workload")
    ap.add_argument("--out", default=None, help="append every result here (JSON lines)")
    ap.add_argument("--summarize", default=None, help="only summarize this results file")
    args = ap.parse_args()
    if not os.path.exists("BENCHMARK.json"):
        raise SystemExit("run from the repository root")
    spec = load_spec()
    if args.summarize:
        with open(args.summarize) as f:
            records = [json.loads(l) for l in f if l.strip()]
        raise SystemExit(0 if summarize(records, spec) else 1)
    workloads = [w["name"] for w in spec["workloads"]]
    records = []
    out = open(args.out, "a") if args.out else None
    seed = FIRST_SEED

    def record(**r):
        records.append(r)
        if out:
            out.write(json.dumps(r) + "\n")
            out.flush()

    for s in range(1, SETS + 1):
        for w in workloads:
            for _ in range(RUNS):
                res = run_once(w, seed, spec["run_seconds"], 0)
                print("set %d %s seed %d: %s" % (s, w, seed, json.dumps(res)), flush=True)
                record(set=s, workload=w, seed=seed, trace=0, result=res)
                seed += 1
    if args.trace:
        for w in workloads:
            res = run_once(w, seed, spec["run_seconds"], 1)
            record(set=0, workload=w, seed=seed, trace=1, result=res)
            seed += 1
    raise SystemExit(0 if summarize(records, spec) else 1)


if __name__ == "__main__":
    main()
