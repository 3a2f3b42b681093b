#!/usr/bin/env python3
"""Compare two sets of ledger runs.

Each input file is one all-workload run written by
`main.exe --seed N --json FILE`.  The files of the two sets are paired
by position, so run the sides alternately (parent, change, change,
parent, ...) and list each side in run order.

Default (paired) mode, parent vs change, per workload and metric:
  * GAIN        the change wins at least 9/10 of the pairs and the medians
                differ by more than the parent's interquartile range;
  * REGRESSION  the change's median is worse than the parent's by more
                than the metric's bound in BENCHMARK.json;
  * unresolved  a side's spread (IQR / median) exceeds the bound and not
                every change run beats every parent run;
  * moved       a simulated (exact) metric differs between the sides.
  A workload whose failure share (failed / attempted) grew is FAILED,
  and its gains do not count.

--agree mode, two sets of one commit: every bounded metric's medians
agree within its bound, and every simulated metric is identical pair by
pair.

Exit status: 0 when nothing regressed (or, with --agree, everything
agrees), 1 otherwise.
"""
import argparse
import json
import os
import statistics
import sys

BENCHMARK = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..", "BENCHMARK.json")

# Units of simulated quantities: deterministic for a given seed, so two
# runs of one commit must report them bit for bit.  bench.* metrics
# describe the run itself and are never exact.
SIMULATED_UNITS = {"ticks", "count", "fraction", "Mcyc", "req/Mtick", "requests", "bytes"}


def load_set(paths):
    runs = []
    for p in paths:
        with open(p) as f:
            runs.append(json.load(f))
    return runs


def quartiles(vals):
    if len(vals) < 2:
        return vals[0], vals[0], vals[0]
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return q1, q2, q3


def spread(vals):
    q1, _, q3 = quartiles(vals)
    med = statistics.median(vals)
    return (q3 - q1) / abs(med) if med else 0.0


def exact(name, unit):
    return unit in SIMULATED_UNITS and not name.startswith("bench.")


def series(runs, workload, metric):
    return [r["workloads"][workload]["metrics"][metric]["value"] for r in runs]


def fail_share(runs, workload):
    att = sum(r["workloads"][workload]["attempted"] for r in runs)
    fail = sum(r["workloads"][workload]["failed"] for r in runs)
    return fail / att if att else 0.0


def paired(parent, change, bounds, directions):
    bad = False
    for w in parent[0]["workloads"]:
        if w not in change[0]["workloads"]:
            continue
        fp, fc = fail_share(parent, w), fail_share(change, w)
        incorrect = not all(r["workloads"][w]["correct"] for r in parent + change)
        failed = fc > fp or incorrect
        if failed:
            bad = True
            print(f"{w}: FAILED failure share {fc:.4g} (parent {fp:.4g}), every run correct: {not incorrect}")
        for m, cell in parent[0]["workloads"][w]["metrics"].items():
            unit = cell["unit"]
            p, c = series(parent, w, m), series(change, w, m)
            mp, mc = statistics.median(p), statistics.median(c)
            rel = (mc - mp) / abs(mp) if mp else 0.0
            if m not in bounds:
                verdict = "moved" if exact(m, unit) and p != c else ""
                print(f"{w:11s} {m:30s} {mp:14.6g} -> {mc:14.6g} {unit:9s} {rel:+8.2%} {verdict}")
                continue
            lower = directions[m] == "lower"
            better = (lambda a, b: a < b) if lower else (lambda a, b: a > b)
            worse = rel if lower else -rel
            wins = sum(1 for a, b in zip(p, c) if better(b, a))
            q1, _, q3 = quartiles(p)
            gain = wins >= 0.9 * len(p) and abs(mc - mp) > (q3 - q1) and worse < 0 and not failed
            all_better = all(better(b, a) for a in p for b in c)
            noisy = max(spread(p), spread(c)) > bounds[m]
            if noisy and not all_better:
                verdict = "unresolved"
            elif worse > bounds[m]:
                verdict = "REGRESSION"
                bad = True
            elif gain:
                verdict = "GAIN"
            else:
                verdict = "no change"
            print(
                f"{w:11s} {m:30s} {mp:14.6g} -> {mc:14.6g} {unit:9s} {rel:+8.2%} "
                f"wins {wins}/{len(p)} spread {spread(p):.3f}/{spread(c):.3f} bound {bounds[m]:g}  {verdict}"
            )
    return bad


def agree(a, b, bounds):
    bad = False
    for r, s in zip(a, b):
        if r.get("seed") != s.get("seed"):
            sys.exit("--agree pairs runs of the same seed; the seeds differ by position")
    for w in a[0]["workloads"]:
        if w not in b[0]["workloads"]:
            print(f"{w}: missing from the second set")
            bad = True
            continue
        for run in a + b:
            if not run["workloads"][w]["correct"]:
                print(f"{w}: a run reported correct = false")
                bad = True
        if fail_share(a, w) != fail_share(b, w):
            print(f"{w}: failure shares differ")
            bad = True
        for m, cell in a[0]["workloads"][w]["metrics"].items():
            unit = cell["unit"]
            x, y = series(a, w, m), series(b, w, m)
            mx, my = statistics.median(x), statistics.median(y)
            rel = (my - mx) / abs(mx) if mx else 0.0
            if exact(m, unit):
                ok = x == y
                note = "identical" if ok else "DIFFERS"
            elif m in bounds:
                ok = abs(rel) <= bounds[m]
                note = f"within {bounds[m]:g}" if ok else f"OUTSIDE {bounds[m]:g}"
            else:
                ok, note = True, "unbounded"
            bad = bad or not ok
            print(f"{w:11s} {m:30s} {mx:14.6g} {my:14.6g} {unit:9s} {rel:+8.2%} {note}")
    return bad


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", nargs="+", required=True, help="first set of run files (the parent)")
    ap.add_argument("--change", nargs="+", required=True, help="second set of run files (the change)")
    ap.add_argument("--agree", action="store_true", help="the two sets are runs of one commit")
    args = ap.parse_args()
    with open(BENCHMARK) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    directions = {m["name"]: m["better"] for m in bench["end_to_end"]}
    parent, change = load_set(args.parent), load_set(args.change)
    if len(parent) != len(change):
        sys.exit("the two sets must hold the same number of runs")
    if args.agree:
        bad = agree(parent, change, bounds)
    else:
        if len(parent) < 10:
            sys.exit("the paired rule needs at least 10 pairs of runs")
        bad = paired(parent, change, bounds, directions)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
