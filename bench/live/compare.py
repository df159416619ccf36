#!/usr/bin/env python3
"""Compare two sets of bench_live_group results, metric by metric.

    python3 bench/live/compare.py --base base/*.json --new new/*.json

Each input is a file bench_live_group wrote with --out (one invocation,
one value per workload and metric: the median over its repetitions). A
workload the file marks invalid (too few valid repetitions) is skipped.
The i-th base file is paired with the i-th new file. For every end-to-end
metric of the repo's BENCHMARK.json and every workload in both sets, one
row gives each side's median and quartiles and a verdict:

  better      the new side wins at least nine tenths of the pairs and the
              medians differ by more than the base side's interquartile
              range (or, when the base spread exceeds the bound, every new
              value beats every base value);
  worse       the new median is worse than the base median by more than
              the metric's bound;
  unresolved  the base side's spread (IQR / median) exceeds the bound, so
              "no change" cannot be told from noise;
  same        otherwise.

Exits 1 when any row is worse, else 0. Standard library only.
"""
import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(os.path.dirname(os.path.dirname(HERE)), "BENCHMARK.json")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base, new, bound, lower_is_better):
    q1, med_b, q3 = quartiles(base)
    med_n = statistics.median(new)

    def beats(x, y):  # x is better than y
        return x < y if lower_is_better else x > y

    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if beats(n, b))
    if med_b == 0:
        return "same" if med_n == 0 else "unresolved"
    worse_by = (med_n - med_b) / abs(med_b)
    if not lower_is_better:
        worse_by = -worse_by
    spread = (q3 - q1) / abs(med_b)
    if spread > bound:
        return "better" if all(beats(n, b) for n in new for b in base) else "unresolved"
    if pairs and wins >= 0.9 * len(pairs) and beats(med_n, med_b) and abs(med_n - med_b) > q3 - q1:
        return "better"
    if worse_by > bound:
        return "worse"
    return "same"


def load(paths):
    results = []
    for p in paths:
        with open(p) as f:
            results.append(json.load(f)["workloads"])
    return results


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", nargs="+", required=True, help="parent-side result files")
    ap.add_argument("--new", nargs="+", required=True, help="change-side result files")
    args = ap.parse_args()

    with open(SPEC) as f:
        spec = json.load(f)
    base, new = load(args.base), load(args.new)

    def values(results, w, name):
        return [r[w]["metrics"][name]["value"] for r in results
                if w in r and r[w]["valid"] and name in r[w]["metrics"]]

    rows = []
    for w in (w["name"] for w in spec["workloads"]):
        for m in spec["end_to_end"]:
            name = m["name"]
            b, n = values(base, w, name), values(new, w, name)
            if not b or not n:
                continue
            v = verdict(b, n, m["bound"], m["better"] == "lower")
            bq, nq = quartiles(b), quartiles(n)
            rows.append((w, name, m["unit"], bq, nq, v))

    print("%-11s %-17s %-6s %31s %31s  %s" % ("workload", "metric", "unit",
          "base median [q1, q3]", "new median [q1, q3]", "verdict"))
    for w, name, unit, bq, nq, v in rows:
        fmt = lambda q: "%.4g [%.4g, %.4g]" % (q[1], q[0], q[2])
        print("%-11s %-17s %-6s %31s %31s  %s" % (w, name, unit, fmt(bq), fmt(nq), v))
    return 1 if any(r[5] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
