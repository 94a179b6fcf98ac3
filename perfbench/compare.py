#!/usr/bin/env python3
"""Per-metric medians, spreads and deltas between two sets of runs.

    python3 perfbench/compare.py bench-sets/parent [bench-sets/change]

A set is a directory of <workload>[.trace].jsonl files written by
perfbench/runs.py.  For every workload and metric it prints the median of
each set, the spread (interquartile distance over the median), and the
change of the second median against the first, marked against the metric's
bound in BENCHMARK.json ("worse" past the bound in its bad direction).  With
one set it prints medians and spreads only.
"""
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(dirname):
    sets = {}
    for name in sorted(os.listdir(dirname)):
        if name.endswith(".jsonl"):
            with open(os.path.join(dirname, name)) as f:
                sets[name[:-6]] = [json.loads(l) for l in f if l.strip()]
    return sets


def summary(runs, metric):
    values = [r["metrics"][metric]["value"] for r in runs if metric in r["metrics"]]
    med = statistics.median(values)
    spread = 0.0
    if len(values) >= 2 and med:
        q = statistics.quantiles(values, n=4)
        spread = (q[2] - q[0]) / abs(med)
    return med, spread


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    info = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    a = load(argv[1])
    b = load(argv[2]) if len(argv) == 3 else {}
    for workload, runs in a.items():
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        correct = all(r["correct"] for r in runs)
        print("== %s: %d runs, correct=%s, failed %d/%d" % (
            workload, len(runs), correct, failed, attempted))
        other = b.get(workload)
        if other:
            print("   second set: %d runs, correct=%s, failed %d/%d" % (
                len(other), all(r["correct"] for r in other),
                sum(r["failed"] for r in other), sum(r["attempted"] for r in other)))
        for metric in sorted(runs[0]["metrics"]):
            m = info.get(metric, {})
            unit = runs[0]["metrics"][metric]["unit"]
            med, spread = summary(runs, metric)
            line = "   %-30s %14.6g %-11s spread %6.1f%%" % (metric, med, unit, 100 * spread)
            if "bound" in m:
                line += " (bound %4.1f%%)" % (100 * m["bound"])
            if other:
                med2, spread2 = summary(other, metric)
                delta = (med2 - med) / abs(med) if med else 0.0
                line += " | %14.6g spread %6.1f%% delta %+7.2f%%" % (med2, 100 * spread2, 100 * delta)
                worse = delta if m.get("better") == "lower" else -delta
                if "bound" in m and worse > m["bound"]:
                    line += "  WORSE"
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
