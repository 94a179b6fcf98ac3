#!/usr/bin/env python3
"""Runs one workload once per seed and appends each result line to a set.

    python3 perfbench/runs.py --workload grid_flood --seeds 1-10 \\
        --out bench-sets/parent [--seconds 30] [--trace 1]

--seconds defaults to BENCHMARK.json's run_seconds.  Each run's JSON
result goes, one per line, to <out>/<workload>[.trace].jsonl; compare two
such directories with perfbench/compare.py.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--out", required=True)
    a = ap.parse_args()
    if a.seconds is None:
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
            a.seconds = str(json.load(f)["run_seconds"])
    os.makedirs(a.out, exist_ok=True)
    name = a.workload + (".trace" if a.trace == "1" else "") + ".jsonl"
    with open(os.path.join(a.out, name), "a") as out:
        for seed in seeds(a.seeds):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 a.workload, "--seed", str(seed), "--seconds", a.seconds,
                 "--trace", a.trace], stdout=subprocess.PIPE)
            lines = proc.stdout.decode().strip().splitlines()
            if proc.returncode != 0 or not lines:
                print("seed %d: exit %d" % (seed, proc.returncode), file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            print("seed %d: correct=%s attempted=%d failed=%d" % (
                seed, result["correct"], result["attempted"], result["failed"]),
                file=sys.stderr)
            out.write(lines[-1] + "\n")
            out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
