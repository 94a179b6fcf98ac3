#!/usr/bin/env python3
"""Builds the TOTA benchmark (Release) from this checkout and runs one workload.

    python3 perfbench/run.py --workload <grid_flood|grid_churn_read|live_burst>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The build goes to $CARGO_TARGET_DIR (or
.bench_build) under the checkout; build output goes to stderr, and the last
stdout line is the benchmark's JSON result: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1, each
with the unit named there.  Exits non-zero without a result when the
program's sources are not there, the build or run fails, or the run did not
measure every metric of its family.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Longest set-up plus the rounds every run completes, past --seconds.
MARGIN_S = 150


def arg(name, default):
    argv = sys.argv[1:]
    return argv[argv.index(name) + 1] if name in argv[:-1] else default


def result_line(raw, family):
    """The binary's result with only `family`'s metrics, units attached."""
    result = json.loads(raw)
    metrics = {}
    for m in family:
        value = result["metrics"].get(m["name"])
        if not isinstance(value, (int, float)):
            raise ValueError("metric %s not measured" % m["name"])
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    result["metrics"] = metrics
    return json.dumps(result)


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no program sources (src/) next to perfbench/",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    family = spec["per_layer"] if arg("--trace", "0") == "1" else spec["end_to_end"]
    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                         "perfbench")
    if not os.path.isfile(os.path.join(build, "build.ninja")):
        subprocess.run(["cmake", "-S", HERE, "-B", build, "-G", "Ninja",
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", build, "-j4", "--target", "perfbench"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    proc = subprocess.run([os.path.join(build, "perfbench")] + sys.argv[1:],
                          stdout=subprocess.PIPE,
                          timeout=float(arg("--seconds", "10")) + MARGIN_S)
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        print("perfbench: exit %d" % proc.returncode, file=sys.stderr)
        return proc.returncode or 3
    print(result_line(lines[-1], family))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            ValueError, KeyError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        sys.exit(3)
