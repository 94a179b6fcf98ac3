#!/usr/bin/env python3
"""Runs one workload with every deadline scaled to 0 and checks the result.

    python3 perfbench/missed_deadlines.py <perfbench binary> <workload>

Every timed operation then misses its deadline.  The run must still end
with a result whose operations all count as failed and whose outputs stay
correct.  Exits 1 otherwise.
"""
import json
import subprocess
import sys


def main(binary, workload):
    proc = subprocess.run(
        [binary, "--workload", workload, "--seed", "1", "--seconds", "1",
         "--trace", "0", "--deadline-scale", "0"],
        stdout=subprocess.PIPE, timeout=120)
    result = json.loads(proc.stdout.decode().strip().splitlines()[-1])
    ok = (proc.returncode == 0 and result["correct"] is True
          and result["attempted"] > 0
          and result["failed"] == result["attempted"])
    print("%s: exit %d, correct=%s, failed %d/%d" % (
        workload, proc.returncode, result["correct"], result["failed"],
        result["attempted"]))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
