#!/usr/bin/env bash
# Determinism gate: runs the fixed-seed scenario benches in a temporary
# directory and diffs every result field of their BENCH_<name>.json
# against the committed bench/baselines/ with check_bench_determinism.py.
# A changed or missing field means a change altered observable
# simulation behaviour (a reordered Rng draw, a dropped metric key).
#
# bench_aggregation runs with its default shard counts (1,2,4), so the
# gate also pins the sharded census result per shard count.
#
# Usage: scripts/bench_baselines.sh path/to/build/bench
set -euo pipefail

BIN=$(cd "${1:?usage: $0 path/to/build/bench}" && pwd)
ROOT=$(cd "$(dirname "$0")/.." && pwd)
DIR=$(mktemp -d)
trap 'rm -rf "$DIR"' EXIT
cd "$DIR"

pairs=()
for name in sec51_routing fig1_gradient aggregation transport; do
  if ! env -u TOTA_BENCH_THREADS "$BIN/bench_$name" > "$name.log" 2>&1; then
    cat "$name.log"
    echo "bench_$name failed" >&2
    exit 1
  fi
  pairs+=("$ROOT/bench/baselines/BENCH_$name.json" "BENCH_$name.json")
done
python3 "$ROOT/scripts/check_bench_determinism.py" "${pairs[@]}"
