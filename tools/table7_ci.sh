#!/usr/bin/env bash
# CI invariance checks for the table7 fusion sweep: run table7_fusion in
# smoke mode with the fixed built-in seed, then rerun it with one worker;
# stdout must be byte-identical for any --workers=N. (The smoke stdout
# itself is diffed against bench/goldens/table7_fusion_smoke.golden by
# the bench_smoke_table7_fusion ctest entry.)
#
# When a second argument names the ocelot-fleet binary, a small --oracle
# grid is additionally run as two shards and merged, once with
# --workers=1 and once with --workers=2: the merged results must carry
# non-zero oracle columns and be byte-identical across worker counts.
#
# Usage: tools/table7_ci.sh PATH/TO/table7_fusion [PATH/TO/ocelot-fleet]
set -euo pipefail

BENCH=${1:?usage: table7_ci.sh PATH/TO/table7_fusion [PATH/TO/ocelot-fleet]}
FLEET=${2:-}
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

export OCELOT_BENCH_SMOKE=1

echo "== table7 smoke run =="
"$BENCH" > "$WORK/table7.out"

echo "== stdout must be worker-count invariant =="
"$BENCH" --workers=1 > "$WORK/table7.w1.out"
cmp "$WORK/table7.out" "$WORK/table7.w1.out"

if [ -n "$FLEET" ]; then
  echo "== sharded oracle grid: non-zero oracle columns, worker-invariant =="
  GRID=(--tau=300000 --seeds=7 --energy=2200:350
        --benchmarks=ekf_fusion,alarm_voting --models=ocelot,jit
        --scenarios=fusion-calm,fusion-storm --oracle)
  for W in 1 2; do
    for S in 0 1; do
      "$FLEET" run "${GRID[@]}" --shard=$S/2 --out="$WORK/w$W" --quiet \
        --workers=$W
    done
    "$FLEET" merge "${GRID[@]}" --shards=2 --out="$WORK/w$W" > /dev/null
  done
  cmp "$WORK/w1/merged.jsonl" "$WORK/w2/merged.jsonl"
  grep -q '"oracle_fresh_outputs": [1-9]' "$WORK/w1/merged.jsonl"
fi

echo "PASS: table7 output and oracle verdicts are worker-invariant"
