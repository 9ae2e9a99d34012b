#!/usr/bin/env bash
# CI drill for the fleet sweep service: run a five-dimensional grid as 4
# shards in 4 separate processes, kill one mid-run, resume it over a torn
# sink tail and a torn newest manifest slot, merge, and byte-compare
# against the sequential single-process golden. Any divergence —
# scheduling, resume, serialization — fails the diff and the job.
#
# Usage: tools/fleet_ci.sh PATH/TO/ocelot-fleet [TAU]
set -euo pipefail

FLEET=${1:?usage: fleet_ci.sh PATH/TO/ocelot-fleet [TAU]}
TAU=${2:-500000}
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

# All five swept dimensions: 2 models x 6 benchmarks x 2 energies x
# 2 powers x 2 scenarios x 1 seed = 96 cells.
GRID=(--tau="$TAU" --seeds=7
      --energy=2200:350 --energy=3600:350
      --powers=default,rf-office
      --scenarios=default,office-hvac)

echo "== plan =="
"$FLEET" plan "${GRID[@]}" --shards=4

echo "== sequential golden (one process) =="
"$FLEET" run "${GRID[@]}" --shard=0/1 --out="$WORK/seq" --quiet

echo "== 4 shards in 4 processes; shard 2 killed mid-run =="
"$FLEET" run "${GRID[@]}" --shard=0/4 --out="$WORK/par" --quiet &
P0=$!
"$FLEET" run "${GRID[@]}" --shard=1/4 --out="$WORK/par" --quiet &
P1=$!
"$FLEET" run "${GRID[@]}" --shard=3/4 --out="$WORK/par" --quiet &
P3=$!
# Shard 2 stops after 5 of its cells — the documented "interrupted" exit
# code 3 stands in for a SIGKILL at a durable checkpoint.
rc=0
"$FLEET" run "${GRID[@]}" --shard=2/4 --out="$WORK/par" --quiet \
  --max-cells=5 || rc=$?
[ "$rc" -eq 3 ] || { echo "expected exit 3 (interrupted), got $rc"; exit 1; }
wait "$P0" "$P1" "$P3"

echo "== simulate a torn tail past the durable offset =="
printf '{"cell": 999, "model": 1, "ben' >> "$WORK/par/shard-2-of-4.jsonl"

echo "== tear shard 2's newest manifest slot in place =="
# A manifest is two 256-byte slots; each checkpoint overwrites the older
# one. Garbage over the newest slot's spec hash stands in for a crash
# mid-commit: the resume must fall back to the other slot, one
# checkpoint (one cell) behind.
MANIFEST="$WORK/par/shard-2-of-4.manifest"
slot_seq() {
  dd if="$MANIFEST" bs=256 skip="$1" count=1 2>/dev/null | sed -n 's/^seq //p'
}
S0=$(slot_seq 0)
S1=$(slot_seq 1)
NEWEST=$(( S0 > S1 ? 0 : 1 ))
printf 'torn' | dd of="$MANIFEST" bs=1 seek=$(( NEWEST * 256 + 40 )) \
  conv=notrunc 2>/dev/null
[ "$(wc -c < "$MANIFEST")" -eq 512 ] || { echo "manifest resized"; exit 1; }
rc=0
"$FLEET" status "$WORK/par" >"$WORK/status.out" || rc=$?
[ "$rc" -eq 3 ] || { echo "expected status exit 3, got $rc"; exit 1; }
grep -Eq '^2/4 .* 4/24 ' "$WORK/status.out" || {
  echo "shard 2 did not fall back to its older slot:"; cat "$WORK/status.out"
  exit 1
}

echo "== merge must refuse while shard 2 is incomplete =="
if "$FLEET" merge "${GRID[@]}" --shards=4 --out="$WORK/par" \
    >"$WORK/premature.out" 2>&1; then
  echo "merge of an incomplete sweep unexpectedly succeeded"; exit 1
fi
grep -q "is incomplete" "$WORK/premature.out"

echo "== resume shard 2 =="
"$FLEET" run "${GRID[@]}" --shard=2/4 --out="$WORK/par" --quiet

echo "== merge + byte-compare against the sequential golden =="
"$FLEET" merge "${GRID[@]}" --shards=4 --out="$WORK/par"
cmp "$WORK/seq/shard-0-of-1.jsonl" "$WORK/par/merged.jsonl"
echo "PASS: sharded + killed + resumed (torn tail, torn manifest slot) +" \
     "merged run is byte-identical to the sequential run"
