#!/usr/bin/env bash
# CI build-and-check of perfbench: builds its binary against the current
# sources (perfbench/run.py configures a Release tree of its own) and runs
# each workload for a short timed phase. A workload fails the step unless
# its last stdout line reports "correct": true with 0 failed cells, so a
# change to the RunConfig, harness or fleet APIs perfbench calls, or to the
# records its workloads produce, is caught here and not only when the
# benchmark is next measured.
#
# Usage: tools/perfbench_ci.sh [SECONDS]   (default 2)
set -euo pipefail

SECONDS_PER_RUN=${1:-2}
HERE=$(cd "$(dirname "$0")" && pwd)
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

for W in table2b-monitored fig8-unmonitored table7-oracle fleet-sharded; do
  echo "== perfbench $W (--seconds $SECONDS_PER_RUN) =="
  python3 "$HERE/../perfbench/run.py" --workload "$W" \
    --seconds "$SECONDS_PER_RUN" > "$WORK/$W.out"
  tail -n 1 "$WORK/$W.out" | python3 -c '
import json, sys
name = sys.argv[1]
r = json.loads(sys.stdin.read())
correct, attempted, failed = r["correct"], r["attempted"], r["failed"]
print(f"{name}: correct={correct} attempted={attempted} failed={failed}")
if correct is not True or failed != 0:
    sys.exit(f"{name}: perfbench reports wrong cells")
' "$W"
done
