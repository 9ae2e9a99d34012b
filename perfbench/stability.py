#!/usr/bin/env python3
"""Check that the benchmark's end-to-end numbers are steady.

    python3 perfbench/stability.py

For each workload in BENCHMARK.json, runs `run.py --trace 0` 10 times per
set, in 2 sets, each run with another seed (1, 2, ...) and `run_seconds`
from BENCHMARK.json. Prints per end-to-end metric the median, the
quartiles and the spread (interquartile distance over the median, as
statistics.quantiles(values, n=4) gives the quartiles). Checks, against
the bounds in BENCHMARK.json:

  * every spread stays within the metric's bound;
  * each set's median is no worse than the first set's by more than the
    bound (in the metric's "better" direction);
  * every run reports correct output.

Finally runs each workload once on the held-out seed 20261016, never used
while the workloads were chosen, and checks its output. Exits 1 if any
check fails.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10
SETS = 2
FIRST_SEED = 1
HELD_OUT_SEED = 20261016


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"stability: {workload} seed {seed} exited "
                         f"{proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def worse_by(first, second, better):
    """Relative amount by which `second` is worse than `first`."""
    if better == "lower":
        return (second - first) / first
    return (first - second) / first


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = bench["end_to_end"]
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]

    ok = True
    seed = FIRST_SEED
    for name in names:
        medians = []
        for s in range(SETS):
            values = {m["name"]: [] for m in metrics}
            for _ in range(RUNS):
                r = run_once(name, seed, seconds)
                seed += 1
                if not r["correct"]:
                    print(f"FAIL {name} seed {seed - 1}: {r['failed']} of "
                          f"{r['attempted']} cells wrong")
                    ok = False
                for m in metrics:
                    values[m["name"]].append(r["metrics"][m["name"]]["value"])
            print(f"== {name}, set {s + 1} ({RUNS} runs)")
            set_medians = {}
            for m in metrics:
                v = values[m["name"]]
                q1, med, q3 = statistics.quantiles(v, n=4)
                med = statistics.median(v)
                spread = (q3 - q1) / med
                set_medians[m["name"]] = med
                flag = ""
                if spread > m["bound"]:
                    flag = "  <-- spread over bound"
                    ok = False
                print(f"  {m['name']:<14} median {med:12.5g} {m['unit']:<8} "
                      f"q1 {q1:12.5g} q3 {q3:12.5g} spread {spread:6.3f}"
                      f" (bound {m['bound']:.2f}){flag}")
            medians.append(set_medians)
        for s in range(1, len(medians)):
            for m in metrics:
                w = worse_by(medians[0][m["name"]], medians[s][m["name"]],
                             m["better"])
                flag = ""
                if w > m["bound"]:
                    flag = "  <-- worse than bound"
                    ok = False
                print(f"  set {s + 1} vs 1: {m['name']:<14} worse by "
                      f"{w:+.3f} (bound {m['bound']:.2f}){flag}")

    for name in names:
        r = run_once(name, HELD_OUT_SEED, seconds)
        status = "ok" if r["correct"] else "FAIL"
        ok = ok and r["correct"]
        summary = ", ".join(f"{k}={v['value']:.4g} {v['unit']}"
                            for k, v in r["metrics"].items())
        print(f"held-out seed {HELD_OUT_SEED} {name}: {status} "
              f"({r['attempted']} cells, {r['failed']} wrong) {summary}")

    print("stability: PASS" if ok else "stability: FAIL")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
