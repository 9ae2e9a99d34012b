#!/usr/bin/env python3
"""Build and run the Ocelot end-to-end + per-layer benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1] [--bless]

Run from the repository root. The first run configures and builds
libocelot plus the `perfbench` driver (Release) under `.bench_build/`
(or `$CARGO_TARGET_DIR` when set); later runs rebuild incrementally. The
driver measures one workload in its own process and prints, as the last
line of stdout, one JSON object with the keys correct, attempted, failed
and metrics. Build logs and progress go to stderr.

Exits non-zero without a result when the Ocelot sources are missing, the
build fails, or the driver fails or runs out of time.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("table2b-monitored", "fig8-unmonitored", "table7-oracle",
             "fleet-sharded")
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def build_base():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return base if base.is_absolute() else ROOT / base


def build(build_dir):
    """Configures (once) and builds the driver; returns its path."""
    build_dir.mkdir(parents=True, exist_ok=True)
    log_path = build_dir / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "perfbench",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                log.flush()
                tail = log_path.read_text(errors="replace")[-4000:]
                print(tail, file=sys.stderr)
                fail(f"build failed: {' '.join(cmd)} (log: {log_path})")
    return build_dir / "perfbench"


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True)
        if r.returncode == 0:
            return r.stdout.strip()
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = ROOT / top
        files = [path] if path.is_file() else sorted(
            p for p in path.rglob("*") if p.is_file())
        for f in files:
            digest.update(str(f.relative_to(ROOT)).encode())
            digest.update(f.read_bytes())
    return "tree-" + digest.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--bless", action="store_true",
                    help="rewrite the workload's expected records")
    args = ap.parse_args()
    if args.seed is not None and args.seed < 0:
        fail("--seed must be non-negative", 2)
    if args.seconds < 1:
        fail("--seconds must be at least 1", 2)

    if not (ROOT / "src" / "ocelot" / "Toolchain.h").is_file() or \
            not (ROOT / "CMakeLists.txt").is_file():
        fail(f"no Ocelot sources under {ROOT} (need src/ and CMakeLists.txt)",
             2)
    for tool in ("cmake",):
        if shutil.which(tool) is None:
            fail(f"'{tool}' not found on PATH", 2)

    base = build_base()
    exe = build(base / "perfbench")

    work = base / "runs" / f"{args.workload}-{os.getpid()}"
    traces = base / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    cmd = [str(exe), "--workload", args.workload,
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work),
           "--expected-dir", str(HERE / "expected"),
           "--commit", source_id()]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
        tag = f"seed{args.seed}"
    else:
        tag = "default"
    cmd += ["--trace-out",
            str(traces / f"{args.workload}-{tag}.trace.json")]
    if args.bless:
        cmd.append("--bless")

    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(f"driver did not finish within {RUN_TIMEOUT_S}s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        fail(f"driver exited with {proc.returncode}")
    if args.bless:
        return

    lines = proc.stdout.rstrip("\n").splitlines()
    if not lines:
        fail("driver printed nothing")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"driver's last line is not JSON: {lines[-1]!r}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"unexpected result keys: {sorted(result)}")
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
