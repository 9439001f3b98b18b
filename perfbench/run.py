#!/usr/bin/env python3
"""Build and run the h2 solver benchmark for one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures and builds
perfbench/ (and with it the h2 library) in Release mode under
$CARGO_TARGET_DIR (default .bench_build); later runs rebuild incrementally.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. A run whose program dies or times
out still prints that line, with correct = false and the operation in
flight counted as failed, and exits non-zero. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("molecules", "cube_f32", "serve", "spill")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(build_dir, deadline):
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", "4",
                  "--target", "perfbench"])
    for cmd in steps:
        try:
            subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=max(1.0, deadline - time.monotonic()))
        except (OSError, subprocess.SubprocessError) as e:
            fail(f"build failed: {e}")
    return build_dir / "perfbench"


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run(binary, args, scratch, deadline):
    """Run the program; returns (exit code or None on timeout, stdout lines)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("H2_")}
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", str(scratch)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)

    def stop(signum, _frame):
        proc.kill()
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        return proc.returncode, out.splitlines()
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
        return None, out.splitlines()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no h2 sources next to {HERE.name}/ (expected the repository root)")

    start = time.monotonic()
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    fresh = not (build_dir / "CMakeCache.txt").exists()
    deadline = start + (880.0 if fresh else 175.0)
    binary = build(build_dir, deadline)
    want = expected_metrics(args.trace)

    scratch = build_dir / f"scratch-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        code, lines = run(binary, args, scratch, deadline)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = failed = 0
    result = None
    for line in lines:
        if line.startswith("progress "):
            fields = dict(kv.split("=") for kv in line.split()[1:])
            attempted, failed = int(fields["attempted"]), int(fields["failed"])
        elif line.startswith("{"):
            result = json.loads(line)
        else:
            print(line)

    if result is None:
        # Died (signal, abort) or timed out: the operation in flight failed.
        why = "timed out" if code is None else f"exited with status {code}"
        print(f"failure perfbench {why} after {attempted} operations")
        print(json.dumps({"correct": False, "attempted": attempted + 1,
                          "failed": failed + 1, "metrics": {}}))
        return 1
    missing = [name for name in want if name not in result["metrics"]]
    if missing:
        print(f"failure missing metrics: {', '.join(missing)}")
        result["correct"] = False
    result["metrics"] = {k: v for k, v in result["metrics"].items() if k in want}
    print(json.dumps(result))
    return 0 if code == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
