#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload and seed.

    python3 perfbench/run.py --workload policy_sweep --seed 1 \
        --seconds 10 --trace 0

Builds perfbench/ (the chirp libraries from src/ plus the driver) into
$CARGO_TARGET_DIR, or .bench_build/ when that is unset, then runs the
driver.  All scratch data stays under that directory.  The driver's
report lines (prefixed "#") go to stdout; the last stdout line is one
JSON object with the keys correct, attempted, failed and metrics.
--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1
the per-layer ones.  Exits non-zero on a build failure, a failed
correctness gate, or a missing metric.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir, env):
    """Configure once, then (re)build the driver; False on failure."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        configured = subprocess.run(configure, stdout=sys.stderr, env=env)
        if configured.returncode != 0:
            return False
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    cmd = ["cmake", "--build", build_dir, "-j", jobs,
           "--target", "chirp_perfbench"]
    return subprocess.run(cmd, stdout=sys.stderr, env=env).returncode == 0


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs (smoke test)")
    parser.add_argument("--perturb", action="store_true",
                        help="corrupt one result so the gate must trip")
    args = parser.parse_args()

    chirp_vars = sorted(k for k in os.environ if k.startswith("CHIRP_"))
    if chirp_vars:
        log(f"refusing to run with {', '.join(chirp_vars)} set: "
            "those switches measure a different program")
        return 2

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    # Compiler and driver temporaries stay inside the build directory.
    tmp_dir = os.path.join(build_dir, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)
    if not build(build_dir, env):
        log("build failed")
        return 3

    cmd = [os.path.join(build_dir, "chirp_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch-root", os.path.join(build_dir, "scratch"),
           "--spans", os.path.join(build_dir, "spans",
                                   f"{args.workload}-seed{args.seed}.jsonl")]
    if args.tiny:
        cmd.append("--tiny")
    if args.perturb:
        cmd.append("--perturb")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it.
        log(f"driver exceeded {RUN_TIMEOUT_S} s")
        return 4

    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or \
            set(result) != {"correct", "attempted", "failed", "metrics"}:
        log(f"driver printed no result (exit {proc.returncode})")
        return proc.returncode or 5
    want = expected_metrics(args.trace)
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    missing = [n for n, unit in want.items() if got.get(n) != unit]
    if missing:
        log(f"metrics missing or with wrong unit: {', '.join(missing)}")
        return 6
    result["metrics"] = {n: result["metrics"][n] for n in want}
    print(json.dumps(result), flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
