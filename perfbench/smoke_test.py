#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny input sizes.

    python3 perfbench/smoke_test.py

Checks, for every workload in BENCHMARK.json and both trace modes, that
run.py exits 0 with a correct result carrying every metric name and
unit; that a deliberately perturbed result trips the correctness gate;
and that a CHIRP_* variable in the environment is refused.  Takes
about a minute after the first build.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, *extra, env=None):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "0.5",
           "--trace", str(trace), "--tiny", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, env=env,
                          timeout=900)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result, proc.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []
    checks = 0

    def check(ok, what):
        nonlocal checks
        checks += 1
        if not ok:
            failures.append(what)
            print(f"FAIL: {what}", flush=True)

    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result, err = run(workload, trace)
            tag = f"{workload} --trace {trace}"
            check(code == 0, f"{tag}: exit {code}\n{err[-2000:]}")
            if result is None:
                check(False, f"{tag}: no JSON result")
                continue
            check(result["correct"] is True and result["failed"] == 0,
                  f"{tag}: gate failed ({result['failed']} failures)")
            check(result["attempted"] >= 1, f"{tag}: nothing attempted")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            check(got == want, f"{tag}: metric names/units differ")

        code, result, _ = run(workload, 0, "--perturb")
        check(code != 0, f"{workload}: perturbed run exited 0")
        check(result is not None and result["correct"] is False
              and result["failed"] >= 1,
              f"{workload}: perturbed result not flagged")

    code, result, _ = run(spec["workloads"][0]["name"], 1, "--perturb")
    check(code != 0 and result is not None and result["failed"] >= 1,
          "traced perturbed run not flagged")

    env = dict(os.environ, CHIRP_TRACE_FORMAT="mmap")
    code, result, _ = run(spec["workloads"][0]["name"], 0, env=env)
    check(code != 0 and result is None, "CHIRP_* environment not refused")

    print(f"smoke: {checks - len(failures)}/{checks} checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
