#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark for one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke

Run from the repository root. The first call configures and builds the
benchmark (perfbench/CMakeLists.txt compiles the library from src/) into
.bench_build/perfbench; later calls rebuild only what changed. The last
line of standard output is the result as one JSON object; build output and
the benchmark's own log go to standard error. The exit status is 0 only
when the build succeeded, every output check passed, and the result names
exactly the metrics BENCHMARK.json declares.

--smoke builds, then runs the benchmark's own tests (ctest): every workload
once at tiny scale with all output checks on, traced and untraced, plus a
run per workload with a deliberately corrupted answer that must be caught.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "vebo_perfbench"
RUN_TIMEOUT_S = 175


def fail(msg, code=1):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def jobs():
    return str(len(os.sched_getaffinity(0)))


def build():
    if not (ROOT / "src").is_dir():
        fail(f"no library sources at {ROOT / 'src'}; run from a full checkout", 2)
    cmds = []
    if not (BUILD / "CMakeCache.txt").exists():
        cmds.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"])
    cmds.append(["cmake", "--build", str(BUILD), "-j", jobs()])
    for cmd in cmds:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd), 2)


def git_sha(given):
    if given:
        return given
    if os.environ.get("VEBO_GIT_SHA"):
        return os.environ["VEBO_GIT_SHA"]
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            return r.stdout.strip()
    return "unknown"


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run(args):
    build()
    env = dict(os.environ, VEBO_THREADS=jobs())
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--git-sha", git_sha(args.git_sha)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 2 or not lines or not lines[-1].startswith("{"):
        fail(f"benchmark exited {proc.returncode} without a result")
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])

    # Per-layer metrics a workload does not exercise read 0; every other
    # mismatch with BENCHMARK.json is an error.
    declared = declared_metrics(args.trace)
    metrics = result["metrics"]
    unknown = sorted(set(metrics) - set(declared))
    if unknown:
        fail(f"metrics not declared in BENCHMARK.json: {unknown}")
    for name, unit in declared.items():
        if name not in metrics:
            if not args.trace:
                fail(f"end-to-end metric {name} missing from the result")
            metrics[name] = {"value": 0.0, "unit": unit}
        elif metrics[name]["unit"] != unit:
            fail(f"{name}: unit {metrics[name]['unit']} != declared {unit}")
    result["metrics"] = {k: metrics[k] for k in declared}
    print(json.dumps(result))
    if proc.returncode != 0 or not result["correct"]:
        fail("output check failed", 1)


def smoke():
    build()
    env = dict(os.environ, VEBO_THREADS=jobs())
    sys.exit(subprocess.run(["ctest", "--test-dir", str(BUILD),
                             "--output-on-failure"], env=env).returncode)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--git-sha", default="")
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args()
    if args.smoke:
        smoke()
    if not args.workload:
        fail("--workload is required", 2)
    run(args)


if __name__ == "__main__":
    main()
