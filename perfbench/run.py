#!/usr/bin/env python3
"""Build the benchmark driver from source and run one workload.

    python3 perfbench/run.py --workload serve_realtime --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root (any directory works; paths are resolved from
this file).  The first run configures and compiles the program and the
driver into .bench_build/perfbench; later runs only re-check the build.
Build output goes to stderr, so the driver's result object stays the last
line of stdout.  Traced runs write their spans to .bench_build/traces/.
The result's metric names are checked against BENCHMARK.json.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
TRACES = ROOT / ".bench_build" / "traces"
REFERENCE = HERE / "reference" / "battery-seed1.txt"
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"program sources not found under {ROOT / 'src'}")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return BUILD / "perfbench"


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv):
    binary = build()
    args = list(argv)
    if "--reference" not in args:
        args += ["--reference", str(REFERENCE)]
    trace = "--trace" in args[:-1] and args[args.index("--trace") + 1] == "1"
    if trace:
        TRACES.mkdir(parents=True, exist_ok=True)
        args += ["--trace-dir", str(TRACES)]
    try:
        proc = subprocess.run([str(binary)] + args, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"driver exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if "--self-test" in args:
        print(proc.stdout, end="")
        return proc.returncode
    if not lines:
        fail(f"driver printed nothing (exit {proc.returncode})")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print(proc.stdout, end="", file=sys.stderr)
        fail(f"driver did not end with a result object (exit {proc.returncode})")
    names = list(result.get("metrics", {}))
    if names != expected_metrics(trace):
        fail(f"metrics {names} do not match BENCHMARK.json")
    print(proc.stdout, end="")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
