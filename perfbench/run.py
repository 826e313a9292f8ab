#!/usr/bin/env python3
"""Build and run the BiSMO benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Builds the driver (perfbench/CMakeLists.txt, which compiles the library
from ../src) into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench
when that is unset, then runs one workload.  The workloads' parameters
are constants in their sources (perfbench/src).  The last line of stdout
is the result object; it is checked against the metric names and units
BENCHMARK.json declares for the run's mode.  A traced run also writes its spans as Chrome trace-event JSON
next to the build (trace-<workload>-<seed>.json).

Exit codes: the driver's (0 ok, 1 an output check failed, 3 invalid run),
2 when the build or the driver's set-up fails, 4 when the printed metrics
do not match BENCHMARK.json.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build(build_dir, target):
    """Configure (once) and build `target`; exit 2 with the log tail on failure."""
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "--target", target, "-j", jobs])
    with open(log_path, "a") as out:
        for cmd in steps:
            if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                log(f"build failed: {' '.join(cmd)}")
                sys.exit(2)
    return os.path.join(build_dir, target)


def check_result(line, trace):
    """The result object must hold exactly the declared metrics and units."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    declared = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"result keys {sorted(result)}"
    printed = {name: m.get("unit") for name, m in result["metrics"].items()}
    if printed != declared:
        missing = sorted(set(declared) - set(printed))
        extra = sorted(set(printed) - set(declared))
        units = sorted(n for n in set(declared) & set(printed) if declared[n] != printed[n])
        return f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}, units {units}"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the driver's own tests")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "api", "session.hpp")):
        log(f"no BiSMO sources next to {HERE}; run from a full checkout")
        sys.exit(2)
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")

    if args.self_test:
        sys.exit(subprocess.call([build(build_dir, "perfbench_tests")]))
    if args.workload is None or args.seed is None or args.seconds is None:
        parser.error("--workload, --seed and --seconds are required")

    binary = build(build_dir, "perfbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-file",
                os.path.join(build_dir, f"trace-{args.workload}-{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"driver did not finish within {RUN_TIMEOUT_S} s")
        sys.exit(2)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        log(f"driver exited with {proc.returncode} and no result")
        sys.exit(proc.returncode or 2)
    problem = check_result(lines[-1], args.trace)
    if problem is not None:
        log(problem)
        sys.exit(4)
    print("\n".join(lines), flush=True)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
