#!/usr/bin/env python3
"""Builds the simulator benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload probe --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one table

The build goes to .bench_build/perfbench (configured once, then
incremental). Every argument is passed to the perfbench binary, whose last
line of output is the JSON result; `--workload all` runs each workload in
turn and ends with one JSON line whose metric names carry the workload as a
prefix. The exit code is the binary's: 0 when every output checked correct.
"""

import json
import os
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "perfbench")
SOURCE_DIR = "perfbench"
WORKLOADS = ["probe", "switch", "splash"]
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 1500


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        fail("no simulator sources here; run from the repository root")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Compiler temporaries stay inside the checkout too.
    tmp = os.path.abspath(os.path.join(BUILD_DIR, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SOURCE_DIR, "-B", BUILD_DIR])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", "perfbench"])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, env=env,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step))
    return os.path.join(BUILD_DIR, "perfbench")


def run_binary(binary, args):
    done = subprocess.run([binary] + args, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                          check=False, text=True)
    return done.returncode, done.stdout


def with_workload(args, name):
    out = list(args)
    out[out.index("--workload") + 1] = name
    return out


def run_all(binary, args):
    """Every workload in turn; one summary table and one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for name in WORKLOADS:
        code, out = run_binary(binary, with_workload(args, name))
        sys.stdout.write(out)
        lines = out.strip().splitlines()
        if not lines or code not in (0, 1):
            fail("workload %s exited with code %d" % (name, code))
        result = json.loads(lines[-1])
        worst = max(worst, code)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][name + "." + metric] = entry
    print("\n%-10s %-36s %18s %s" % ("workload", "metric", "value", "unit"))
    for key, entry in combined["metrics"].items():
        name, metric = key.split(".", 1)
        print("%-10s %-36s %18.6f %s" % (name, metric, entry["value"], entry["unit"]))
    print("cells %d, failed_cells %d" % (combined["attempted"], combined["failed"]))
    print(json.dumps(combined))
    return worst


def main():
    args = sys.argv[1:]
    if "--workload" not in args or args.index("--workload") + 1 >= len(args):
        fail("--workload NAME is required (%s or all)" % ", ".join(WORKLOADS))
    binary = build()
    if args[args.index("--workload") + 1] == "all":
        sys.exit(run_all(binary, args))
    code, out = run_binary(binary, args)
    sys.stdout.write(out)
    sys.exit(code)


if __name__ == "__main__":
    main()
