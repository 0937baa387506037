#!/usr/bin/env python3
"""Builds drrg_bench from this checkout and runs one benchmark workload.

    python3 bench/e2e/run.py --workload NAME --seed S --seconds T --trace 0|1

Run from the root of a checkout.  Every call configures and brings up to
date the build in .bench_build/e2e.  Output, on stdout:

  * the drrg_bench record: every metric drrg_bench measured, with the
    workload name and seed (the input of compare.py);
  * as the last line, the summary {"correct", "attempted", "failed",
    "metrics"}, whose metrics are those BENCHMARK.json names: its
    end_to_end list with --trace 0, its per_layer list with --trace 1.

With --trace 0, setup_s is the median over SETUP_PROCESSES fresh
processes, each timing its own set-up from a cold start.  The span file
of --trace 1 is written next to the build.  Exits non-zero, without a
summary, when the build, a run, or the faithfulness gate fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build" / "e2e"
EXE = BUILD / "drrg_bench"
SETUP_PROCESSES = 5
BUILD_TIMEOUT_S = 850


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD), "-j", "4", "--target", "drrg_bench"],
    ]
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only results.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")


def bench(args, timeout_s):
    done = subprocess.run([str(EXE), *args], stdout=subprocess.PIPE, text=True,
                          timeout=timeout_s, check=False)
    if done.returncode != 0:
        fail(f"drrg_bench {' '.join(args)} exited {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail(f"drrg_bench {' '.join(args)} printed nothing")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    opts = parser.parse_args()

    build()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if opts.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {opts.workload!r}")

    common = ["--workload", opts.workload, "--seed", str(opts.seed)]
    timeout_s = opts.seconds + 120
    if opts.trace:
        trace_file = BUILD / f"trace-{opts.workload}-{opts.seed}.jsonl"
        record = bench([*common, "--seconds", str(opts.seconds),
                        "--trace", str(trace_file)], timeout_s)
        wanted = spec["per_layer"]
    else:
        def setup_s():
            return bench([*common, "--setup-only"], timeout_s)["metrics"]["setup_s"]["value"]

        # Half the set-up processes run before the timed one and half after,
        # so a burst of interference on a shared host hits at most a few.
        setups = [setup_s() for _ in range(SETUP_PROCESSES // 2)]
        record = bench([*common, "--seconds", str(opts.seconds)], timeout_s)
        setups.append(record["metrics"]["setup_s"]["value"])
        setups += [setup_s() for _ in range(SETUP_PROCESSES // 2)]
        record["metrics"]["setup_s"]["value"] = statistics.median(setups)
        wanted = spec["end_to_end"]

    metrics = {}
    for m in wanted:
        got = record["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            fail(f"drrg_bench does not report {m['name']} in {m['unit']}")
        metrics[m["name"]] = got
    print(json.dumps(record))
    print(json.dumps({"correct": record["failed"] == 0, "attempted": record["runs"],
                      "failed": record["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
