#!/usr/bin/env python3
"""The hypercast benchmark: one run of one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --list

Run from the root of a checkout. The first run builds perfbench/ (the
repository's src/ libraries plus the hcbench driver) into .bench_build/;
later runs only rebuild what changed. hcbench makes the workload's inputs
from --seed, measures for --seconds, checks the outputs, and this script
prints its report lines followed, as the last line of standard output, by
one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end_to_end metrics of BENCHMARK.json;
with --trace 1 they are its per_layer metrics, from a separate traced run
whose spans are written to .bench_build/traces/. A per-layer metric that a
workload does not exercise reads 0 and is named in the report.

--list prints every metric in BENCHMARK.json with its unit and whether
lower or higher is better. See perfbench/NOTES.md for what each workload
and metric is for.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "hcbench")
RUN_TIMEOUT_S = 170


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def print_metric_list(spec):
    for section in ("end_to_end", "per_layer"):
        print(section + ":")
        for m in spec[section]:
            bound = f"  bound {m['bound']}" if "bound" in m else ""
            print(f"  {m['name']:34} {m['unit']:8} {m['better']} is better{bound}")


def build():
    """Configure (once) and build hcbench; False when that fails."""
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache) as f:
            home = [line.split("=", 1)[1].strip() for line in f
                    if line.startswith("CMAKE_HOME_DIRECTORY:")]
        if home != [HERE]:  # the checkout moved: start the build over
            shutil.rmtree(BUILD)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(cache):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--list", action="store_true",
                        help="print every metric with its unit and direction")
    parser.add_argument("--corrupt", type=int, default=0,
                        help="test hook: corrupt this many checked outputs")
    args = parser.parse_args()

    spec = load_spec()
    if args.list:
        print_metric_list(spec)
        return 0
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        parser.error(f"--workload must be one of {', '.join(workloads)}")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2

    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--corrupt", str(args.corrupt)]
    if args.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(
            traces, f"{args.workload}-seed{args.seed}.json")]
    try:
        run = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {args.workload} ran past {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1
    sys.stderr.write(run.stderr)
    if run.returncode != 0:
        print(f"perfbench: hcbench exited {run.returncode}", file=sys.stderr)
        return 1
    lines = run.stdout.splitlines()
    measured = json.loads(lines[-1])

    catalog = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    unmeasured = []
    for m in catalog:  # metrics of the other section are left out
        value = measured["metrics"].get(m["name"])
        if value is None:
            if not args.trace:
                print(f"perfbench: {args.workload} did not report {m['name']}",
                      file=sys.stderr)
                return 1
            unmeasured.append(m["name"])
            value = 0.0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    known = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    extra = sorted(set(measured["metrics"]) - known)
    if extra:
        print(f"perfbench: metrics missing from BENCHMARK.json: {extra}",
              file=sys.stderr)
        return 1

    attempted, failed = measured["attempted"], measured["failed"]
    for line in lines[:-1]:
        print(line)
    print(f"# fail_frac = failed / attempted = {failed} / {attempted}")
    if unmeasured:
        print(f"# not exercised by {args.workload} (reported as 0): "
              + ", ".join(unmeasured))
    correct = failed == 0 and attempted > 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
