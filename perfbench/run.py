#!/usr/bin/env python3
"""CycLedger benchmark: builds the runner from source and drives it.

One workload, one process (the form a harness calls):

    python3 perfbench/run.py --workload paper-m64 --seed 5 --seconds 20 --trace 0

prints every metric with its unit and, as the last stdout line, one JSON
object {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics of BENCHMARK.json with --trace 0, its per-layer metrics with
--trace 1.

Everything (the single command):

    python3 perfbench/run.py [--seconds N] [--seed N]

runs the three workloads one after another, each with its default seed
(or --seed), each in two fresh processes: untraced (end-to-end) then
traced (per-layer). It checks that the two processes agree on the
protocol outcome and ends with one JSON summary line.

Run from anywhere; paths resolve against the checkout holding this file.
The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
checkout; traces go to perfbench/out/.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
OUT = HERE / "out"

# Seeds the figures in perfbench/README.md were measured with. Seed 101 is
# held out: confirm a performance claim on it once the change is written.
DEFAULT_SEEDS = {"paper-m64": 5, "openloop-zipf": 7, "byzantine-lossy": 3}

# Fields of the runner's result that are pure functions of (workload,
# seed), so two processes of one seed must agree on them exactly.
OUTCOME_FIELDS = ("attempted", "failed", "latency_samples", "chain_tip")


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build_dir():
    path = (ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()
    if ROOT.resolve() not in path.parents:
        sys.exit("error: build directory %s is outside the checkout" % path)
    return path


def build():
    """Configure once, then (incrementally) build the runner."""
    out = build_dir()
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("error: build failed: %s" % " ".join(cmd))
    return out / "perfbench"


def run_workload(binary, workload, seed, seconds, trace):
    """One fresh runner process; returns its parsed result."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", str(OUT)]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if done.returncode != 0 or not lines:
        sys.exit("error: %s seed %d trace %d failed (exit %d)"
                 % (workload, seed, trace, done.returncode))
    return json.loads(lines[-1])


def print_table(result):
    print("%-40s %22s  %s" % ("metric", "value", "unit"))
    for name, m in sorted(result["metrics"].items()):
        print("%-40s %22.6f  %s" % (name, m["value"], m["unit"]))
    attempted, failed = result["attempted"], result["failed"]
    print("failed/attempted: %d/%d (failed_share %.6f)"
          % (failed, attempted, failed / attempted))
    if "dominant_phase" in result:
        print("dominant phase: %s" % result["dominant_phase"])


def contract_line(result, names):
    missing = [n for n in names if n not in result["metrics"]]
    if missing:
        sys.exit("error: runner did not report %s" % ", ".join(missing))
    return {
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {n: result["metrics"][n] for n in names},
    }


def main():
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if args.workload is None and args.trace is not None:
        parser.error("--trace needs --workload (without it both modes run)")

    binary = build()
    names = {0: [m["name"] for m in spec["end_to_end"]],
             1: [m["name"] for m in spec["per_layer"]]}

    if args.workload is not None:
        seed = DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed
        trace = 0 if args.trace is None else args.trace
        result = run_workload(binary, args.workload, seed, args.seconds, trace)
        print_table(result)
        print(json.dumps(contract_line(result, names[trace])))
        return

    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        seed = DEFAULT_SEEDS[workload] if args.seed is None else args.seed
        runs = {}
        for trace in (0, 1):
            print("\n=== %s  seed %d  %s ===" % (
                workload, seed, "end-to-end" if trace == 0 else "per-layer"))
            runs[trace] = run_workload(binary, workload, seed, args.seconds,
                                       trace)
            print_table(runs[trace])
            line = contract_line(runs[trace], names[trace])
            for name, m in line["metrics"].items():
                summary["metrics"]["%s.%s" % (workload, name)] = m
        for field in OUTCOME_FIELDS:
            if runs[0][field] != runs[1][field]:
                sys.exit("error: %s seed %d: %s differs between the untraced "
                         "and traced processes (%r vs %r)" % (
                             workload, seed, field, runs[0][field],
                             runs[1][field]))
        summary["attempted"] += runs[0]["attempted"]
        summary["failed"] += runs[0]["failed"]
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
