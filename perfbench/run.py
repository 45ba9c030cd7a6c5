#!/usr/bin/env python3
"""Builds and runs the SPQ benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> \
        --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root. The engine and the benchmark are built from
source with CMake into $CARGO_TARGET_DIR (default .bench_build) on every
call; an up-to-date build is a no-op. Each workload runs in its own
process. The last stdout line is the run's JSON result: correct,
attempted, failed and the metrics of BENCHMARK.json (end-to-end with
--trace 0, per-layer with --trace 1). `--workload all` runs the three
workloads in turn and prefixes each metric with its workload.

The single-caller workload (warm_skewed) prints exact per-query work
counts; a second run of the same binary with the same seed must print the
same counts, or the run fails (the counts are remembered under the build
directory).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

WORKLOADS = ["warm_skewed", "door_poisson", "store_lifecycle"]
SINGLE_CALLER = {"warm_skewed"}
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configures (once) and builds the benchmark; returns the build dir."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log("run.py: the SPQ sources are not next to perfbench/; "
            "run from a full checkout")
        sys.exit(2)
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=BUILD_TIMEOUT_S,
                              check=False)
        if done.returncode != 0:
            log("run.py: build step failed: " + " ".join(cmd))
            sys.exit(2)
    return out


def file_digest(path):
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()[:16]


def check_counts_repeat(out, binary, workload, seed, stdout):
    """Compares the run's exact counts with an earlier run of the same
    binary and seed; records them when there is none. True when they agree."""
    line = next((l for l in stdout.splitlines()
                 if l.startswith("exact_counts ")), None)
    if workload not in SINGLE_CALLER or line is None:
        return True
    counts = json.loads(line[len("exact_counts "):])
    store = os.path.join(out, "counts")
    os.makedirs(store, exist_ok=True)
    path = os.path.join(store, "%s-%s-%s.json"
                        % (workload, seed, file_digest(binary)))
    if os.path.isfile(path):
        with open(path) as f:
            earlier = json.load(f)
        if earlier != counts:
            log("run.py: exact counts differ from an earlier run with "
                "seed %s: %s vs %s" % (seed, counts, earlier))
            return False
        return True
    with open(path, "w") as f:
        json.dump(counts, f)
    return True


def run_one(out, workload, seed, seconds, trace):
    """Runs one workload in its own process; returns its parsed result."""
    binary = os.path.join(out, "spq_perfbench")
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", out]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, timeout=RUN_TIMEOUT_S,
                              text=True, check=False)
    except subprocess.TimeoutExpired:
        log("run.py: %s timed out after %d s" % (workload, RUN_TIMEOUT_S))
        sys.exit(3)
    lines = done.stdout.rstrip("\n").splitlines()
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        log("run.py: %s exited with code %d" % (workload, done.returncode))
        sys.exit(3)
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    result = json.loads(lines[-1])
    if not check_counts_repeat(out, binary, workload, seed, done.stdout):
        sys.exit(4)
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's helper tests")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    out = build()
    if args.selftest:
        tests = os.path.join(out, "perfbench_tests")
        if not os.path.isfile(tests):
            log("run.py: perfbench_tests not built (GTest missing)")
            sys.exit(2)
        sys.exit(subprocess.run([tests], cwd=ROOT, check=False).returncode)

    if args.workload != "all":
        result = run_one(out, args.workload, args.seed, args.seconds,
                         args.trace)
        print(json.dumps(result))
        return

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        result = run_one(out, workload, args.seed, args.seconds, args.trace)
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][workload + "." + name] = metric
    print(json.dumps(merged))


if __name__ == "__main__":
    main()
