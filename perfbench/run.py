#!/usr/bin/env python3
"""The repository benchmark: one command that builds, runs, checks and
prints every metric of one workload.

    python3 perfbench/run.py --workload tiny-sorter-1024 --seed 1 \\
        --seconds 25 --trace 0

Run from the root of a checkout.  It builds perfbench/scbench from the
library sources (CMake, Release) under $CARGO_TARGET_DIR (default
.bench_build), trains the tiny model once, runs the workload and
prints each metric by name with its unit; the last line is one JSON
object {"correct", "attempted", "failed", "metrics"}.  --trace 0 reports
the end-to-end metrics, --trace 1 the per-layer ones and writes a Chrome
trace-event file (open it in Perfetto).  Any output that differs from the
engine's reference path makes the run fail with exit code 1.
"""

import argparse
import json
import os
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import metrics  # noqa: E402

WORKLOADS = ("tiny-sorter-1024", "snn-apc-256", "tiny-serve-512")
NEEDS_TINY = ("tiny-sorter-1024", "tiny-serve-512")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840
# The trained tiny model is part of the program, not of the inputs: one
# fixed training seed, so --seed varies only images and arrival times and
# the model's early-exit behaviour does not spread the serving figures.
TRAIN_SEED = 1


def log(msg):
    print("[perfbench] " + msg, file=sys.stderr, flush=True)


def run_quiet(cmd, timeout):
    """Run @p cmd with its output on stderr; raise on failure."""
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError("%s exited with %d" % (cmd[0], proc.returncode))


def build(out_dir):
    build_dir = os.path.join(out_dir, "cmake")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", "perfbench", "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    run_quiet(["cmake", "--build", build_dir, "-j", "3"], BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "scbench")


def git_sha(root):
    """HEAD of the checkout, or "unknown" when it is not a git work tree
    of its own (a parent directory's repository does not count)."""
    try:
        top = subprocess.run(["git", "-C", root, "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or \
            os.path.realpath(lines[0]) != os.path.realpath(root):
        return "unknown"
    return lines[1]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 120:
        parser.error("--seed must be >= 0 and --seconds in [1, 120]")

    root = os.getcwd()
    stamp = {
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg()[0],
        "git_sha": git_sha(root),
        "seed": args.seed,
        "workload": args.workload,
    }
    if not os.path.exists(os.path.join(root, "src", "core", "sc_engine.h")):
        log("run from the root of a checkout: library sources not found")
        return 2
    out_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    results = os.path.join(out_dir, "results")
    models = os.path.join(out_dir, "models")
    os.makedirs(results, exist_ok=True)
    os.makedirs(models, exist_ok=True)

    try:
        exe = build(out_dir)
        model = os.path.join(models, "tiny-seed%d.bin" % TRAIN_SEED)
        if args.workload in NEEDS_TINY and not os.path.exists(model):
            t0 = time.monotonic()
            run_quiet([exe, "train", "--seed", str(TRAIN_SEED), "--out", model],
                      RUN_TIMEOUT_S)
            log("trained tiny (training seed %d) in %.1f s"
                % (TRAIN_SEED, time.monotonic() - t0))
        tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
        raw_path = os.path.join(results, tag + ".raw.json")
        chrome = os.path.join(results, tag + ".trace.json")
        run_quiet([exe, "run", "--workload", args.workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--model", model,
                   "--raw", raw_path, "--chrome", chrome], RUN_TIMEOUT_S)
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as e:
        log("failed: %s" % e)
        return 1

    with open(raw_path) as f:
        raw = json.load(f)
    stamp.update(raw["stamp"])
    print("stamp: " + " ".join("%s=%s" % kv for kv in sorted(stamp.items())))
    if raw["mismatches"]:
        # A wrong output fails the run; it is never reported as a number.
        for err in raw["errors"]:
            log("MISMATCH: " + err)
        log("%d outputs differ from the reference: the run fails"
            % raw["mismatches"])
        print(json.dumps({"correct": False, "attempted": raw["attempted"],
                          "failed": raw["failed"], "metrics": {}}))
        return 1

    if args.trace:
        values = metrics.per_layer(raw)
        table = metrics.PER_LAYER
        notes = ["Chrome trace: " + chrome]
    else:
        values, notes = metrics.end_to_end(raw)
        table = metrics.END_TO_END
    for note in notes:
        print("note: " + note)
    out = {}
    for name, unit in table:
        print("%-40s %16.6g %s" % (name, values[name], unit))
        out[name] = {"value": values[name], "unit": unit}
    with open(os.path.join(results, tag + ".report.json"), "w") as f:
        json.dump({"stamp": stamp, "metrics": out}, f, indent=1)
    print(json.dumps({"correct": True, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
