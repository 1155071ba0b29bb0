#!/usr/bin/env python3
"""Builds and runs egglog-cpp's benchmark (see perfbench/README.md).

Run from the repository root:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0 --record
  python3 perfbench/run.py --selftest

NAME is pointsto, eqsat-math, herbie or session. The benchmark is built
from source with CMake (Release) under $CARGO_TARGET_DIR, or .bench_build
when that is unset, and each workload runs in one process at one engine
thread. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.

Outputs are checked inside the run (independent oracles, repetition to
repetition determinism) and, for seeds recorded in perfbench/expected.json,
against the recorded values. --record adds or replaces the entry for the
seed after a correct run.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("pointsto", "eqsat-math", "herbie", "session")
BINARY_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def log(message):
    print(message, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "egglog_perfbench")


def source_digest():
    """SHA-256 over the library and benchmark sources, so a result can be
    tied to the code it measured even where there is no git history."""
    digest = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30,
                              check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    if not os.path.exists(os.path.join(ROOT, "src", "core", "Frontend.h")):
        log("perfbench: egglog sources not found under %s/src" % ROOT)
        return 2
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_root = os.path.join(ROOT, target)
    try:
        binary = build(os.path.join(build_root, "perfbench"))
    except (OSError, subprocess.SubprocessError) as error:
        log("perfbench: build failed: %s" % error)
        return 2
    if args.selftest:
        return subprocess.run([binary, "--selftest"],
                              timeout=BINARY_TIMEOUT_S).returncode

    work_dir = os.path.join(build_root, "work")
    os.makedirs(work_dir, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", work_dir]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: %s did not finish in %d s" %
            (args.workload, BINARY_TIMEOUT_S))
        return 1
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        log("perfbench: %s exited with code %d" %
            (args.workload, run.returncode))
        return 1
    result = json.loads(lines[-1])
    outputs, env = {}, {}
    for line in lines[:-1]:
        if line.startswith("outputs: "):
            outputs = json.loads(line[len("outputs: "):])
        elif line.startswith("env: "):
            env = json.loads(line[len("env: "):])
        else:
            print(line)

    missing = declared_metrics(args.trace) ^ set(result["metrics"])
    if missing:
        log("perfbench: metrics differ from BENCHMARK.json: %s" %
            sorted(missing))
        return 1

    expected_path = os.path.join(HERE, "expected.json")
    with open(expected_path) as handle:
        expected = json.load(handle)
    recorded = expected.get(args.workload, {}).get(str(args.seed))
    if recorded is not None and recorded != outputs:
        log("perfbench: outputs %s differ from the recorded %s" %
            (outputs, recorded))
        result["correct"] = False
    if args.record and result["correct"]:
        expected.setdefault(args.workload, {})[str(args.seed)] = outputs
        with open(expected_path, "w") as handle:
            json.dump(expected, handle, indent=1, sort_keys=True)
            handle.write("\n")

    env.update({"commit": git_commit(), "source_sha256": source_digest(),
                "outputs_recorded": recorded is not None})
    print("env: " + json.dumps(env, sort_keys=True))
    print("outputs: " + json.dumps(outputs, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
