#!/usr/bin/env python3
"""Compares two revisions on perfbench's end-to-end metrics, in interleaved pairs.

Run from anywhere inside the repository:

  python3 tools/abbench.py --parent REV --change REV --workload NAME \\
      [--workload NAME ...] [--pairs 10] [--seconds 10] [--seed 1] \\
      [--workdir DIR]

Each revision is exported with `git archive` into its own directory under
DIR (a fresh temporary directory outside the repository when unset), and
its perfbench binary is built once there, under its own CARGO_TARGET_DIR.
Then, for each workload, the tool runs --pairs pairs of
`perfbench/run.py --trace 0`, one run per side per pair, alternating which
side runs first.

For every end-to-end metric in the parent's BENCHMARK.json it prints each
side's median and quartiles, the change/parent ratio of the medians, the
change's wins out of the pairs (a pair is a win when the change's run is
strictly better), and FLAG when the change's median is worse than the
parent's by more than the metric's bound. It also prints each side's
median host.ref_s (perfbench's fixed reference kernel): a shift of every
metric together with it is the host, not the code.

Every run's result is appended to DIR/runs.jsonl. The exit status is 0
when every run was correct with no failed operation
and no metric is flagged, 1 otherwise.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

WORKLOADS = ("pointsto", "eqsat-math", "herbie", "session")
SIDES = ("parent", "change")


def log(message):
    print(message, file=sys.stderr, flush=True)


def repo_root():
    here = os.path.dirname(os.path.abspath(__file__))
    return subprocess.run(["git", "-C", here, "rev-parse", "--show-toplevel"],
                          capture_output=True, text=True,
                          check=True).stdout.strip()


def export(root, rev, dest):
    """Writes the tree of rev into dest and returns its commit id."""
    commit = subprocess.run(["git", "-C", root, "rev-parse", "--verify",
                             rev + "^{commit}"], capture_output=True,
                            text=True, check=True).stdout.strip()
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "-C", root, "archive", commit],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout,
                   check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise RuntimeError("git archive %s failed" % rev)
    return commit


def build(tree, target):
    """Builds the tree's perfbench where its run.py will look for it, so
    the timed runs only find it up to date."""
    build_dir = os.path.join(target, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "-S", os.path.join(tree, "perfbench"), "-B",
                    build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=subprocess.DEVNULL, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   stdout=subprocess.DEVNULL, check=True)


def run_once(tree, target, workload, seed, seconds):
    """One perfbench run; returns (result JSON, env JSON) or raises."""
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    run = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                          workload, "--seed", str(seed), "--seconds",
                          str(seconds), "--trace", "0"], cwd=tree, env=env,
                         capture_output=True, text=True)
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        raise RuntimeError("perfbench exited with code %d:\n%s" %
                           (run.returncode, run.stderr))
    run_env = {}
    for line in lines:
        if line.startswith("env: "):
            run_env = json.loads(line[len("env: "):])
    return json.loads(lines[-1]), run_env


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def compare(workload, runs, spec):
    """Prints the comparison table; returns the number of flagged
    metrics."""
    pairs = len(runs["parent"])
    print("\n== %s: %d pairs" % (workload, pairs))
    print("%-12s %-32s %-32s %7s %6s  %s" %
          ("metric", "parent q1/median/q3", "change q1/median/q3",
           "ratio", "wins", "bound"))
    flagged = 0
    for metric in spec["end_to_end"]:
        name = metric["name"]
        lower = metric.get("better", "lower") == "lower"
        bound = metric["bound"]
        values = {side: [r["metrics"][name]["value"] for r, _ in runs[side]]
                  for side in SIDES}
        stats = {side: quartiles(values[side]) for side in SIDES}
        parent_median = stats["parent"][1]
        change_median = stats["change"][1]
        ratio = (change_median / parent_median if parent_median
                 else float("inf") if change_median else 1.0)
        wins = sum(1 for p, c in zip(values["parent"], values["change"])
                   if (c < p if lower else c > p))
        worse = ratio > 1 + bound if lower else ratio < 1 - bound
        flagged += worse
        print("%-12s %-32s %-32s %7.3f %3d/%-2d  %.2f%s" %
              (name, "%.4g / %.4g / %.4g" % stats["parent"],
               "%.4g / %.4g / %.4g" % stats["change"], ratio, wins, pairs,
               bound, "  FLAG" if worse else ""))
    for side in SIDES:
        refs = [e.get("host.ref_s") for _, e in runs[side]]
        refs = [r for r in refs if r is not None]
        if refs:
            print("%s host.ref_s median %.4g" % (side,
                                                 statistics.median(refs)))
    return flagged


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--workload", action="append", required=True,
                        choices=WORKLOADS)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workdir")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    root = repo_root()
    workdir = args.workdir or tempfile.mkdtemp(prefix="abbench-")
    workdir = os.path.abspath(workdir)
    if os.path.commonpath([workdir, root]) == root:
        parser.error("--workdir must be outside the repository")
    trees, targets = {}, {}
    for side in SIDES:
        rev = getattr(args, side)
        trees[side] = os.path.join(workdir, side)
        targets[side] = os.path.join(workdir, side + "-target")
        commit = export(root, rev, trees[side])
        log("abbench: %s = %s (%s), building" % (side, rev, commit[:12]))
        build(trees[side], targets[side])
    with open(os.path.join(trees["parent"], "BENCHMARK.json")) as handle:
        spec = json.load(handle)

    ok = True
    for workload in args.workload:
        runs = {side: [] for side in SIDES}
        for pair in range(args.pairs):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for side in order:
                try:
                    result, run_env = run_once(trees[side], targets[side],
                                               workload, args.seed,
                                               args.seconds)
                except (OSError, RuntimeError, ValueError) as error:
                    log("abbench: %s %s pair %d: %s" %
                        (workload, side, pair, error))
                    return 1
                if not result.get("correct") or result.get("failed"):
                    log("abbench: %s %s pair %d: correct=%s failed=%s" %
                        (workload, side, pair, result.get("correct"),
                         result.get("failed")))
                    ok = False
                runs[side].append((result, run_env))
                with open(os.path.join(workdir, "runs.jsonl"), "a") as log_file:
                    log_file.write(json.dumps({
                        "workload": workload, "pair": pair, "side": side,
                        "result": result, "env": run_env}) + "\n")
            log("abbench: %s pair %d/%d done" % (workload, pair + 1,
                                                 args.pairs))
        if compare(workload, runs, spec):
            ok = False
    print("\nabbench: %s (work files in %s)" %
          ("no metric flagged, every run correct" if ok else "FAILED",
           workdir))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
