#!/usr/bin/env python3
"""Compares two revisions on perfbench's end-to-end metrics, in interleaved pairs.

Run from anywhere inside the repository:

  python3 tools/abbench.py --parent REV --change REV --workload NAME \\
      [--workload NAME ...] [--pairs 10] [--seconds 10] [--seed 1] \\
      [--workdir DIR]
  python3 tools/abbench.py --selftest

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
parent's by more than the metric's bound. When the median stays within
the bound but the ratio's 95% interval (below) reaches past it, the
metric reads UNRESOLVED: these pairs cannot tell whether the change is
worse beyond the bound, so more or longer pairs are needed before
concluding either way. Two more columns read the
ratio's uncertainty: a bootstrap 95% interval for the median ratio
(resampling whole pairs, with a fixed seed, so a rerun over the same runs
prints the same interval), and the median over pairs of the pair's
change/parent ratio divided by that pair's host.ref_s ratio (perfbench's
fixed reference kernel), which discounts a host that sped up or slowed
down between the two runs of a pair (times only; "-" for other units).
It also prints each side's median host.ref_s: a shift of every metric
together with it is the host, not the code.

--selftest checks the statistics (quartiles, wins, ratio, interval and
host-adjusted ratio) on fixed synthetic pairs and builds or runs nothing.

Every run's result is appended to DIR/runs.jsonl. The exit status is 0
when every run was correct with no failed operation
and no metric is flagged, 1 otherwise; an UNRESOLVED metric alone does
not change it.
"""

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile

WORKLOADS = ("pointsto", "eqsat-math", "herbie", "session")
SIDES = ("parent", "change")
BOOTSTRAP_RESAMPLES = 2000
BOOTSTRAP_SEED = 1


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


def ratio_of(parent, change):
    """change/parent, with a zero parent read as no change or infinitely
    worse."""
    if parent:
        return change / parent
    return float("inf") if change else 1.0


def bootstrap_interval(parent, change):
    """Bootstrap 95% interval of the change/parent median ratio: resamples
    whole pairs with replacement, from a fixed seed."""
    rng = random.Random(BOOTSTRAP_SEED)
    count = len(parent)
    ratios = []
    for _ in range(BOOTSTRAP_RESAMPLES):
        picks = [rng.randrange(count) for _ in range(count)]
        ratios.append(ratio_of(statistics.median(parent[i] for i in picks),
                               statistics.median(change[i] for i in picks)))
    cuts = statistics.quantiles(ratios, n=40, method="inclusive")
    return cuts[0], cuts[-1]


def summarize(parent, change, lower, parent_refs=None, change_refs=None):
    """Statistics of one metric over paired runs (parent[i] and change[i]
    ran as pair i): each side's quartiles, the median ratio, the change's
    wins, the ratio's bootstrap interval, and the median per-pair ratio
    divided by the pair's host.ref_s ratio (None without refs for every
    pair)."""
    stats = {"parent": quartiles(parent), "change": quartiles(change)}
    summary = {
        "parent": stats["parent"],
        "change": stats["change"],
        "ratio": ratio_of(stats["parent"][1], stats["change"][1]),
        "wins": sum(1 for p, c in zip(parent, change)
                    if (c < p if lower else c > p)),
        "interval": bootstrap_interval(parent, change),
        "host_adjusted": None,
    }
    if (parent_refs and change_refs and None not in parent_refs
            and None not in change_refs):
        summary["host_adjusted"] = statistics.median(
            ratio_of(p, c) / ratio_of(rp, rc)
            for p, c, rp, rc in zip(parent, change, parent_refs,
                                    change_refs))
    return summary


def verdict(summary, lower, bound):
    """FLAG when the median ratio is worse than 1 +/- bound, UNRESOLVED
    when only the ratio's interval reaches past it, else ""."""
    if lower:
        limit = 1 + bound
        if summary["ratio"] > limit:
            return "FLAG"
        return "UNRESOLVED" if summary["interval"][1] > limit else ""
    limit = 1 - bound
    if summary["ratio"] < limit:
        return "FLAG"
    return "UNRESOLVED" if summary["interval"][0] < limit else ""


def compare(workload, runs, spec):
    """Prints the comparison table; returns the number of flagged
    metrics."""
    pairs = len(runs["parent"])
    refs = {side: [e.get("host.ref_s") for _, e in runs[side]]
            for side in SIDES}
    print("\n== %s: %d pairs" % (workload, pairs))
    print("%-12s %-33s %-33s %7s %-15s %8s %6s  %s" %
          ("metric", "parent q1/median/q3", "change q1/median/q3",
           "ratio", "95% interval", "host-adj", "wins", "bound"))
    flagged = 0
    for metric in spec["end_to_end"]:
        name = metric["name"]
        lower = metric.get("better", "lower") == "lower"
        bound = metric["bound"]
        values = {side: [r["metrics"][name]["value"] for r, _ in runs[side]]
                  for side in SIDES}
        # The reference kernel measures the host's speed, so it adjusts
        # times only.
        timed = metric.get("unit") == "s"
        summary = summarize(values["parent"], values["change"], lower,
                            refs["parent"] if timed else None,
                            refs["change"] if timed else None)
        mark = verdict(summary, lower, bound)
        flagged += mark == "FLAG"
        adjusted = summary["host_adjusted"]
        print("%-12s %-33s %-33s %7.3f %-15s %8s %3d/%-2d  %.2f%s" %
              (name, "%.4g / %.4g / %.4g" % summary["parent"],
               "%.4g / %.4g / %.4g" % summary["change"], summary["ratio"],
               "[%.3f, %.3f]" % summary["interval"],
               "-" if adjusted is None else "%.3f" % adjusted,
               summary["wins"], pairs, bound, "  " + mark if mark else ""))
    for side in SIDES:
        known = [r for r in refs[side] if r is not None]
        if known:
            print("%s host.ref_s median %.4g" % (side,
                                                 statistics.median(known)))
    return flagged


def selftest():
    """Checks the statistics on fixed synthetic pairs; returns the exit
    status."""
    failures = []

    def check(what, ok):
        if not ok:
            failures.append(what)

    def close(a, b):
        return abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))

    check("quartiles of 1..5", quartiles([5, 1, 4, 2, 3]) == (2, 3, 4))
    check("quartiles of one run", quartiles([7.0]) == (7.0, 7.0, 7.0))

    # The change is exactly 10% faster in every pair: every resample has
    # the same ratio, so the interval collapses onto it; the host's
    # reference kernel also ran 10% faster, so the host-adjusted ratio is 1.
    parent = [1.0 + 0.1 * i for i in range(10)]
    change = [0.9 * p for p in parent]
    scaled = summarize(parent, change, True, [0.01] * 10, [0.009] * 10)
    check("scaled ratio", close(scaled["ratio"], 0.9))
    check("scaled wins", scaled["wins"] == 10)
    check("scaled interval", close(scaled["interval"][0], 0.9)
          and close(scaled["interval"][1], 0.9))
    check("scaled host-adjusted", close(scaled["host_adjusted"], 1.0))
    check("higher-is-better wins",
          summarize(parent, change, False)["wins"] == 0)
    check("ties are no wins", summarize(parent, parent, True)["wins"] == 0)
    check("no refs, no host-adjusted ratio",
          summarize(parent, change, True, [None] * 10, [0.01] * 10)
          ["host_adjusted"] is None)

    # Noisy pairs: the interval brackets the point ratio, has width, and
    # is the same on every call (fixed seed).
    parent = [1.00, 1.10, 0.95, 1.20, 1.05, 0.98, 1.15, 1.02, 0.97, 1.08]
    change = [1.02, 1.00, 1.01, 1.12, 0.99, 1.04, 1.05, 1.10, 0.96, 1.00]
    noisy = summarize(parent, change, True)
    low, high = noisy["interval"]
    check("noisy ratio", close(noisy["ratio"],
                               statistics.median(change) /
                               statistics.median(parent)))
    check("noisy wins", noisy["wins"] == 6)
    check("noisy interval brackets the ratio", low < noisy["ratio"] < high)
    check("noisy interval is deterministic",
          summarize(parent, change, True)["interval"] == (low, high))
    check("zero parent", ratio_of(0, 0) == 1.0
          and ratio_of(0, 1) == float("inf"))

    # Verdicts against a 0.24 bound. The noisy pairs' median is inside it;
    # so is their interval, but the same pairs at a 0.05 bound reach past
    # it. A median past the bound flags whatever the interval says.
    check("noisy pairs resolve at 0.24", verdict(noisy, True, 0.24) == "")
    check("noisy pairs unresolved at 0.05",
          low < 0.95 and high > 1.05 and
          verdict(noisy, True, 0.05) == "UNRESOLVED")
    check("scaled pairs flag when higher is better",
          verdict(scaled, False, 0.05) == "FLAG")
    straddle = {"ratio": 1.1, "interval": (0.95, 1.3)}
    check("straddling interval, lower is better",
          verdict(straddle, True, 0.24) == "UNRESOLVED")
    check("median past the bound flags",
          verdict({"ratio": 1.3, "interval": (1.25, 1.35)}, True, 0.24)
          == "FLAG")
    check("straddling interval, higher is better",
          verdict({"ratio": 0.9, "interval": (0.7, 1.05)}, False, 0.24)
          == "UNRESOLVED")

    for what in failures:
        print("abbench selftest: FAILED %s" % what)
    if not failures:
        print("abbench selftest: ok")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent")
    parser.add_argument("--change")
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workdir")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if not (args.parent and args.change and args.workload):
        parser.error("--parent, --change and --workload are required")
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
