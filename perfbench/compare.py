#!/usr/bin/env python3
"""Run sets of benchmark runs and compare them against BENCHMARK.json.

    # ten runs of one workload, seeds 1..10, appended to a run-set file
    python3 perfbench/compare.py run --workload chaos --seeds 1-10 --out A.json

    # steadiness of one set, or a second set against a first
    python3 perfbench/compare.py check A.json
    python3 perfbench/compare.py check A.json B.json

A run set maps workload -> list of the metric dicts run.py prints as its
last line.  `check` applies the benchmark's rules to every end-to-end
metric of every workload:

  * spread: the distance between the first and third quartile of the
    values (statistics.quantiles(values, n=4)), as a share of their median,
    stays within the metric's bound;
  * regression (two sets): the second median is no worse than the first by
    more than the bound, in the metric's "better" direction.

Exit status 0 when every check passes, 1 otherwise.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        return json.load(f)


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf")


def worse_by(base, new, better):
    """How much worse `new` is than `base`, as a share of `base` (negative
    when it is better)."""
    if base == 0:
        return 0.0 if new == base else float("inf")
    return (new - base) / base if better == "lower" else (base - new) / base


def check_sets(spec, a, b=None):
    """Returns (rows, problems); rows are printable summary lines."""
    rows, problems = [], []
    for workload in sorted(a):
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            va = [r[name]["value"] for r in a[workload]]
            if len(va) < 2:
                problems.append("%s/%s: need at least 2 runs" % (workload, name))
                continue
            sa = spread(va)
            line = "%-10s %-12s median %-12.6g spread %6.3f (bound %.3f)" % (
                workload, name, statistics.median(va), sa, bound)
            if sa > bound:
                problems.append("%s/%s: spread %.3f > bound %.3f"
                                % (workload, name, sa, bound))
            if b is not None and workload in b:
                vb = [r[name]["value"] for r in b[workload]]
                w = worse_by(statistics.median(va), statistics.median(vb),
                             m["better"])
                line += "  second median %-12.6g worse by %+.3f" % (
                    statistics.median(vb), w)
                if w > bound:
                    problems.append("%s/%s: second median worse by %.3f > "
                                    "bound %.3f" % (workload, name, w, bound))
            rows.append(line)
    return rows, problems


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def cmd_run(args):
    runs = {}
    if os.path.exists(args.out):
        with open(args.out) as f:
            runs = json.load(f)
    spec = load_spec()
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(args.seconds or spec["run_seconds"]), "--trace", "0"],
            stdout=subprocess.PIPE, text=True)
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode != 0 or not last["correct"]:
            print(proc.stdout, file=sys.stderr)
            print("run failed: %s seed %d" % (args.workload, seed),
                  file=sys.stderr)
            return 1
        runs.setdefault(args.workload, []).append(last["metrics"])
        print("%s seed %d: %s" % (args.workload, seed, " ".join(
            "%s=%.6g" % (k, v["value"]) for k, v in last["metrics"].items())),
            flush=True)
        with open(args.out, "w") as f:
            json.dump(runs, f, indent=1)
    return 0


def cmd_check(args):
    with open(args.first) as f:
        a = json.load(f)
    b = None
    if args.second:
        with open(args.second) as f:
            b = json.load(f)
    rows, problems = check_sets(load_spec(), a, b)
    for r in rows:
        print(r)
    for p in problems:
        print("FAIL " + p)
    return 1 if problems else 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--workload", required=True)
    r.add_argument("--seeds", default="1-10")
    r.add_argument("--seconds", type=float, default=None)
    r.add_argument("--out", required=True)
    c = sub.add_parser("check")
    c.add_argument("first")
    c.add_argument("second", nargs="?")
    args = ap.parse_args(argv)
    return cmd_run(args) if args.cmd == "run" else cmd_check(args)


if __name__ == "__main__":
    sys.exit(main())
