#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload storm_1pc --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 1

Builds perfbench/ (opc_perfbench plus the repository's src/ libraries, Release)
into $CARGO_TARGET_DIR or .bench_build, runs the workload, and prints one
line per metric (name, value, unit, samples) followed, as the last line, by
the JSON object {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are BENCHMARK.json's end_to_end list, with --trace 1
its per_layer list.  A per-layer metric whose layer the workload does not
exercise reads 0 with 0 samples and is marked n/a.

Exit status: 0 when every output check passed, 1 when the correctness gate
failed, 2 when the benchmark could not build or run.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
# Runnable here but not in BENCHMARK.json (README.md, "Workloads"):
# serve_mix's sub-millisecond tail follows the host's CPU steal, and some
# chaos seeds meet a schedule that fails its checkers.
UNGATED = ["serve_mix", "chaos"]


def load_spec():
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        return json.load(f)


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def quiet(cmd, what):
    """Runs a build step; its output is shown only when it fails."""
    p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                       text=True)
    if p.returncode != 0:
        sys.stderr.write(p.stdout)
        fail(what)


def build(build_dir):
    """Configures once, then builds incrementally."""
    if not os.path.isfile(os.path.join(REPO, "src", "CMakeLists.txt")):
        fail("no src/ beside perfbench/: run from a full checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        quiet(cmd, "cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    quiet(["cmake", "--build", build_dir, "-j", jobs], "build failed")
    exe = os.path.join(build_dir, "opc_perfbench")
    if not os.access(exe, os.X_OK):
        fail("opc_perfbench missing after build: " + exe)
    return exe


def finite(x):
    return isinstance(x, (int, float)) and math.isfinite(x)


def evaluate(raw, spec, trace):
    """Checks opc_perfbench's output against the spec; returns (rows, problems)
    where rows are (name, value, unit, samples, note) in spec order."""
    problems = list(raw.get("violations", []))
    got = {m["name"]: m for m in raw.get("metrics", [])}
    rows = []
    if not trace:
        for m in spec["end_to_end"]:
            g = got.get(m["name"])
            if g is None:
                problems.append("missing metric " + m["name"])
                continue
            if g["unit"] != m["unit"]:
                problems.append("unit of %s is %s, spec says %s"
                                % (m["name"], g["unit"], m["unit"]))
            if not finite(g["value"]) or g["value"] <= 0:
                problems.append("%s = %r is not a positive number"
                                % (m["name"], g["value"]))
            rows.append((m["name"], g["value"], m["unit"], g["samples"], ""))
    else:
        for m in spec["per_layer"]:
            g = got.get(m["name"])
            if g is None:
                rows.append((m["name"], 0, m["unit"], 0, "n/a"))
                continue
            if g["unit"] != m["unit"]:
                problems.append("unit of %s is %s, spec says %s"
                                % (m["name"], g["unit"], m["unit"]))
            if not finite(g["value"]):
                problems.append("%s is not finite" % m["name"])
            rows.append((m["name"], g["value"], m["unit"], g["samples"], ""))
    known = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name in got:
        if name not in known:
            problems.append("metric %s is not in BENCHMARK.json" % name)
    if raw.get("attempted", 0) < 1:
        problems.append("no operation attempted")
    return rows, problems


def run_one(exe, build_dir, spec, workload, args):
    """Runs one workload, prints its table; returns (correct, raw, rows)."""
    cmd = [exe, "--workload", workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           # Relative, so the serve socket path stays short (sockaddr_un).
           "--out-dir", os.path.relpath(build_dir)]
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload did not finish within %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail("opc_perfbench exited with %d" % proc.returncode)
    raw = json.loads(lines[-1])

    rows, problems = evaluate(raw, spec, args.trace == 1)
    if proc.returncode != 0 and not problems:
        problems.append("opc_perfbench reported a failed gate")
    host = raw["host"]
    print("workload %s  seed %d  trace %d  nproc %d  timer overshoot "
          "p50 %.1f us p99 %.1f us (%d bare 100 us timers)"
          % (workload, args.seed, args.trace, host["nproc"],
             host["timer_overshoot_us_p50"], host["timer_overshoot_us_p99"],
             host["timer_samples"]))
    print("attempted %d  failed %d" % (raw["attempted"], raw["failed"]))
    for name, value, unit, samples, note in rows:
        print("  %-34s %14.6g %-6s samples=%-8d %s"
              % (name, value, unit, samples, note))
    for n in raw.get("notes", []):
        print("  note: " + n)
    for p in problems:
        print("  GATE: " + p)
    return not problems, raw, rows


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    help="a workload of BENCHMARK.json, or all")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, for the self-test")
    args = ap.parse_args(argv)

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]] + UNGATED
    if args.workload != "all" and args.workload not in names:
        fail("unknown workload %s (have %s, all)" % (args.workload, names))
    if args.seed < 0 or not args.seconds > 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    exe = build(build_dir)

    # With "all", metric keys of the last line are <workload>/<metric>.
    chosen = names if args.workload == "all" else [args.workload]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for w in chosen:
        ok, raw, rows = run_one(exe, build_dir, spec, w, args)
        correct &= ok
        attempted += int(raw["attempted"])
        failed += int(raw["failed"])
        prefix = w + "/" if len(chosen) > 1 else ""
        for name, value, unit, _, _ in rows:
            metrics[prefix + name] = {"value": value, "unit": unit}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
