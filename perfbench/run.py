#!/usr/bin/env python3
"""Build and run the DASH stack benchmark.

One run:
    python3 perfbench/run.py --workload <lan_voice|wan_churn|bulk_lossy_rt> \\
        --seed <n> --seconds <s> --trace <0|1>

The last line of standard output is the result: one JSON object with
`correct`, `attempted`, `failed` and `metrics`.

Repeat mode runs one workload several times, each in a fresh process with
the next seed, and prints each metric's median and quartiles:
    python3 perfbench/run.py --repeat 10 --workload wan_churn --seconds 30

The benchmark is built from source with cargo on first use, into
$CARGO_TARGET_DIR when it is set and perfbench/target otherwise.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")
# A run measures for --seconds and then finishes its last round; anything
# far beyond that is a hang.
GRACE_S = 120


def build():
    """Build the release binary; return its path, or None on failure."""
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        print(f"run.py: cannot run cargo: {e}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return None
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    exe = os.path.join(os.path.abspath(target), "release", "dash-perfbench")
    return exe if os.path.isfile(exe) else None


def run_once(exe, workload, seed, seconds, trace):
    """Run one process; return (exit code, its stdout)."""
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=float(seconds) + GRACE_S)
    except subprocess.TimeoutExpired:
        print("run.py: run timed out", file=sys.stderr)
        return 1, ""
    return done.returncode, done.stdout


def result_of(stdout):
    """The JSON result on the last line of a run's output, or None."""
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    keys = {"correct", "attempted", "failed", "metrics"}
    return result if isinstance(result, dict) and set(result) == keys else None


def repeat(exe, args):
    """Run --repeat fresh processes and print each metric's spread."""
    values, units = {}, {}
    ok = True
    for i in range(args.repeat):
        seed = args.seed + i
        code, out = run_once(exe, args.workload, seed, args.seconds, args.trace)
        res = result_of(out)
        if code != 0 or res is None:
            print(f"run.py: seed {seed} produced no result", file=sys.stderr)
            return 1
        ok = ok and res["correct"]
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}", flush=True)
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
    print(f"{'metric':34s} {'unit':>6s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'iqr/med':>8s}")
    summary = {}
    for name, v in values.items():
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], v[0], v[0])
        spread = (q3 - q1) / med if med else 0.0
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                         "unit": units[name]}
        print(f"{name:34s} {units[name]:>6s} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.3f}")
    print(json.dumps({"workload": args.workload, "runs": args.repeat, "correct": ok,
                      "metrics": summary}))
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True,
                   choices=["lan_voice", "wan_churn", "bulk_lossy_rt"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--repeat", type=int, default=0,
                   help="run this many fresh processes with seeds seed, seed+1, ...")
    args = p.parse_args()

    exe = build()
    if exe is None:
        return 1
    if args.repeat > 0:
        return repeat(exe, args)
    code, out = run_once(exe, args.workload, args.seed, args.seconds, args.trace)
    res = result_of(out)
    if code != 0 or res is None:
        print("run.py: the benchmark produced no result", file=sys.stderr)
        return 1
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
