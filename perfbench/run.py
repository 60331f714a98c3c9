#!/usr/bin/env python3
"""Builds and runs the repository's end-to-end benchmark.

One workload, one process, one result line (the last line of stdout):

    python3 perfbench/run.py --workload plan_paper --seed 1 --seconds 20 --trace 0

Every workload once, each in its own process:

    python3 perfbench/run.py --workload all --seed 1

Steadiness report: K seeds (seed, seed+1, ...) per workload, optionally
in S sets, with each end-to-end metric's median, quartiles and spread
against the bound BENCHMARK.json gives it, and the same for the raw
wall-clock latencies the runs report in `info`:

    python3 perfbench/run.py --workload plan_paper --repeat 10 --sets 2

Run from the repository root. The benchmark builds libanr and the
`perfbench` executable from source into $CARGO_TARGET_DIR (default
.bench_build) with CMake before it runs anything.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 175
DETERMINISTIC = ("stable_link_ratio", "distance_per_robot_m",
                 "connectivity_ratio")
# Wall-clock latencies a run reports in its info object, beside the
# ref-unit metrics.
RAW_LATENCIES = ("latency_p50_s", "latency_p90_s", "latency_mean_s")


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, path)


def build():
    """Configures and builds the perfbench executable; returns its path."""
    out = build_dir()
    cmd = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", out,
           "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(out, "CMakeCache.txt")):
        cmd += ["-G", "Ninja"]
    subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out, "--target", "perfbench",
                    "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr)
    return os.path.join(out, "perfbench")


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return sha.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha1()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources-sha1:" + digest.hexdigest()


def run_one(binary, source, workload, seed, seconds, trace):
    """Runs one workload process; returns (exit code, stdout lines)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--source", source]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} seed {seed} timed out")
        return 1, []
    return done.returncode, done.stdout.splitlines()


def parse_result(lines):
    """The result object and the info object of one run's output."""
    result = json.loads(lines[-1])
    info = {}
    for line in lines:
        if line.startswith("info "):
            info = json.loads(line[len("info "):])
    return result, info


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else 0.0


def steadiness(bench, binary, source, workloads, args):
    """Repeats each workload over K seeds in S sets and reports spreads."""
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    ok = True
    for workload in workloads:
        sets = []
        for s in range(args.sets):
            runs = []
            for k in range(args.repeat):
                seed = args.seed + k
                code, lines = run_one(binary, source, workload, seed,
                                      args.seconds, 0)
                if code != 0 or not lines:
                    log(f"{workload} seed {seed}: exit {code}, no result")
                    return False
                result, info = parse_result(lines)
                if not result["correct"] or result["failed"]:
                    log(f"{workload} seed {seed}: correct="
                        f"{result['correct']}, failed={result['failed']}")
                    ok = False
                runs.append((seed, result, info))
                log(f"{workload} set {s + 1} seed {seed}: " + ", ".join(
                    f"{n}={v['value']:.6g}"
                    for n, v in result["metrics"].items()))
            sets.append(runs)
        print(f"== {workload}: {args.repeat} seeds x {args.sets} sets, "
              f"{args.seconds} s each")
        print(f"{'metric':24} {'set':>3} {'median':>12} {'q1':>12} "
              f"{'q3':>12} {'spread':>8} {'bound':>6}  verdict")
        for name, spec in bounds.items():
            medians = []
            for s, runs in enumerate(sets):
                values = [r["metrics"][name]["value"] for _, r, _ in runs]
                q1, q2, q3, sp = spread(values)
                medians.append(q2)
                steady = name == "setup_s" or sp <= spec["bound"] / 3
                verdict = "steady" if steady else "NOISY"
                print(f"{name:24} {s + 1:>3} {q2:>12.6g} {q1:>12.6g} "
                      f"{q3:>12.6g} {sp:>8.4f} {spec['bound']:>6}  {verdict}")
            if len(medians) == 2 and medians[0]:
                change = (medians[1] - medians[0]) / medians[0]
                worse = change if spec["better"] == "lower" else -change
                verdict = "ok" if worse <= spec["bound"] else "MOVED"
                ok = ok and verdict == "ok"
                print(f"{name:24} set 2 vs set 1: {change:+.4f}  {verdict}")
        for name in RAW_LATENCIES:  # ungated, for comparison
            for s, runs in enumerate(sets):
                values = [i[name] for _, _, i in runs if name in i]
                if len(values) < 2:
                    continue
                q1, q2, q3, sp = spread(values)
                print(f"{'info.' + name:24} {s + 1:>3} {q2:>12.6g} {q1:>12.6g} "
                      f"{q3:>12.6g} {sp:>8.4f}      -  raw")
        if len(sets) == 2:
            for (seed, r1, i1), (_, r2, i2) in zip(sets[0], sets[1]):
                same = all(r1["metrics"][n]["value"] == r2["metrics"][n]["value"]
                           for n in DETERMINISTIC)
                same = same and i1.get("plan_digest") == i2.get("plan_digest")
                ok = ok and same
                print(f"seed {seed}: L, D, C and plan_digest "
                      f"{'repeat exactly' if same else 'DIFFER'}")
    return ok


def main():
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="steadiness report over this many seeds")
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    args = parser.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"perfbench: build failed: {e}")
        return 1
    source = source_id()
    workloads = names if args.workload == "all" else [args.workload]

    if args.repeat > 0:
        ok = steadiness(bench, binary, source, workloads, args)
        print("every run correct and repeatable" if ok else "FAILED")
        return 0 if ok else 1

    status = 0
    for workload in workloads:
        code, lines = run_one(binary, source, workload, args.seed,
                              args.seconds, args.trace)
        for line in lines:
            print(line, flush=True)
        if code != 0:
            status = code
    return status


if __name__ == "__main__":
    sys.exit(main())
