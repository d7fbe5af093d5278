#!/usr/bin/env python3
"""Build and run the wall-clock benchmark (see README.md in this directory).

One run, from the root of a checkout:

    python3 wallbench/run.py --workload planted-200k --seed 1 --seconds 55 --trace 0

builds wallbench/ (which compiles ../src) into $CARGO_TARGET_DIR/wallbench
(default .bench_build/wallbench), runs the workload in its own process and
passes its report through; the last stdout line is the JSON result.

Steadiness mode repeats workloads, one seed per run, and prints the median
and quartiles of every end-to-end metric, flagging a spread (q3 - q1) / median
above the metric's bound in BENCHMARK.json, and, with --sets 2, a later set's
median worse than the first by more than the bound. Every set runs the same
seed list, so sets differ only by run-to-run noise; --fixed-seed repeats
--first-seed in every run, so the spread itself is run-to-run noise alone:

    python3 wallbench/run.py --steadiness [--workloads W ...] [--runs 10]
                             [--sets 1] [--first-seed 1] [--fixed-seed]
                             [--seconds N]
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["planted-200k", "rmat-18"]
# Never used while the benchmark was written or tuned; confirm a claimed gain
# on it after the fact. Steadiness mode skips it.
HELD_OUT_SEED = 4242
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(os.path.abspath(base), "wallbench")


def build():
    """Configures once, then lets the build tool decide what is stale."""
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    if not any(os.path.exists(os.path.join(out, f)) for f in ("build.ninja", "Makefile")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", out, "--target", "wallbench", "-j", jobs],
                   check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return os.path.join(out, "wallbench")


def run_once(binary, workload, seed, seconds, trace):
    """Runs one workload process; returns (exit code, stdout lines)."""
    runs = os.path.join(build_dir(), "runs")
    os.makedirs(runs, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--dir", runs]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"wallbench: {workload} seed {seed} exceeded {RUN_TIMEOUT_S} s")
        return 1, []
    return proc.returncode, out.splitlines()


def load_bounds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m for m in spec["end_to_end"]}, spec["run_seconds"]


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def steadiness(binary, args):
    bounds, run_seconds = load_bounds()
    seconds = args.seconds or run_seconds
    if args.fixed_seed:
        seeds = [args.first_seed] * args.runs
    else:
        seeds = [s for s in range(args.first_seed, args.first_seed + args.runs + 1)
                 if s != HELD_OUT_SEED][: args.runs]
    flagged = 0
    for workload in args.workloads or WORKLOADS:
        sets = []
        for k in range(args.sets):
            values = {name: [] for name in bounds}
            for seed in seeds:
                code, lines = run_once(binary, workload, seed, seconds, 0)
                try:
                    result = json.loads(lines[-1]) if code == 0 else None
                except (IndexError, ValueError):
                    result = None
                if result is None or not result["correct"] or result["failed"]:
                    log(f"{workload} seed {seed}: run failed or incorrect: "
                        f"{lines[-1] if lines else code}")
                    flagged += 1
                    continue
                for name in bounds:
                    values[name].append(result["metrics"][name]["value"])
                log(f"{workload} seed {seed}: " + " ".join(
                    f"{n}={values[n][-1]:.6g}" for n in bounds))
            sets.append(values)
        for k, values in enumerate(sets):
            print(f"{workload} set {k + 1} ({len(values['setup_s'])} runs)")
            for name, spec in bounds.items():
                if len(values[name]) < 2:
                    continue
                med, q1, q3, spread = summarize(values[name])
                flag = ""
                if spread > spec["bound"]:
                    flag = "  SPREAD ABOVE BOUND"
                    flagged += 1
                elif spread > spec["bound"] / 3:
                    flag = "  spread above bound/3"
                print(f"  {name:18s} median {med:12.6g} q1 {q1:12.6g} q3 {q3:12.6g} "
                      f"spread {spread:7.2%} bound {spec['bound']:.0%}{flag}")
        for k in range(1, len(sets)):
            for name, spec in bounds.items():
                if len(sets[0][name]) < 2 or len(sets[k][name]) < 2:
                    continue
                first = statistics.median(sets[0][name])
                later = statistics.median(sets[k][name])
                worse = (later - first) / first
                if spec["better"] == "higher":
                    worse = -worse
                if worse > spec["bound"]:
                    flagged += 1
                    print(f"  {name}: set {k + 1} median {later:.6g} worse than set 1 "
                          f"{first:.6g} by {worse:.2%} > bound {spec['bound']:.0%}")
    print(f"steadiness: {flagged} flag(s)")
    return 1 if flagged else 0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--steadiness", action="store_true")
    p.add_argument("--workloads", nargs="+", choices=WORKLOADS)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--sets", type=int, default=1)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--fixed-seed", action="store_true")
    args = p.parse_args()
    if not args.steadiness and (args.workload is None or args.seed is None
                                or args.seconds is None):
        p.error("--workload, --seed and --seconds are required")

    try:
        binary = build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as e:
        log(f"wallbench: build failed: {e}")
        return 1
    if args.steadiness:
        return steadiness(binary, args)
    code, lines = run_once(binary, args.workload, args.seed, args.seconds, args.trace)
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
