#!/usr/bin/env python3
"""Campaign benchmark for pathfuzz.

Builds the pathfuzz libraries, the pathfuzz-serve daemon and the benchmark
binary from the enclosing source tree into .bench_build/, then runs one
workload and prints its result as the last line of standard output:

    python3 campaignbench/run.py --workload paper_mix --seed 1 \
        --seconds 20 --trace 0

Workloads: paper_mix, loop_examples (workloads.json has their recipes and
the layer predictions). --trace 0 prints the end-to-end metrics of
BENCHMARK.json; --trace 1 is a separate traced run that prints the
per-layer metrics, including those of a pathfuzz-serve daemon serving the
workload's cells, and leaves its spans in
.bench_build/spans-<workload>.jsonl.

    python3 campaignbench/run.py --smoke

is the seeded self-check: every workload, traced and untraced, at the
default seed for a few seconds, asserting that every metric of
BENCHMARK.json is printed with its unit, that every result matched the
reference interpreter, and that no campaign failed (fail_ratio 0).

Run it from the repository root or anywhere else; it works on the tree it
sits in. PATHFUZZ_* variables are removed from the environment so the
program runs its default engines.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = ".bench_build"
WORKLOADS = ("paper_mix", "loop_examples")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def clean_env():
    return {k: v for k, v in os.environ.items() if not k.startswith("PATHFUZZ_")}


def build():
    """Configure once, then build the two targets; False on failure."""
    for needed in ("src/CMakeLists.txt", "tools/PathfuzzServe.cpp",
                   "examples/minilang"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            log(f"campaignbench: {needed} is missing; the benchmark builds "
                "pathfuzz from the source tree around it")
            return False
    steps = []
    if not os.path.exists(os.path.join(ROOT, BUILD, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", "campaignbench", "-B", BUILD, *gen,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1),
                  "--target", "campaign_bench", "pathfuzz-serve"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, cwd=ROOT, env=clean_env(),
                                  stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"campaignbench: build step failed: {e}")
            return False
        if done.returncode != 0:
            log(f"campaignbench: build step failed: {' '.join(cmd)}")
            return False
    return True


def run_workload(workload, seed, seconds, trace):
    """Run the benchmark binary; returns (exit code, last stdout line)."""
    run_dir = os.path.join(BUILD, f"run-{workload}-{os.getpid()}")
    shutil.rmtree(os.path.join(ROOT, run_dir), ignore_errors=True)
    os.makedirs(os.path.join(ROOT, run_dir))
    cmd = [os.path.join(BUILD, "campaign_bench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0",
           "--serve-bin", os.path.join(BUILD, "pathfuzz", "tools",
                                       "pathfuzz-serve"),
           "--run-dir", run_dir]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=clean_env(),
                              stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"campaignbench: {workload} exceeded {RUN_TIMEOUT_S} s")
        return 1, None
    finally:
        spans = os.path.join(ROOT, run_dir, "spans.jsonl")
        if os.path.exists(spans):
            os.replace(spans, os.path.join(ROOT, BUILD,
                                           f"spans-{workload}.jsonl"))
        shutil.rmtree(os.path.join(ROOT, run_dir), ignore_errors=True)
    lines = done.stdout.strip().splitlines()
    return done.returncode, lines[-1] if lines else None


def smoke():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "workloads.json")) as f:
        seed = json.load(f)["default_seed"]
    ok = True
    for workload in WORKLOADS:
        for trace, wanted in ((False, spec["end_to_end"]),
                              (True, spec["per_layer"])):
            code, line = run_workload(workload, seed, 3, trace)
            label = f"{workload} trace={int(trace)}"
            if code != 0 or line is None:
                log(f"smoke: {label}: campaign_bench exited {code}")
                ok = False
                continue
            result = json.loads(line)
            problems = []
            for m in wanted:
                got = result["metrics"].get(m["name"])
                if got is None:
                    problems.append(f"{m['name']} missing")
                elif got["unit"] != m["unit"]:
                    problems.append(f"{m['name']} unit {got['unit']}")
            if not result["correct"]:
                problems.append("identity check failed")
            fail_ratio = result["failed"] / max(1, result["attempted"])
            if fail_ratio != 0:
                problems.append(f"fail_ratio {fail_ratio}")
            ok &= not problems
            log(f"smoke: {label}: {result['attempted']} campaigns, "
                f"fail_ratio {fail_ratio}, "
                + ("; ".join(problems) if problems else "ok"))
    print("smoke: " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if not args.smoke and not args.workload:
        ap.error("--workload or --smoke is required")
    if not build():
        return 2
    if args.smoke:
        return smoke()
    code, line = run_workload(args.workload, args.seed, args.seconds,
                              args.trace == 1)
    if line is not None:
        print(line, flush=True)
    return code if line is not None else 1


if __name__ == "__main__":
    sys.exit(main())
