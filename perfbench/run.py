#!/usr/bin/env python3
"""The pscd benchmark: builds pscd_perfbench from this checkout's sources
and runs a workload in a fresh process.

    python3 perfbench/run.py --workload serve-mixed|sim-news|match-churn|all \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout. The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), configured
as a Release build; the first run builds, later runs only relink what
changed. The traced run (--trace 1) writes its spans to
<build>/spans/<workload>.spans.

Stdout carries one "metric" line per measurement, the build stamp, and
as its last line a JSON object {"correct", "attempted", "failed",
"metrics"}; with --workload all, each workload runs in its own process
in turn and the last line maps each workload to that object. With
--trace 0 "metrics" holds every end_to_end metric of BENCHMARK.json,
with --trace 1 every per_layer metric; a per-layer
metric whose layer the workload never calls is reported as 0 and marked
n/a. Exit status: 0 when every correctness check passed, 1 when one
failed (the result line says "correct": false), 2 when the benchmark
could not run (no sources, build failure, crash); then no result line is
printed. README.md in this directory describes the workloads and
metrics.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve-mixed", "sim-news", "match-churn")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def run_step(cmd, timeout):
    """Runs a build step; on failure shows its output and exits 2."""
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(cmd)}")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        fail(f"failed ({proc.returncode}): {' '.join(cmd)}")


def build():
    """Configures (once) and builds pscd_perfbench; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"pscd sources not found under {ROOT}/src")
    bdir = build_dir()
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        run_step(["cmake", "-S", HERE, "-B", bdir,
                  "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    jobs = str(max(1, min(2, os.cpu_count() or 1)))
    run_step(["cmake", "--build", bdir, "--target", "pscd_perfbench",
              "-j", jobs], BUILD_TIMEOUT_S)
    return os.path.join(bdir, "pscd_perfbench")


def source_digest():
    """sha256 over the files the benchmark builds from (src/ and this
    directory), so a result can be tied to the code even outside git."""
    digest = hashlib.sha256()
    for top in ("src", os.path.basename(HERE)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(".pyc"):
                    continue
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "none"


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def run_workload(exe, workload, args):
    """Runs one workload in a fresh process. Prints its metric lines and
    returns (exit status, result object for the JSON line)."""
    spans_dir = os.path.join(build_dir(), "spans")
    os.makedirs(spans_dir, exist_ok=True)
    cmd = [exe, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--spans", os.path.join(spans_dir, f"{workload}.spans")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.stdout.write(proc.stdout)
        fail(f"{workload} exited with {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{workload} printed no result line")

    measured = result["metrics"]
    metrics = {}
    notes = []
    for spec in declared_metrics(args.trace):
        name, unit = spec["name"], spec["unit"]
        if name in measured:
            if measured[name]["unit"] != unit:
                fail(f"{name}: unit {measured[name]['unit']}, "
                     f"BENCHMARK.json says {unit}")
            metrics[name] = measured[name]
        elif args.trace:
            metrics[name] = {"value": 0.0, "unit": unit}
            notes.append(f"metric {name:<28} n/a on {workload} "
                         f"(reported as 0)")
        else:
            fail(f"{workload} did not report {name}")

    for line in lines[:-1]:
        if line.startswith("stamp "):
            line += f" src_sha256={source_digest()} git={git_sha()}"
        print(line)
    for line in notes:
        print(line)
    return proc.returncode, {
        "correct": bool(result["correct"]) and proc.returncode == 0,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    exe = build()
    if args.workload != "all":
        status, result = run_workload(exe, args.workload, args)
        print(json.dumps(result))
        return status
    # Every workload, each in its own process; the last line maps each
    # workload to its result.
    results = {}
    worst = 0
    for workload in WORKLOADS:
        print(f"== {workload}")
        status, results[workload] = run_workload(exe, workload, args)
        worst = max(worst, status)
    print(json.dumps(results))
    return worst


if __name__ == "__main__":
    sys.exit(main())
