#!/usr/bin/env python3
"""Build and run the stack benchmark (see stackbench/README.md).

    python3 stackbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 stackbench/run.py --workload all --seed N --seconds S [--fault F]

Run from the root of a source checkout. The first run configures and builds
the repository's libraries plus the benchmark binary under
.bench_build/stackbench (later runs only re-check the build). The binary's
output is passed through; its last stdout line is the result JSON, and its
exit code is returned. `--workload all` runs every workload of
BENCHMARK.json in turn and exits non-zero if any of them failed a check.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "stackbench"
BINARY = BUILD_DIR / "stackbench"


def fail(msg):
    print(f"stackbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no repository sources at {ROOT / 'src'}; "
             "run from a full checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR)])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))


def run_one(args, workload):
    cmd = [str(BINARY), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.fault:
        cmd += ["--fault", args.fault]
    if args.trace:
        spans = BUILD_DIR / "spans" / f"{workload}-seed{args.seed}.json"
        spans.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans", str(spans)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode, proc.stdout.strip().splitlines()


def check_metric_names(spec, lines, trace):
    """The binary must report exactly the metrics BENCHMARK.json declares."""
    result = json.loads(lines[-1])
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        fail(f"reported metrics {sorted(got.items())} do not match "
             f"BENCHMARK.json {sorted(want.items())}")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--fault", help="arm one seeded fault (fi::FaultPlan) "
                   "for the whole run")
    args = p.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        fail(f"unknown workload '{args.workload}'; valid: {', '.join(names)}")
    build()

    status = 0
    for workload in names if args.workload == "all" else [args.workload]:
        if args.workload == "all":
            print(f"== {workload}", flush=True)
        code, lines = run_one(args, workload)
        if code in (0, 1) and lines:
            check_metric_names(spec, lines, args.trace)
        elif code == 0:
            fail(f"{workload}: the benchmark binary printed no result")
        if code and not status:
            status = code if code > 0 else 1  # < 0: killed by a signal.
    sys.exit(status)


if __name__ == "__main__":
    main()
