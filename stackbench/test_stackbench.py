#!/usr/bin/env python3
"""The stack benchmark's own checks. Run from the repository root:

    python3 stackbench/test_stackbench.py [-v] [TestClass.test_name ...]

- every checked layer has a seeded fault (fi::FaultPlan) that the workload
  exercising it catches: the run exits 1 and reports failed > 0;
- each workload's traced run reproduces its untraced round 0 (else the run
  fails), covers at least 90% of its wall with named spans, and two traced
  runs of one seed report bit-identical deterministic metrics;
- in a directory holding only BENCHMARK.json and stackbench/, the benchmark
  fails without printing a result.

The soak-pipelined cases take about a minute each.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ["python3", "stackbench/run.py"]

# One seeded fault per checked layer, on the workload that exercises it.
# The riscv layer's fault is shown on diff-fleet: the -O0 firmware never
# executes an arithmetic shift, and neither workload's code hits the fused
# addi/branch pattern of sim-fused-op-flag-clobber (the BlockDiff adequacy
# column owns that fault).
FAULTS = [
    ("soak-pipelined", "kami-btb-no-squash"),
    ("soak-isa-adversarial", "dev-lan-rx-length-off-by-one"),
    ("soak-isa-adversarial", "traffic-monitor-drop-event"),
    ("vc-corpus", "vc-solver-bad-model"),
    ("diff-fleet", "sim-sra-logical-shift"),
    ("diff-fleet", "compiler-regalloc-wrong-reg"),
    ("diff-fleet", "bc-brvz-inverted"),
]

# Per-layer metrics that are deterministic functions of the seed.
DETERMINISTIC = {
    "traffic.monitor_frontier_mean", "traffic.mmio_events_per_frame",
    "traffic.fifo_stall_chunks", "traffic.sim_frames_per_mcycle",
    "devices.accept_ratio", "kami.ipc", "kami.cycles_per_frame",
    "kami.actuation_cycles_p50", "kami.actuation_cycles_p90",
    "kami.raw_stalls_per_packet", "kami.mispredicts_per_packet",
    "kami.mmio_stalls_per_packet", "riscv.block.trace_ratio",
    "riscv.block.side_exits_per_minstr", "riscv.block.link_hit_ratio",
    "riscv.retired_per_frame", "compiler.code_bytes",
    "bedrock2.fuse_hit_ratio", "vc.cheap_tier_kill_ratio",
    "vc.cache_hit_ratio", "vc.solver_conflicts", "vc.solver_clauses",
}

WORKLOADS = [w["name"] for w in
             json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def bench(*args, cwd=ROOT):
    """Runs the benchmark; returns (exit code, parsed result or None)."""
    proc = subprocess.run(RUN + list(args), cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return proc.returncode, result


class FaultsAreCaught(unittest.TestCase):
    def test_each_fault(self):
        for workload, fault in FAULTS:
            with self.subTest(workload=workload, fault=fault):
                code, result = bench("--workload", workload, "--seed", "1",
                                     "--seconds", "1", "--trace", "0",
                                     "--fault", fault)
                self.assertEqual(code, 1)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)

    def test_clean_run_passes(self):
        code, result = bench("--workload", "diff-fleet", "--seed", "1",
                             "--seconds", "1", "--trace", "0")
        self.assertEqual(code, 0)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)


class TracedRuns(unittest.TestCase):
    def test_traced_reproduces_and_repeats(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                runs = []
                for _ in range(2):
                    code, result = bench("--workload", workload, "--seed",
                                         "7", "--seconds", "1", "--trace", "1")
                    self.assertEqual(code, 0)
                    self.assertTrue(result["correct"])
                    runs.append({k: v["value"]
                                 for k, v in result["metrics"].items()})
                self.assertGreaterEqual(runs[0]["trace.span_coverage"], 0.9)
                for name in sorted(DETERMINISTIC):
                    self.assertEqual(runs[0][name], runs[1][name], name)


class EmptyCheckout(unittest.TestCase):
    def test_fails_without_sources(self):
        empty = ROOT / ".bench_build" / "stackbench" / "empty-checkout"
        shutil.rmtree(empty, ignore_errors=True)
        empty.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", empty)
        shutil.copytree(ROOT / "stackbench", empty / "stackbench")
        code, result = bench("--workload", "diff-fleet", "--seed", "1",
                             "--seconds", "1", "--trace", "0", cwd=empty)
        shutil.rmtree(empty)
        self.assertNotEqual(code, 0)
        self.assertIsNone(result)


if __name__ == "__main__":
    sys.exit(unittest.main())
