//===- traffic/Shrink.h - Counterexample minimization ----------*- C++ -*-===//
//
// Part of the b2stack project (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Delta-debugging (ddmin) over frame sequences: given a frame stream
/// that drives the system into a goodHlTrace violation, find a
/// 1-minimal subsequence that still does — removing any single frame
/// from the result makes the failure disappear. Soak failures surface
/// at scale (thousands of frames into a shard); the shrunk sequence is
/// what a human can actually debug, and it is written out as a
/// replayable pcap corpus file (traffic/Pcap.h) so the reproduction is
/// one CLI invocation.
///
/// The oracle is any deterministic predicate over a frame sequence; the
/// soak harness instantiates it with a single-shard run (runSoakShard)
/// under the same options that produced the failure — determinism of
/// the shards is exactly what makes the oracle's verdicts stable across
/// the shrink search.
///
//===----------------------------------------------------------------------===//

#ifndef B2_TRAFFIC_SHRINK_H
#define B2_TRAFFIC_SHRINK_H

#include "traffic/Soak.h"

#include <cstdint>
#include <functional>
#include <vector>

namespace b2 {
namespace traffic {

/// Returns true iff \p Frames still triggers the failure being shrunk.
using ShrinkOracle =
    std::function<bool(const std::vector<devices::ScheduledFrame> &)>;

struct ShrinkResult {
  /// The minimized failing sequence (1-minimal with respect to frame
  /// removal).
  std::vector<devices::ScheduledFrame> Frames;
  uint64_t OracleRuns = 0; ///< How many times the oracle executed.
  /// Whether the input failed under the oracle at all; when false,
  /// Frames echoes the input unchanged.
  bool Reproduced = false;
};

/// Zeller/Hildebrandt ddmin over \p Failing. The oracle must return
/// true on \p Failing itself (checked; Reproduced reports the outcome).
ShrinkResult shrinkFrames(const std::vector<devices::ScheduledFrame> &Failing,
                          const ShrinkOracle &Oracle);

/// The soak-harness oracle: replays a candidate sequence through one
/// fresh shard under \p Options and reports whether the streaming
/// monitor fires. \p Prog must be the firmware the failing soak ran.
ShrinkOracle soakOracle(const compiler::CompiledProgram &Prog,
                        const SoakOptions &Options);

/// Convenience driver: shrinks \p Failing against the soak oracle and
/// fills in the violation index of the minimized run.
///
/// When \p Options.Checkpoint is set, the oracle is the checkpoint-tree
/// oracle: the failing scenario is replayed once to hand the tree over
/// (Work.PrimeCycles), and every ddmin probe then resumes from the
/// deepest checkpoint of its shared prefix. Work.SimulatedCycles counts only the probe phase — the
/// quantity a cold-replay shrinker pays in full — so it is the number
/// to compare against a cold run's oracle cycles.
struct ShrunkCounterexample {
  ShrinkResult Result;
  uint64_t ViolationIndex = 0; ///< Of the minimized run's monitor.

  /// Oracle work, both paths. Cold runs leave the checkpoint-only
  /// fields (Skipped/Resumed/Checkpoints/Prime*) zero.
  struct ShrinkWork {
    bool Checkpointed = false;    ///< Which oracle ran.
    uint64_t SimulatedCycles = 0; ///< Cycles the shrink phase executed.
    uint64_t SkippedCycles = 0;   ///< Cycles resumed from checkpoints.
    uint64_t ResumedRuns = 0;     ///< Probes resumed past boot.
    uint64_t Checkpoints = 0;     ///< Tree nodes created.
    uint64_t PrimeCycles = 0;     ///< Handoff replay (tree build).
  };
  ShrinkWork Work;
};
ShrunkCounterexample
shrinkSoakFailure(const compiler::CompiledProgram &Prog,
                  const std::vector<devices::ScheduledFrame> &Failing,
                  const SoakOptions &Options);

} // namespace traffic
} // namespace b2

#endif // B2_TRAFFIC_SHRINK_H
