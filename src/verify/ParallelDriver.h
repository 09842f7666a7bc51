//===- verify/ParallelDriver.h - Sharded verification fleet ----*- C++ -*-===//
//
// Part of the b2stack project (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Parallel driver for the verification suites. The paper's §7.2.2
/// measures "the cost of checking the system"; this driver attacks that
/// cost by sharding *independent* work units — EndToEnd fuzz scenarios,
/// CompilerDiff corpus programs, Lockstep stimulus seeds — across
/// hardware threads.
///
/// Determinism contract: every shard is a pure function of its (index,
/// seed) pair — it builds its own machine, device, and RNG from the seed
/// and shares nothing mutable. Results are aggregated by shard index, so
/// a fleet report is **bit-identical for every thread count**, and any
/// failing shard reproduces single-threaded by rerunning just its seed.
///
//===----------------------------------------------------------------------===//

#ifndef B2_VERIFY_PARALLELDRIVER_H
#define B2_VERIFY_PARALLELDRIVER_H

#include "verify/CompilerDiff.h"
#include "verify/EndToEnd.h"
#include "verify/Lockstep.h"

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace b2 {
namespace verify {

/// Outcome of one work unit. Everything that constitutes the "verdict"
/// lives here, so comparing two reports shard-by-shard is the
/// parallel-equals-sequential check.
struct ShardResult {
  size_t Index = 0;
  uint64_t Seed = 0;
  bool Ok = false;
  std::string Error;
  uint64_t Retired = 0;   ///< Instructions retired by the shard's run(s).
  uint64_t Cycles = 0;    ///< Cycles consumed (0 for suites without one).
  uint64_t TraceHash = 0; ///< traffic::soakTraceHash of the observed trace.

  friend bool operator==(const ShardResult &A, const ShardResult &B) {
    return A.Index == B.Index && A.Seed == B.Seed && A.Ok == B.Ok &&
           A.Error == B.Error && A.Retired == B.Retired &&
           A.Cycles == B.Cycles && A.TraceHash == B.TraceHash;
  }
};

/// Aggregated fleet outcome, ordered by shard index.
struct FleetReport {
  unsigned Threads = 1;
  std::vector<ShardResult> Shards;

  bool allOk() const {
    for (const ShardResult &S : Shards)
      if (!S.Ok)
        return false;
    return true;
  }

  size_t failures() const {
    size_t N = 0;
    for (const ShardResult &S : Shards)
      N += S.Ok ? 0 : 1;
    return N;
  }

  std::string firstError() const {
    for (const ShardResult &S : Shards)
      if (!S.Ok)
        return "shard " + std::to_string(S.Index) + " (seed " +
               std::to_string(S.Seed) + "): " + S.Error;
    return "";
  }

  /// True iff every shard verdict is bit-identical (thread count is a
  /// schedule parameter, not a verdict, and is ignored).
  bool sameVerdicts(const FleetReport &Other) const {
    return Shards == Other.Shards;
  }
};

/// One work unit: must depend only on (Index, Seed).
using ShardWork = std::function<ShardResult(size_t Index, uint64_t Seed)>;

/// Derives \p N per-shard seeds from \p BaseSeed (splitmix-style, so
/// neighboring shards get decorrelated streams).
std::vector<uint64_t> fleetSeeds(uint64_t BaseSeed, size_t N);

/// Runs one shard per seed on up to \p Threads workers and aggregates by
/// index. Threads <= 1 is the sequential reference path.
FleetReport runShards(const std::vector<uint64_t> &Seeds, unsigned Threads,
                      const ShardWork &Work);

/// EndToEnd fuzz suite: shard i runs fuzzScenario(Seeds[i],
/// \p FramesPerScenario) against \p Prog under \p Options.
FleetReport endToEndFuzzFleet(const compiler::CompiledProgram &Prog,
                              const E2EOptions &Options,
                              const std::vector<uint64_t> &Seeds,
                              unsigned FramesPerScenario, unsigned Threads);

/// CompilerDiff corpus suite: shard i diffs the program built by
/// \p ProgramForSeed(Seeds[i]) (entry \p Fn with \p Args) through source
/// semantics and compiled machine code.
FleetReport
compilerDiffFleet(const std::function<bedrock2::Program(uint64_t)> &ProgramForSeed,
                  const std::string &Fn, const std::vector<Word> &Args,
                  const DiffOptions &Options,
                  const std::vector<uint64_t> &Seeds, unsigned Threads);

/// Lockstep stimulus suite: shard i co-simulates the image built by
/// \p ImageForSeed(Seeds[i]) on the pipelined core vs. the ISA simulator.
FleetReport
lockstepFleet(const std::function<std::vector<uint8_t>(uint64_t)> &ImageForSeed,
              DeviceFactory MakeDevice, const LockstepOptions &Options,
              const std::vector<uint64_t> &Seeds, unsigned Threads);

} // namespace verify
} // namespace b2

#endif // B2_VERIFY_PARALLELDRIVER_H
