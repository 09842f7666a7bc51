//===- traffic/Shrink.cpp - Counterexample minimization ----------------------==//
//
// Part of the b2stack project (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//

#include "traffic/Shrink.h"

#include "traffic/Checkpoint.h"

#include <algorithm>

using namespace b2;
using namespace b2::traffic;
using namespace b2::devices;

namespace {

/// The complement of chunk \p C when \p Frames is cut into \p N
/// near-equal contiguous chunks.
std::vector<ScheduledFrame> dropChunk(const std::vector<ScheduledFrame> &Frames,
                                      size_t N, size_t C) {
  std::vector<ScheduledFrame> Out;
  Out.reserve(Frames.size());
  const size_t Base = Frames.size() / N, Rem = Frames.size() % N;
  size_t Pos = 0;
  for (size_t I = 0; I != N; ++I) {
    size_t Len = Base + (I < Rem ? 1 : 0);
    if (I != C)
      Out.insert(Out.end(), Frames.begin() + Pos, Frames.begin() + Pos + Len);
    Pos += Len;
  }
  return Out;
}

} // namespace

ShrinkResult
b2::traffic::shrinkFrames(const std::vector<ScheduledFrame> &Failing,
                          const ShrinkOracle &Oracle) {
  ShrinkResult R;
  R.Frames = Failing;
  ++R.OracleRuns;
  R.Reproduced = Oracle(R.Frames);
  if (!R.Reproduced)
    return R;

  // Classic ddmin: try dropping each of N chunks; on success restart at
  // the coarsest granularity, otherwise refine N until chunks are single
  // frames and no single-frame removal still fails — 1-minimality.
  //
  // Chunks are probed trailing-first: dropping a late chunk yields a
  // candidate that is a long prefix of the current base, so successive
  // candidates share delivered prefixes. The result set is 1-minimal
  // either way; the order only decides how much of each oracle run the
  // checkpointed oracle can resume instead of re-simulate.
  size_t N = 2;
  while (R.Frames.size() >= 2) {
    N = std::min(N, R.Frames.size());
    bool Reduced = false;
    for (size_t I = N; I != 0; --I) {
      const size_t C = I - 1;
      std::vector<ScheduledFrame> Candidate = dropChunk(R.Frames, N, C);
      ++R.OracleRuns;
      if (Oracle(Candidate)) {
        R.Frames = std::move(Candidate);
        N = std::max<size_t>(2, N - 1);
        Reduced = true;
        break;
      }
    }
    if (Reduced)
      continue;
    if (N >= R.Frames.size())
      break; // Every single-frame removal passes: 1-minimal.
    N = std::min(R.Frames.size(), N * 2);
  }
  return R;
}

ShrinkOracle b2::traffic::soakOracle(const compiler::CompiledProgram &Prog,
                                     const SoakOptions &Options) {
  // One shard, no cross-check: the oracle answers only "does the run
  // still fail in a frame-attributable way" — a monitor violation, an
  // ISA-sim UB, or a ground-truth mismatch on a fully drained run. A
  // candidate that merely fails to drain within the cycle budget is NOT
  // failing (dropping frames cannot cause that; it would misdirect the
  // search).
  SoakOptions O = Options;
  O.CrossCheck = false;
  return [&Prog, O](const std::vector<ScheduledFrame> &Frames) {
    ShardStats S = runSoakShard(Prog, Frames, O);
    return !S.MonitorOk || S.HitUb || S.Diverged ||
           (S.Drained && !S.GroundTruthOk);
  };
}

ShrunkCounterexample
b2::traffic::shrinkSoakFailure(const compiler::CompiledProgram &Prog,
                               const std::vector<ScheduledFrame> &Failing,
                               const SoakOptions &Options) {
  ShrunkCounterexample Out;
  if (Options.Checkpoint) {
    // Prefix-reuse oracle: ddmin candidates share long delivered
    // prefixes, so each run resumes from the deepest checkpoint of the
    // shared prefix instead of re-simulating boot + prefix. Verdicts
    // are identical to the cold oracle's (same formula, bit-identical
    // resumed state). The prime replay hands the failing run's tree to
    // the shrinker; ddmin's own reproduce run then resumes from its
    // deepest node instead of simulating the scenario a second time.
    CheckpointedOracle Oracle(Prog, Options);
    Oracle.prime(Failing);
    Out.Result = shrinkFrames(
        Failing, [&Oracle](const std::vector<ScheduledFrame> &Frames) {
          return Oracle.failing(Frames);
        });
    const CheckpointedOracle::RunStats &S = Oracle.stats();
    Out.Work.Checkpointed = true;
    Out.Work.SimulatedCycles = S.SimulatedCycles;
    Out.Work.SkippedCycles = S.SkippedCycles;
    Out.Work.ResumedRuns = S.ResumedRuns;
    Out.Work.Checkpoints = S.Checkpoints;
    Out.Work.PrimeCycles = S.PrimeCycles;
  } else {
    // Cold replay, with the same verdict formula as soakOracle, plus
    // cycle accounting so callers can compare the two paths.
    SoakOptions O = Options;
    O.CrossCheck = false;
    uint64_t Cycles = 0;
    Out.Result = shrinkFrames(
        Failing, [&](const std::vector<ScheduledFrame> &Frames) {
          ShardStats S = runSoakShard(Prog, Frames, O);
          Cycles += S.Cycles;
          return !S.MonitorOk || S.HitUb || S.Diverged ||
                 (S.Drained && !S.GroundTruthOk);
        });
    Out.Work.SimulatedCycles = Cycles;
  }
  if (Out.Result.Reproduced) {
    SoakOptions O = Options;
    O.CrossCheck = false;
    ShardStats S = runSoakShard(Prog, Out.Result.Frames, O);
    Out.ViolationIndex = S.MonitorOk ? 0 : S.ViolationIndex;
  }
  return Out;
}
