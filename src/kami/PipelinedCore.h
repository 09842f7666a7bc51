//===- kami/PipelinedCore.h - 4-stage pipelined processor ------*- C++ -*-===//
//
// Part of the b2stack project (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Cycle-level model of the paper's Kami processor (Figure 4): a 4-stage
/// in-order pipeline IF -> ID -> EX -> WB with single-entry FIFO queues
/// between stages, the eagerly-filled instruction cache, the BTB branch
/// predictor the paper added, byte-enable memory accesses, and MMIO as
/// external method calls issued at write-back (retirement order, so the
/// externally visible label sequence is architectural).
///
/// Hazard handling follows the simple Kami design: register reads happen
/// in ID, guarded by a scoreboard that stalls on outstanding writes; there
/// is no forwarding network. Control flow is predicted in IF (BTB hit ->
/// predicted target, miss -> PC+4) and verified in EX; a misprediction
/// squashes the younger in-flight instruction and redirects fetch.
///
/// Like every Kami-level model, this core has no notion of undefined
/// behavior; see kami/SpecCore.h.
///
//===----------------------------------------------------------------------===//

#ifndef B2_KAMI_PIPELINEDCORE_H
#define B2_KAMI_PIPELINEDCORE_H

#include "kami/Bram.h"
#include "kami/Decode.h"
#include "kami/Labels.h"
#include "kami/MemSystem.h"
#include "riscv/Mmio.h"
#include "support/Snapshot.h"

#include <cstdint>
#include <optional>
#include <vector>

namespace b2 {
namespace kami {

/// Microarchitectural configuration, used by the Figure 4 ablation bench.
struct PipeConfig {
  /// Branch target buffer present (the paper's addition). Without it,
  /// fetch always predicts PC+4.
  bool UseBtb = true;
  /// log2 of the number of BTB entries.
  unsigned BtbIndexBits = 5;
  /// Extra cycles an external (MMIO) access occupies write-back, modeling
  /// the handshake with the external module.
  unsigned MmioLatency = 2;
  /// Words copied into the I$ per cycle during the reset fill; 0 means the
  /// fill is instantaneous (ablation switch).
  unsigned ICacheFillWordsPerCycle = 4;
  /// Result forwarding from the WB-stage latch into ID, removing most
  /// RAW stalls for ALU producers. Off by default — the paper's simple
  /// core has no forwarding network; this is the kind of intramodule
  /// optimization the refinement spec is supposed to absorb (section 2.1:
  /// "optimizations added ... could be verified against the same spec").
  bool EnableForwarding = false;
};

/// Microarchitectural event counters (Figure 4 / section 7.2.1 benches).
struct PipeStats {
  uint64_t Cycles = 0;
  uint64_t Retired = 0;
  uint64_t Mispredicts = 0;
  uint64_t RawStalls = 0;   ///< ID stalls due to scoreboard conflicts.
  uint64_t Forwards = 0;    ///< Operands satisfied by the forwarding path.
  uint64_t MmioStalls = 0;  ///< WB cycles spent waiting on external calls.
  uint64_t FillCycles = 0;  ///< Reset cycles spent filling the I$.
};

/// The pipelined RV32IM core.
class PipelinedCore {
public:
  PipelinedCore(Bram &Mem, riscv::MmioDevice &Device,
                const PipeConfig &Config = PipeConfig());

  /// Advances the design by one clock cycle.
  void tick();

  /// Runs until \p N total instructions have retired or \p MaxCycles
  /// cycles have elapsed. Returns true iff the retirement target was
  /// reached.
  bool runUntilRetired(uint64_t N, uint64_t MaxCycles);

  /// Runs exactly \p N cycles.
  void run(uint64_t N);

  // -- Architectural observation (for the `related` relation) --------------

  /// Committed register-file contents.
  Word getReg(unsigned R) const { return R == 0 ? 0 : Regs[R]; }

  /// PC of the next instruction to retire in program order.
  Word architecturalPc() const { return CommitPc; }

  /// The instruction snapshot, for checking the `related` invariant that
  /// the I$ agrees with memory on the executable addresses (section 5.8).
  const ICache &icache() const { return IMem; }

  uint64_t retired() const { return Stats.Retired; }
  uint64_t cycles() const { return Stats.Cycles; }
  const PipeStats &stats() const { return Stats; }
  const LabelTrace &labels() const { return Labels; }

  /// Publishes the stat deltas since the last publish to the global
  /// metrics registry (kami.pipe.*). Call at run/chunk boundaries; the
  /// cycle loop itself never touches the registry.
  void publishMetrics();

private:
  // -- Pipeline registers ----------------------------------------------------

  struct FetchOut {
    Word Pc = 0;
    Word PredictedNext = 0;
  };

  struct DecodeOut {
    Word Pc = 0;
    Word PredictedNext = 0;
    DecodedInst D;
    Word A = 0; ///< rs1 value read in ID.
    Word B = 0; ///< rs2 value read in ID.
  };

  struct ExecOut {
    Word Pc = 0;
    Word NextPc = 0;
    DecodedInst D;
    Word AluResult = 0; ///< ALU result or link value.
    Word MemAddr = 0;
    Word StoreData = 0;
  };

  struct BtbEntry {
    bool Valid = false;
    Word Pc = 0;
    Word Target = 0;
  };

  MemPort Port;
  ICache IMem;
  PipeConfig Config;
  PipeStats Stats;
  PipeStats Published; ///< publishMetrics() baseline.

  Word Regs[32] = {};
  Word FetchPc = 0;
  Word CommitPc = 0;
  std::optional<FetchOut> F2D;
  std::optional<DecodeOut> D2E;
  std::optional<ExecOut> E2W;
  uint8_t Pending[32] = {}; ///< Scoreboard: outstanding writes per register.
  std::vector<BtbEntry> Btb;
  unsigned MmioStallLeft = 0;
  uint64_t FillCyclesLeft = 0;
  LabelTrace Labels;
  support::ChainTracker<Label> LabelChain;

public:
  // -- Snapshot/restore ------------------------------------------------------

  /// Whole-core checkpoint: committed architectural state plus every
  /// piece of timing state — pipeline latches, scoreboard, BTB, MMIO
  /// and I$-fill stall counters — so a restored core replays the exact
  /// same cycle-level schedule. The label trace rides along as a delta
  /// chain; the BRAM is checkpointed by its owner.
  struct Snapshot {
    PipeStats Stats;
    Word Regs[32];
    Word FetchPc;
    Word CommitPc;
    std::optional<FetchOut> F2D;
    std::optional<DecodeOut> D2E;
    std::optional<ExecOut> E2W;
    uint8_t Pending[32];
    std::vector<BtbEntry> Btb;
    unsigned MmioStallLeft;
    uint64_t FillCyclesLeft;
    support::ChainTracker<Label>::Snap Labels;
  };

  Snapshot snapshot();
  /// Rewinds the stats with the rest of the core: deltas accumulated
  /// before the restore are published first, and the baseline moves to
  /// the restored stats, so later publications count only new cycles.
  void restore(const Snapshot &S);

private:
  void setReg(unsigned R, Word V) {
    if (R != 0)
      Regs[R] = V;
  }

  Word predictNext(Word Pc) const;
  void trainBtb(Word Pc, Word ActualNext);
  void stageWriteback();
  void stageExecute();
  void stageDecode();
  void stageFetch();
};

} // namespace kami
} // namespace b2

#endif // B2_KAMI_PIPELINEDCORE_H
