//===- tests/test_blockengine.cpp - Superblock trace engine tests ----------==//
//
// Part of the b2stack project (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
//
// The superblock engine is a second execution semantics for the RISC-V
// machine; these tests pin it to the reference stepper: identical
// architectural outcomes on hot loops, fused pairs, MMIO polling,
// self-modifying code, arbitrary step budgets, and snapshot/restore —
// plus the lockstep mode's ability to notice when the two tiers are
// *deliberately* driven apart by the seeded sim-block faults.
//
//===----------------------------------------------------------------------===//

#include "riscv/BlockEngine.h"
#include "riscv/Machine.h"
#include "riscv/Step.h"

#include "compiler/Compile.h"
#include "isa/Build.h"
#include "isa/Encoding.h"
#include "support/Metrics.h"
#include "support/Word.h"
#include "traffic/Scenario.h"
#include "traffic/Soak.h"
#include "verify/FaultInjection.h"

#include "RandomProgram.h"

#include <gtest/gtest.h>

#include <cassert>

using namespace b2;
using namespace b2::isa;
using namespace b2::riscv;

namespace {

Machine machineWith(const std::vector<Instr> &Program, Word Ram = 4096) {
  Machine M(Ram);
  M.loadImage(0, instrencode(Program));
  return M;
}

/// MMIO device for polling loops: returns 0 for the first \p ZeroLoads
/// word loads, then \p Ready forever. Stores are recorded by count.
class PollDevice final : public MmioDevice {
public:
  Word Base = 0x10000000;
  unsigned ZeroLoads = 100;
  Word Ready = 7;
  unsigned Loads = 0;
  unsigned Stores = 0;

  bool isMmio(Word Addr, unsigned) const override {
    return Addr >= Base && Addr < Base + 0x1000;
  }
  Word load(Word, unsigned) override {
    return Loads++ < ZeroLoads ? 0 : Ready;
  }
  void store(Word, unsigned, Word) override { ++Stores; }
};

void expectSameArchState(const Machine &A, const Machine &B) {
  EXPECT_EQ(A.getPc(), B.getPc());
  EXPECT_EQ(A.ubKind(), B.ubKind());
  EXPECT_EQ(A.ubDetail(), B.ubDetail());
  EXPECT_EQ(A.retiredInstructions(), B.retiredInstructions());
  for (unsigned R = 0; R != 32; ++R)
    EXPECT_EQ(A.getReg(R), B.getReg(R)) << "register x" << R;
  EXPECT_TRUE(A.trace() == B.trace()) << "MMIO traces differ";
  ASSERT_EQ(A.ramSize(), B.ramSize());
  for (Word Addr = 0; Addr != A.ramSize(); ++Addr)
    ASSERT_EQ(A.readByte(Addr), B.readByte(Addr)) << "RAM byte " << Addr;
}

/// i = 0; do { i++; } while (i != N); then spin. The loop block ends in
/// a bne back to its own head, so hot passes chain through its link.
std::vector<Instr> counterLoop(SWord N) {
  assert(support::fitsSigned(N, 12) && "trip count must fit addi's immediate");
  return {
      addi(A0, Zero, 0),
      addi(A1, Zero, N),
      addi(A0, A0, 1),             // pc 8: loop head.
      mkB(Opcode::Bne, A0, A1, -4),
      jal(Zero, 0),                // pc 16: halt spin.
  };
}

/// Copies 64 words from 0x400 to 0x600 with an lw/sw pair, then spins.
std::vector<Instr> copyLoop() {
  return {
      addi(A0, Zero, 0x400),
      addi(A1, Zero, 0x600),
      addi(A2, Zero, 64),
      lw(A3, A0, 0),               // pc 12: loop head.
      sw(A1, A3, 0),
      addi(A0, A0, 4),             // Fuses with the next addi.
      addi(A1, A1, 4),
      addi(A2, A2, -1),
      mkB(Opcode::Bne, A2, Zero, -20),
      jal(Zero, 0),                // pc 36: halt spin.
  };
}

/// i = 0; do { i++; j = i + 3; } while (i != N); then spin. The two
/// addis fuse into one FusedAddiAddi whose second half reads the first
/// half's destination.
std::vector<Instr> dependentAddiLoop(SWord N) {
  assert(support::fitsSigned(N, 12) && "trip count must fit addi's immediate");
  return {
      addi(A0, Zero, 0),
      addi(A1, Zero, N),
      addi(A0, A0, 1),             // pc 8: loop head.
      addi(A2, A0, 3),             // Reads the a0 just written.
      mkB(Opcode::Bne, A0, A1, -8),
      jal(Zero, 0),                // pc 20: halt spin.
  };
}

/// A decrementing store sweep that eventually overwrites its own loop
/// body: sw hits 0x200, 0x1FC, ... and finally the code itself, so the
/// run ends in FetchNotExecutable — stale-trace handling on the very
/// block that is executing.
std::vector<Instr> selfOverwritingSweep() {
  return {
      addi(A0, Zero, 0x200),
      sw(A0, Zero, 0),             // pc 4: loop head.
      addi(A1, Zero, 7),
      addi(A0, A0, -4),
      jal(Zero, -12),              // pc 16: back to pc 4.
  };
}

/// Runs \p Program on a fresh machine under \p Mode for \p Steps.
struct EngineRun {
  Machine M;
  BlockEngineStats Stats;
  uint64_t Divergences = 0;
  std::string Detail;
};

EngineRun runWith(const std::vector<Instr> &Program, ExecMode Mode,
                  uint64_t Steps, MmioDevice &Dev, Word Ram = 4096,
                  uint64_t Chunk = 0) {
  EngineRun R{machineWith(Program, Ram), {}, 0, {}};
  BlockEngine E(R.M, Dev, Mode);
  if (Chunk == 0)
    Chunk = Steps;
  for (uint64_t Done = 0; Done < Steps;) {
    uint64_t N = E.run(std::min(Chunk, Steps - Done));
    Done += N;
    if (N == 0)
      break;
  }
  R.Stats = E.stats();
  R.Divergences = E.divergences();
  R.Detail = E.divergenceDetail();
  return R;
}

/// Runs \p P in lockstep (97-step chunks) and demands no divergence and
/// the same final state as a plain reference run. Returns the lockstep
/// run.
EngineRun lockstepMatchingReference(const std::vector<Instr> &P,
                                    uint64_t Steps, MmioDevice &RefDev,
                                    MmioDevice &DiffDev) {
  EngineRun Ref = runWith(P, ExecMode::Reference, Steps, RefDev);
  EngineRun Diff = runWith(P, ExecMode::Differential, Steps, DiffDev, 4096,
                           /*Chunk=*/97);
  EXPECT_EQ(Diff.Divergences, 0u) << Diff.Detail;
  expectSameArchState(Diff.M, Ref.M);
  return Diff;
}

} // namespace

TEST(BlockEngine, HotCounterLoopMatchesReference) {
  NoDevice D1, D2;
  EngineRun Ref = runWith(counterLoop(400), ExecMode::Reference, 900, D1);
  EngineRun Blk = runWith(counterLoop(400), ExecMode::Block, 900, D2);
  EXPECT_FALSE(Blk.M.hasUb());
  expectSameArchState(Blk.M, Ref.M);
  // The loop must actually run hot, re-entering its block by direct link.
  EXPECT_GE(Blk.Stats.BlocksTranslated, 1u);
  EXPECT_GT(Blk.Stats.LinkHits, 0u);
  EXPECT_GT(Blk.Stats.TraceInstrs, Blk.Stats.ColdInstrs);
}

TEST(BlockEngine, CopyLoopMatchesReference) {
  NoDevice D1, D2;
  auto Seed = [](Machine &M) {
    for (Word I = 0; I != 64; ++I)
      M.writeRam(0x400 + 4 * I, 4, 0xBEEF0000 + I);
  };
  Machine Ref = machineWith(copyLoop());
  Machine Blk = machineWith(copyLoop());
  Seed(Ref);
  Seed(Blk);
  riscv::run(Ref, D1, 500);
  BlockEngine E(Blk, D2, ExecMode::Block);
  E.run(500);
  expectSameArchState(Blk, Ref);
  EXPECT_EQ(Blk.readRam(0x600 + 4 * 63, 4), 0xBEEF0000u + 63u);
  EXPECT_GT(E.stats().TraceInstrs, E.stats().ColdInstrs);
}

TEST(BlockEngine, MmioPollingLoopRunsInTrace) {
  std::vector<Instr> Poll = {
      lui(A0, SWord(0x10000000)),
      lw(A1, A0, 0),               // pc 4: loop head, MMIO load.
      mkB(Opcode::Beq, A1, Zero, -4),
      sw(A0, A1, 4),               // MMIO store of the ready value.
      jal(Zero, 0),
  };
  PollDevice D1, D2;
  EngineRun Ref = runWith(Poll, ExecMode::Reference, 250, D1);
  EngineRun Blk = runWith(Poll, ExecMode::Block, 250, D2);
  EXPECT_FALSE(Blk.M.hasUb());
  expectSameArchState(Blk.M, Ref.M);
  EXPECT_EQ(D2.Loads, D1.Loads);
  EXPECT_EQ(D2.Stores, 1u);
  // The guarded word-MMIO fast path must have handled polls in-trace.
  EXPECT_GT(Blk.Stats.MmioInline, 0u);
}

TEST(BlockEngine, BudgetExactnessAcrossChunkSizes) {
  // The engine's retirement schedule must be indistinguishable from
  // riscv::run for every budget — blocks may only be entered when they
  // fit, with the stepper finishing ragged chunk tails.
  for (uint64_t Budget : {1u, 2u, 7u, 16u, 17u, 63u, 100u, 333u, 500u}) {
    NoDevice D1, D2;
    EngineRun Ref = runWith(counterLoop(200), ExecMode::Reference, Budget, D1);
    EngineRun Blk = runWith(counterLoop(200), ExecMode::Block, Budget, D2);
    EXPECT_EQ(Blk.M.retiredInstructions(), Budget) << "budget " << Budget;
    expectSameArchState(Blk.M, Ref.M);
  }
  // Chunked delivery of the same total must also land bit-identically.
  NoDevice D3, D4;
  EngineRun Whole = runWith(counterLoop(200), ExecMode::Block, 450, D3);
  EngineRun Chunked =
      runWith(counterLoop(200), ExecMode::Block, 450, D4, 4096, 13);
  expectSameArchState(Chunked.M, Whole.M);
}

TEST(BlockEngine, HostPokeStraddlingWordBoundaryKillsBlocks) {
  // A host-level write straddling a word boundary must invalidate every
  // superblock covering *either* word. The poke rewrites the bne's low
  // half and the halt word's low half; XAddrs stays intact, so the
  // engine must refetch and see the same (invalid) bytes the stepper
  // sees — a stale trace would instead keep looping.
  NoDevice D1, D2;
  Machine Ref = machineWith(counterLoop(2000));
  Machine Blk = machineWith(counterLoop(2000));
  BlockEngine E(Blk, D2, ExecMode::Block);
  riscv::run(Ref, D1, 500);
  E.run(500); // Loop is hot and mid-flight (i < 2000).
  EXPECT_GE(E.stats().BlocksTranslated, 1u);
  Ref.writeRam(14, 4, 0xFFFFFFFF); // Straddles words at pc 12 and pc 16.
  Blk.writeRam(14, 4, 0xFFFFFFFF);
  riscv::run(Ref, D1, 500);
  E.run(500);
  EXPECT_EQ(Blk.ubKind(), UbKind::InvalidInstruction);
  expectSameArchState(Blk, Ref);
}

TEST(BlockEngine, XAddrsRemovalSpanKillsBlocks) {
  // Same shape through the ISA-visible path: a removal span over the
  // loop body must kill the covering superblock and surface the
  // FetchNotExecutable verdict, exactly like the stepper.
  NoDevice D1, D2;
  Machine Ref = machineWith(counterLoop(2000));
  Machine Blk = machineWith(counterLoop(2000));
  BlockEngine E(Blk, D2, ExecMode::Block);
  riscv::run(Ref, D1, 500);
  E.run(500);
  Ref.removeXAddrs(10, 4); // Straddles the loop-head and bne words.
  Blk.removeXAddrs(10, 4);
  riscv::run(Ref, D1, 500);
  E.run(500);
  EXPECT_EQ(Blk.ubKind(), UbKind::FetchNotExecutable);
  expectSameArchState(Blk, Ref);
}

TEST(BlockEngine, MidTraceInvalidationDuringLinkedExecution) {
  // The sweeping store eventually lands inside the very trace being
  // executed: the store must commit, the trace must stop before running
  // any stale tail op, and the stepper must deliver the final verdict.
  NoDevice D1, D2;
  EngineRun Ref = runWith(selfOverwritingSweep(), ExecMode::Reference,
                          100'000, D1);
  EngineRun Blk = runWith(selfOverwritingSweep(), ExecMode::Block,
                          100'000, D2);
  EXPECT_EQ(Blk.M.ubKind(), UbKind::FetchNotExecutable);
  expectSameArchState(Blk.M, Ref.M);
  EXPECT_GE(Blk.Stats.BlocksKilled, 1u);
}

TEST(BlockEngine, CallReturnChainsThroughJalrCache) {
  // call/return pairs: jal terminators link directly; the jalr return
  // goes through the monomorphic indirect-target cache.
  std::vector<Instr> P = {
      addi(A0, Zero, 0),
      addi(A1, Zero, 300),
      jal(RA, 12),                 // pc 8: call f (pc 20).
      mkB(Opcode::Bne, A0, A1, -4),
      jal(Zero, 0),                // pc 16: halt spin.
      addi(A0, A0, 1),             // pc 20: f.
      jalr(Zero, RA, 0),           // pc 24: return.
  };
  NoDevice D1, D2;
  EngineRun Ref = runWith(P, ExecMode::Reference, 1100, D1);
  EngineRun Blk = runWith(P, ExecMode::Block, 1100, D2);
  expectSameArchState(Blk.M, Ref.M);
  EXPECT_GE(Blk.Stats.BlocksTranslated, 2u);
  EXPECT_GT(Blk.Stats.TraceInstrs, 0u);
}

TEST(BlockEngine, SnapshotRestoreFlushesTranslationsAndStaysDeterministic) {
  // Restore must flush derived trace state and re-warm without changing
  // one architectural bit versus a straight-through run.
  NoDevice D1, D2;
  Machine Ref = machineWith(counterLoop(2000));
  Machine Blk = machineWith(counterLoop(2000));
  BlockEngine E(Blk, D2, ExecMode::Block);
  riscv::run(Ref, D1, 300);
  E.run(300);
  Machine::Snapshot S = Blk.snapshot();
  E.run(500); // Run ahead, then rewind.
  uint64_t FlushesBefore = E.stats().Flushes;
  Blk.restore(S);
  EXPECT_GT(E.stats().Flushes, FlushesBefore);
  E.run(300);
  riscv::run(Ref, D1, 300);
  expectSameArchState(Blk, Ref);
}

TEST(BlockEngine, DifferentialZeroDivergencesOnHandWrittenLoops) {
  struct Case {
    const char *Name;
    std::vector<Instr> Program;
    uint64_t Steps;
  };
  std::vector<Case> Cases = {
      {"counter", counterLoop(400), 900},
      {"copy", copyLoop(), 500},
      {"sweep", selfOverwritingSweep(), 100'000},
  };
  for (const Case &C : Cases) {
    NoDevice D;
    EngineRun R = runWith(C.Program, ExecMode::Differential, C.Steps, D,
                          4096, 97);
    EXPECT_EQ(R.Divergences, 0u) << C.Name << ": " << R.Detail;
    EXPECT_GE(R.Stats.BlocksTranslated, 1u) << C.Name;
  }
  PollDevice PD;
  std::vector<Instr> Poll = {
      lui(A0, SWord(0x10000000)),
      lw(A1, A0, 0),
      mkB(Opcode::Beq, A1, Zero, -4),
      jal(Zero, 0),
  };
  EngineRun R = runWith(Poll, ExecMode::Differential, 230, PD, 4096, 31);
  EXPECT_EQ(R.Divergences, 0u) << "poll: " << R.Detail;
}

TEST(BlockEngine, DifferentialZeroDivergencesOnRandomCompiledPrograms) {
  for (uint64_t Seed = 1; Seed <= 6; ++Seed) {
    b2::testing::RandomProgramGen Gen(Seed);
    bedrock2::Program P = Gen.generate();
    compiler::CompileResult C = compiler::compileProgram(
        P, compiler::CompilerOptions::o0(),
        compiler::Entry::singleCall("main", {Word(Seed * 17), Word(Seed)}),
        64 * 1024);
    ASSERT_TRUE(C.ok()) << "seed " << Seed << ": " << C.Error;

    auto RunMode = [&](ExecMode Mode) {
      EngineRun R{Machine(64 * 1024), {}, 0, {}};
      R.M.loadImage(0, C.Prog->image());
      NoDevice D;
      BlockEngine E(R.M, D, Mode);
      uint64_t Steps = 0;
      while (Steps < 2'000'000 && R.M.getPc() != C.Prog->HaltPc) {
        uint64_t N = E.run(10'000);
        Steps += N;
        if (N < 10'000)
          break;
      }
      R.Stats = E.stats();
      R.Divergences = E.divergences();
      R.Detail = E.divergenceDetail();
      return R;
    };
    EngineRun Ref = RunMode(ExecMode::Reference);
    EngineRun Blk = RunMode(ExecMode::Block);
    EngineRun Diff = RunMode(ExecMode::Differential);
    EXPECT_EQ(Blk.M.getPc(), C.Prog->HaltPc) << "seed " << Seed;
    expectSameArchState(Blk.M, Ref.M);
    expectSameArchState(Diff.M, Ref.M);
    EXPECT_EQ(Diff.Divergences, 0u) << "seed " << Seed << ": " << Diff.Detail;
  }
}

TEST(BlockEngine, DifferentialKillsFusedClobberFault) {
  // With the fused-op bug armed, the addi/addi pair commits in swapped
  // order, so its second half reads the stale counter while the
  // reference stepper does not — lockstep must notice.
  fi::FaultPlan Plan = fi::FaultPlan::single(fi::Fault::SimBlockFusedClobber);
  fi::FaultScope Scope(Plan);
  NoDevice D;
  EngineRun R =
      runWith(dependentAddiLoop(400), ExecMode::Differential, 900, D);
  EXPECT_GE(R.Divergences, 1u);
  EXPECT_FALSE(R.Detail.empty());
}

// -- Pair-fusion edge paths --------------------------------------------------
//
// Each kept pair fusion has a path where its two halves interact: a
// second half that reads the first's result, a second guard that misses
// after the first load retired or before either store commits, a first
// store that kills the trace it runs in. Every case runs in lockstep against the stepper and
// must also match a plain reference run, with the side exits it implies.

TEST(BlockEngine, FusedAddiAddiSecondReadsFirstDestination) {
  NoDevice D1, D2;
  // 902 steps: the prologue plus 300 whole passes.
  EngineRun R = lockstepMatchingReference(dependentAddiLoop(400), 902, D1, D2);
  EXPECT_EQ(R.M.getReg(A2), R.M.getReg(A0) + 3);
  EXPECT_GT(R.Stats.FusedRetired, 0u);
  EXPECT_EQ(R.Stats.SideExits, 0u);
}

TEST(BlockEngine, FusedLwLwSecondBaseIsFirstDestination) {
  // A cursor kept in memory: the first lw loads it, the second
  // dereferences it. Each pass stores its count one word ahead and
  // advances the cursor there, so an out-of-order pair would read the
  // slot of the pass before and lag one count further behind.
  std::vector<Instr> P = {
      addi(A0, Zero, 0x700),       // Cursor slot.
      addi(A5, Zero, 0x100),
      sw(A0, A5, 0),               // Cursor starts at 0x100.
      addi(A3, Zero, 0),
      addi(A4, Zero, 200),
      lw(A1, A0, 0),               // pc 20: loop head; a1 = cursor.
      lw(A2, A1, 0),               // Base is the a1 just loaded.
      addi(A5, A1, 4),
      sw(A5, A3, 0),               // Next slot = this pass's count.
      sw(A0, A5, 0),               // Advance the cursor.
      addi(A3, A3, 1),
      mkB(Opcode::Bne, A3, A4, -24),
      jal(Zero, 0),
  };
  NoDevice D1, D2;
  // 1013 steps: the prologue plus 144 whole passes. Pass k reads the
  // count pass k-1 stored, then bumps a3 to k+1.
  EngineRun R = lockstepMatchingReference(P, 1013, D1, D2);
  EXPECT_EQ(R.M.getReg(A2) + 2, R.M.getReg(A3));
  EXPECT_GT(R.Stats.FusedRetired, 0u);
  EXPECT_EQ(R.Stats.SideExits, 0u);
}

TEST(BlockEngine, FusedLwLwSecondGuardMissRetiresFirstHalf) {
  // The second lw polls MMIO, beyond the pair's RAM-only guard: every
  // hot pass retires the first lw in-trace and side-exits at the second.
  std::vector<Instr> P = {
      lui(A5, SWord(0x10000000)),
      addi(A0, Zero, 0x400),
      addi(A3, Zero, 0),
      addi(A4, Zero, 200),
      lw(A1, A0, 0),               // pc 16: loop head, RAM.
      lw(A2, A5, 0),               // MMIO: second guard misses.
      addi(A3, A3, 1),
      mkB(Opcode::Bne, A3, A4, -12),
      jal(Zero, 0),
  };
  PollDevice D1, D2;
  EngineRun R = lockstepMatchingReference(P, 700, D1, D2);
  EXPECT_EQ(D2.Loads, D1.Loads);
  EXPECT_GT(R.Stats.SideExitMemGuard, 0u);
  EXPECT_EQ(R.Stats.SideExits, R.Stats.SideExitMemGuard);
  // Exactly one first half retired per exit.
  EXPECT_EQ(R.Stats.FusedRetired, R.Stats.SideExitMemGuard);
}

TEST(BlockEngine, FusedSwSwSecondGuardMissCommitsNothing) {
  // The second sw targets MMIO: the pair side-exits before either store
  // commits, and the stepper replays both from the first.
  std::vector<Instr> P = {
      lui(A5, SWord(0x10000000)),
      addi(A0, Zero, 0x400),
      addi(A3, Zero, 0),
      addi(A4, Zero, 200),
      sw(A0, A3, 0),               // pc 16: loop head, RAM.
      sw(A5, A3, 0),               // MMIO: second guard misses.
      addi(A3, A3, 1),
      mkB(Opcode::Bne, A3, A4, -12),
      jal(Zero, 0),
  };
  PollDevice D1, D2;
  // 700 steps end inside the loop, so the halt spin never runs in-trace.
  EngineRun R = lockstepMatchingReference(P, 700, D1, D2);
  EXPECT_EQ(D2.Stores, D1.Stores);
  EXPECT_GT(R.Stats.SideExitMemGuard, 0u);
  EXPECT_EQ(R.Stats.SideExits, R.Stats.SideExitMemGuard);
  EXPECT_EQ(R.Stats.FusedRetired, 0u);
  EXPECT_EQ(R.Stats.TraceInstrs, 0u);
}

TEST(BlockEngine, FusedSwSwFirstStoreKillsExecutingTrace) {
  // The first sw sweeps down into the loop's own code. When it lands on
  // the bne, the pair has retired its first half, the trace is dead, and
  // the stepper runs the second sw, then faults fetching the bne.
  std::vector<Instr> P = {
      addi(A1, Zero, 0x200),       // Sweep cursor, counts down.
      addi(A2, Zero, 0x5A),
      addi(A0, Zero, 0x700),       // Fixed data slot.
      sw(A1, A2, 0),               // pc 12: loop head; sweeping store.
      sw(A0, A2, 0),
      addi(A1, A1, -4),
      mkB(Opcode::Bne, A1, Zero, -12), // pc 24: the store's victim.
  };
  NoDevice D1, D2;
  EngineRun R = lockstepMatchingReference(P, 100'000, D1, D2);
  EXPECT_EQ(R.M.ubKind(), UbKind::FetchNotExecutable);
  EXPECT_EQ(R.M.getPc(), 24u);
  EXPECT_EQ(R.Stats.SideExitKilled, 1u);
  EXPECT_EQ(R.Stats.SideExits, 1u);
}

TEST(BlockEngine, LightbulbShardRetiresFusedPairs) {
  // The kept pair fusions are kept because the firmware runs them; a
  // translation change that leaves them dead must show up here.
#if !B2_METRICS
  GTEST_SKIP() << "built with METRICS=OFF";
#endif
  static compiler::CompileResult Fw = traffic::compileSoakFirmware();
  ASSERT_TRUE(Fw.ok()) << Fw.Error;
  traffic::ScenarioOptions G;
  G.Frames = 8;
  traffic::TrafficStream S = traffic::generateScenario("valid-mix", G);
  traffic::SoakOptions O;
  O.Core = traffic::SoakCore::IsaSim;
  O.SimExec = ExecMode::Block;
  O.Checkpoint = false;
  const uint64_t Before =
      metrics::snapshot().counter(metrics::Id::SimBlockFusedRetired);
  traffic::ShardStats St = traffic::runSoakShard(*Fw.Prog, S.Frames, O);
  ASSERT_TRUE(St.Ok) << St.Error;
  EXPECT_GT(metrics::snapshot().counter(metrics::Id::SimBlockFusedRetired),
            Before);
}

TEST(BlockEngine, DifferentialKillsStaleSuperblockFault) {
  // With invalidation decoupled from the trace cache, the sweep keeps
  // executing its stale trace while the reference stepper faults on the
  // clobbered fetch.
  fi::FaultPlan Plan =
      fi::FaultPlan::single(fi::Fault::SimBlockStaleSuperblock);
  fi::FaultScope Scope(Plan);
  NoDevice D;
  EngineRun R = runWith(selfOverwritingSweep(), ExecMode::Differential,
                        100'000, D, 4096, 1000);
  EXPECT_GE(R.Divergences, 1u);
  EXPECT_FALSE(R.Detail.empty());
}

TEST(BlockEngine, DormantFaultHooksAreBitIdentical) {
  // No plan armed: the two new hook sites must not perturb anything —
  // the differential run is the strongest observer we have.
  NoDevice D;
  EngineRun R = runWith(selfOverwritingSweep(), ExecMode::Differential,
                        100'000, D, 4096, 777);
  EXPECT_EQ(R.Divergences, 0u) << R.Detail;
}
