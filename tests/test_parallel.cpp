//===- tests/test_parallel.cpp - Parallel verification fleet tests ------------==//
//
// Part of the b2stack project (PLDI 2021 reproduction).
//
// The parallel driver's contract is that thread count is a *schedule*
// parameter, never a *verdict* parameter: for fixed seeds, the aggregated
// fleet report is bit-identical whether the shards run sequentially or on
// N workers — including when shards fail.
//
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"
#include "verify/ParallelDriver.h"

#include "app/Firmware.h"
#include "compiler/Compile.h"
#include "devices/Platform.h"
#include "isa/Build.h"
#include "isa/Encoding.h"
#include "traffic/Checkpoint.h"

#include "RandomProgram.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>

using namespace b2;
using namespace b2::verify;

// -- ThreadPool / parallelFor -------------------------------------------------

TEST(ThreadPool, RunsEverySubmittedTask) {
  support::ThreadPool Pool(4);
  std::atomic<int> Count{0};
  for (int I = 0; I != 100; ++I)
    Pool.submit([&Count] { ++Count; });
  Pool.wait();
  EXPECT_EQ(Count.load(), 100);
  // The pool is reusable after a wait().
  Pool.submit([&Count] { ++Count; });
  Pool.wait();
  EXPECT_EQ(Count.load(), 101);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  for (unsigned Threads : {1u, 2u, 5u}) {
    std::vector<std::atomic<int>> Hits(257);
    support::parallelFor(Hits.size(), Threads,
                         [&Hits](size_t I) { ++Hits[I]; });
    for (size_t I = 0; I != Hits.size(); ++I)
      EXPECT_EQ(Hits[I].load(), 1) << "index " << I << " at " << Threads
                                   << " threads";
  }
}

TEST(ThreadPool, ParallelForZeroAndOneItems) {
  int Ran = 0;
  support::parallelFor(0, 4, [&Ran](size_t) { ++Ran; });
  EXPECT_EQ(Ran, 0);
  support::parallelFor(1, 4, [&Ran](size_t) { ++Ran; });
  EXPECT_EQ(Ran, 1);
}

// -- runShards determinism ----------------------------------------------------

TEST(ParallelDriver, FleetSeedsAreDeterministicAndDistinct) {
  std::vector<uint64_t> A = fleetSeeds(7, 16);
  std::vector<uint64_t> B = fleetSeeds(7, 16);
  EXPECT_EQ(A, B);
  std::vector<uint64_t> Sorted = A;
  std::sort(Sorted.begin(), Sorted.end());
  EXPECT_EQ(std::unique(Sorted.begin(), Sorted.end()), Sorted.end());
  EXPECT_NE(fleetSeeds(8, 16), A);
}

TEST(ParallelDriver, SameVerdictsAtOneAndManyThreads) {
  std::vector<uint64_t> Seeds = fleetSeeds(1234, 20);
  ShardWork Work = [](size_t, uint64_t Seed) {
    ShardResult R;
    R.Ok = true;
    R.Retired = Seed % 1000;
    R.TraceHash = Seed * 2654435761u;
    return R;
  };
  FleetReport Seq = runShards(Seeds, 1, Work);
  for (unsigned Threads : {2u, 4u, 8u}) {
    FleetReport Par = runShards(Seeds, Threads, Work);
    EXPECT_TRUE(Par.sameVerdicts(Seq)) << Threads << " threads";
  }
  EXPECT_TRUE(Seq.allOk());
  EXPECT_EQ(Seq.failures(), 0u);
  EXPECT_EQ(Seq.firstError(), "");
}

TEST(ParallelDriver, SeededFailuresReportIdenticallyAtAnyThreadCount) {
  // A synthetic suite in which every third seed fails: the parallel runs
  // must report the same failing shards, same messages, same order.
  std::vector<uint64_t> Seeds = fleetSeeds(99, 15);
  ShardWork Work = [](size_t, uint64_t Seed) {
    ShardResult R;
    R.Ok = Seed % 3 != 0;
    if (!R.Ok)
      R.Error = "synthetic failure for seed " + std::to_string(Seed);
    return R;
  };
  FleetReport Seq = runShards(Seeds, 1, Work);
  FleetReport Par = runShards(Seeds, 4, Work);
  ASSERT_TRUE(Par.sameVerdicts(Seq));
  EXPECT_EQ(Seq.failures(), Par.failures());
  EXPECT_EQ(Seq.firstError(), Par.firstError());
  EXPECT_GT(Seq.failures(), 0u); // The scenario actually exercises failure.
  EXPECT_LT(Seq.failures(), Seeds.size());
  // And the report pinpoints the first failing shard by index and seed.
  size_t FirstBad = 0;
  while (Seeds[FirstBad] % 3 != 0)
    ++FirstBad;
  EXPECT_NE(Seq.firstError().find("shard " + std::to_string(FirstBad)),
            std::string::npos);
}

TEST(ParallelDriver, TraceDigestSeparatesTraces) {
  riscv::MmioTrace A, B;
  A.push_back({/*IsStore=*/true, 0x1000, 1, 4});
  B.push_back({/*IsStore=*/true, 0x1000, 2, 4});
  EXPECT_EQ(traffic::soakTraceHash(A), traffic::soakTraceHash(A));
  EXPECT_NE(traffic::soakTraceHash(A), traffic::soakTraceHash(B));
  EXPECT_NE(traffic::soakTraceHash(A), traffic::soakTraceHash({}));
}

// -- The real suites, sharded -------------------------------------------------

namespace {

const compiler::CompiledProgram &firmware() {
  static compiler::CompiledProgram Prog = [] {
    compiler::CompileResult C = compiler::compileProgram(
        app::buildFirmware(), compiler::CompilerOptions::o0(),
        compiler::Entry::eventLoop("lightbulb_init", "lightbulb_loop"),
        64 * 1024);
    return *C.Prog;
  }();
  return Prog;
}

} // namespace

TEST(ParallelDriver, EndToEndFuzzFleetIsThreadCountInvariant) {
  std::vector<uint64_t> Seeds = fleetSeeds(42, 4);
  E2EOptions O;
  O.Core = traffic::SoakCore::IsaSim;
  FleetReport Seq = endToEndFuzzFleet(firmware(), O, Seeds, 2, 1);
  FleetReport Par = endToEndFuzzFleet(firmware(), O, Seeds, 2, 3);
  EXPECT_TRUE(Seq.allOk()) << Seq.firstError();
  ASSERT_TRUE(Par.sameVerdicts(Seq));
  ASSERT_EQ(Seq.Shards.size(), Seeds.size());
  for (const ShardResult &S : Seq.Shards) {
    EXPECT_GT(S.Retired, 0u);
    EXPECT_NE(S.TraceHash, 0u);
  }
}

TEST(ParallelDriver, EndToEndFuzzFleetIsEngineModeInvariant) {
  // The superblock engine retires the exact same instruction schedule as
  // the reference stepper, so a fuzz fleet run under ExecMode::Block (or
  // the lockstep Differential) must report identical verdicts, retirement
  // counts, and trace hashes — across three engines and any thread count.
  std::vector<uint64_t> Seeds = fleetSeeds(42, 4);
  E2EOptions O;
  O.Core = traffic::SoakCore::IsaSim;
  O.SimExec = riscv::ExecMode::Reference;
  FleetReport Ref = endToEndFuzzFleet(firmware(), O, Seeds, 2, 1);
  EXPECT_TRUE(Ref.allOk()) << Ref.firstError();
  for (riscv::ExecMode Mode :
       {riscv::ExecMode::Block, riscv::ExecMode::Differential}) {
    O.SimExec = Mode;
    FleetReport R = endToEndFuzzFleet(firmware(), O, Seeds, 2, 3);
    EXPECT_TRUE(R.allOk()) << riscv::execModeName(Mode) << ": "
                           << R.firstError();
    EXPECT_TRUE(R.sameVerdicts(Ref)) << riscv::execModeName(Mode);
  }
}

TEST(ParallelDriver, CompilerDiffFleetIsThreadCountInvariant) {
  auto ProgramForSeed = [](uint64_t Seed) {
    b2::testing::RandomProgramOptions O;
    O.NumHelpers = 1;
    O.MaxStmtsPerBlock = 3;
    O.MaxDepth = 2;
    return b2::testing::RandomProgramGen(Seed, O).generate();
  };
  std::vector<uint64_t> Seeds = fleetSeeds(5, 6);
  DiffOptions O;
  FleetReport Seq =
      compilerDiffFleet(ProgramForSeed, "main", {3, 4}, O, Seeds, 1);
  FleetReport Par =
      compilerDiffFleet(ProgramForSeed, "main", {3, 4}, O, Seeds, 4);
  EXPECT_TRUE(Seq.allOk()) << Seq.firstError();
  EXPECT_TRUE(Par.sameVerdicts(Seq));
}

TEST(ParallelDriver, LockstepFleetIsThreadCountInvariant) {
  // Tiny per-seed machine-code kernels: a seeded chain of ALU ops ending
  // in a parking jump, co-simulated pipelined-vs-ISA.
  auto ImageForSeed = [](uint64_t Seed) {
    using namespace b2::isa;
    std::vector<Instr> P;
    P.push_back(addi(A0, Zero, SWord(Seed % 1000)));
    P.push_back(addi(A1, Zero, SWord((Seed >> 10) % 1000)));
    for (unsigned I = 0; I != 8; ++I) {
      switch ((Seed >> I) % 3) {
      case 0:
        P.push_back(mkR(Opcode::Add, A0, A0, A1));
        break;
      case 1:
        P.push_back(mkR(Opcode::Xor, A1, A0, A1));
        break;
      default:
        P.push_back(mkR(Opcode::Sltu, A2, A1, A0));
        break;
      }
    }
    P.push_back(jal(Zero, 0)); // Park.
    return instrencode(P);
  };
  std::vector<uint64_t> Seeds = fleetSeeds(77, 5);
  LockstepOptions O;
  O.MaxRetired = 2000;
  auto MakeDevice = [] { return std::make_unique<devices::Platform>(); };
  FleetReport Seq = lockstepFleet(ImageForSeed, MakeDevice, O, Seeds, 1);
  FleetReport Par = lockstepFleet(ImageForSeed, MakeDevice, O, Seeds, 4);
  EXPECT_TRUE(Seq.allOk()) << Seq.firstError();
  EXPECT_TRUE(Par.sameVerdicts(Seq));
  for (const ShardResult &S : Seq.Shards)
    EXPECT_GT(S.Retired, 0u);
}
