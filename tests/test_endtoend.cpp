//===- tests/test_endtoend.cpp - end2end_lightbulb checks --------------------==//
//
// Part of the b2stack project (PLDI 2021 reproduction).
//
// The executable counterpart of the paper's headline theorem: running the
// compiled lightbulb firmware on the pipelined processor produces only
// MMIO traces that are prefixes of goodHlTrace, for benign and adversarial
// packet scenarios alike, and the physical lightbulb follows exactly the
// valid commands.
//
//===----------------------------------------------------------------------===//

#include "verify/EndToEnd.h"

#include "devices/Net.h"
#include "traffic/Checkpoint.h"

#include <cinttypes>
#include <cstdio>
#include <gtest/gtest.h>

using namespace b2;
using namespace b2::verify;
using namespace b2::devices;

namespace {

E2EScenario commandScenario(std::initializer_list<bool> Commands,
                            uint64_t FirstAtOp = 2000,
                            uint64_t Spacing = 2500) {
  E2EScenario S;
  uint64_t At = FirstAtOp;
  for (bool On : Commands) {
    S.Frames.push_back(ScheduledFrame{At, buildCommandFrame(On), false});
    At += Spacing;
  }
  return S;
}

} // namespace

TEST(EndToEnd, BootOnlyTraceIsPrefixOfGoodHlTrace) {
  E2EScenario Empty;
  E2EOptions O;
  O.MaxCycles = 30'000'000;
  E2EResult R = runLightbulbEndToEnd(Empty, O);
  EXPECT_TRUE(R.PrefixAccepted) << R.Error;
  EXPECT_TRUE(R.GroundTruthOk) << R.Error;
  EXPECT_TRUE(R.LightHistory.empty());
  EXPECT_GT(R.Trace.size(), 0u);
}

TEST(EndToEnd, SingleOnCommandTurnsLightOn) {
  E2EOptions O;
  O.MaxCycles = 60'000'000;
  E2EResult R = runLightbulbEndToEnd(commandScenario({true}), O);
  EXPECT_TRUE(R.Ok) << R.Error;
  ASSERT_EQ(R.LightHistory.size(), 1u);
  EXPECT_TRUE(R.LightHistory[0]);
  EXPECT_EQ(R.AcceptedFrames, 1u);
}

TEST(EndToEnd, OnOffSequenceIsTracked) {
  E2EOptions O;
  O.MaxCycles = 120'000'000;
  E2EResult R = runLightbulbEndToEnd(commandScenario({true, false, true}), O);
  EXPECT_TRUE(R.Ok) << R.Error;
  ASSERT_EQ(R.LightHistory.size(), 3u);
  EXPECT_TRUE(R.LightHistory[0]);
  EXPECT_FALSE(R.LightHistory[1]);
  EXPECT_TRUE(R.LightHistory[2]);
}

TEST(EndToEnd, MalformedPacketIsIgnored) {
  // A frame with the wrong ethertype must be drained but not actuated.
  std::vector<uint8_t> Bad = buildCommandFrame(true);
  Bad[12] = 0x86; // Not IPv4.
  E2EScenario S;
  S.Frames.push_back(ScheduledFrame{2000, Bad, false});
  E2EOptions O;
  O.MaxCycles = 60'000'000;
  E2EResult R = runLightbulbEndToEnd(S, O);
  EXPECT_TRUE(R.Ok) << R.Error;
  EXPECT_TRUE(R.LightHistory.empty());
}

TEST(EndToEnd, FuzzedScenarioSatisfiesSpecOnPipelinedCore) {
  E2EOptions O;
  O.MaxCycles = 400'000'000;
  E2EScenario S = fuzzScenario(/*Seed=*/1, /*NumFrames=*/6);
  E2EResult R = runLightbulbEndToEnd(S, O);
  EXPECT_TRUE(R.Ok) << R.Error;
}

// -- Golden observables -------------------------------------------------------
//
// Pins the harness's exact schedule: one ON/OFF scenario on every core and
// ISA-simulator engine, plus the two configurations that only take effect
// if E2EOptions::Pipe reaches the pipelined core (no BTB changes the cycle
// schedule) and E2EOptions::Spi reaches the platform (the FIFO-pipelined
// SPI driver needs an 8-deep FIFO). Any change to chunking, delivery,
// drain detection or machine construction moves at least one number.

namespace {

struct GoldenRun {
  const char *Name;
  bool Ok;
  uint64_t Cycles;
  uint64_t Retired;
  size_t AcceptedFrames;
  size_t Events;
  uint64_t TraceHash;
};

} // namespace

TEST(EndToEnd, GoldenObservablesPinTheSchedule) {
  using Core = decltype(E2EOptions::Core);
  const GoldenRun Golden[] = {
      {"pipelined", true, 600000, 393952, 2, 8097, 0xaeba4d6bcfd245dfull},
      {"spec", true, 600000, 600000, 2, 11859, 0xd1c634beb8143adfull},
      {"isa-reference", true, 600000, 600000, 2, 11859, 0xd1c634beb8143adfull},
      {"isa-block", true, 600000, 600000, 2, 11859, 0xd1c634beb8143adfull},
      {"isa-diff", true, 600000, 600000, 2, 11859, 0xd1c634beb8143adfull},
      {"pipelined-no-btb", true, 600000, 365915, 2, 7569,
       0x23ee309cec4d4335ull},
      {"spi-pipelined", false, 800000, 522985, 2, 9526, 0x1d022c65a9f5e644ull},
  };

  auto Options = [](size_t I) {
    E2EOptions O;
    switch (I) {
    case 1:
      O.Core = Core::SpecCore;
      break;
    case 2:
    case 3:
    case 4:
      O.Core = Core::IsaSim;
      O.SimExec = I == 2   ? riscv::ExecMode::Reference
                  : I == 3 ? riscv::ExecMode::Block
                           : riscv::ExecMode::Differential;
      break;
    case 5:
      O.Pipe.UseBtb = false;
      break;
    case 6:
      O.Firmware.SpiPipelining = true;
      O.Spi.FifoDepth = 8;
      break;
    }
    return O;
  };

  const E2EScenario S = commandScenario({true, false});
  for (size_t I = 0; I != std::size(Golden); ++I) {
    const GoldenRun &G = Golden[I];
    E2EResult R = runLightbulbEndToEnd(S, Options(I));
    const uint64_t Hash = traffic::soakTraceHash(R.Trace);
    char Row[160];
    std::snprintf(Row, sizeof(Row),
                  "observed {\"%s\", %s, %" PRIu64 ", %" PRIu64 ", %zu, %zu, "
                  "0x%016" PRIx64 "ull}",
                  G.Name, R.Ok ? "true" : "false", R.Cycles, R.Retired,
                  R.AcceptedFrames, R.Trace.size(), Hash);
    SCOPED_TRACE(Row);
    EXPECT_EQ(R.Ok, G.Ok) << R.Error;
    EXPECT_EQ(R.Cycles, G.Cycles);
    EXPECT_EQ(R.Retired, G.Retired);
    EXPECT_EQ(R.AcceptedFrames, G.AcceptedFrames);
    EXPECT_EQ(R.Trace.size(), G.Events);
    EXPECT_EQ(Hash, G.TraceHash);
    EXPECT_EQ(R.LightHistory, std::vector<bool>({true, false}));
  }
}
