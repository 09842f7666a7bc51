//===- tests/test_param.cpp - Parameterized property sweeps --------------------==//
//
// Part of the b2stack project (PLDI 2021 reproduction).
//
// Property-style sweeps as parameterized gtest suites: each parameter
// value is an independent test case, so failures name the exact seed or
// configuration that broke.
//
//===----------------------------------------------------------------------===//

#include "app/Firmware.h"
#include "app/LightbulbSpec.h"
#include "bedrock2/Semantics.h"
#include "devices/Net.h"
#include "devices/Platform.h"
#include "isa/Build.h"
#include "isa/Disasm.h"
#include "isa/Encoding.h"
#include "tracespec/Matcher.h"
#include "verify/CompilerDiff.h"
#include "verify/EndToEnd.h"
#include "verify/Lockstep.h"
#include "verify/Refinement.h"

#include "RandomProgram.h"

#include <gtest/gtest.h>

using namespace b2;

// -- Per-opcode encode/decode properties ---------------------------------------

class OpcodeRoundTrip : public ::testing::TestWithParam<isa::Opcode> {};

TEST_P(OpcodeRoundTrip, EncodeDecodeIsIdentity) {
  isa::Opcode Op = GetParam();
  support::Rng Rng(uint64_t(Op) * 7919 + 1);
  for (int K = 0; K != 2000; ++K) {
    isa::Instr I;
    I.Op = Op;
    I.Rd = isa::Reg(Rng.below(32));
    I.Rs1 = isa::Reg(Rng.below(32));
    I.Rs2 = isa::Reg(Rng.below(32));
    switch (Op) {
    case isa::Opcode::Lui:
    case isa::Opcode::Auipc:
      I.Imm = SWord(Rng.next32() & 0xFFFFF000u);
      I.Rs1 = I.Rs2 = 0;
      break;
    case isa::Opcode::Jal:
      I.Imm = SWord(support::signExtend(Rng.next32() & 0x1FFFFE, 21));
      I.Rs1 = I.Rs2 = 0;
      break;
    case isa::Opcode::Slli:
    case isa::Opcode::Srli:
    case isa::Opcode::Srai:
      I.Imm = SWord(Rng.below(32));
      I.Rs2 = 0;
      break;
    case isa::Opcode::Ecall:
    case isa::Opcode::Ebreak:
      I.Rd = I.Rs1 = I.Rs2 = 0;
      break;
    default:
      if (isa::isBranch(Op)) {
        I.Imm = SWord(support::signExtend(Rng.next32() & 0x1FFE, 13));
        I.Rd = 0;
      } else if (isa::isImmAlu(Op) || isa::isLoad(Op) ||
                 Op == isa::Opcode::Jalr || Op == isa::Opcode::Fence) {
        I.Imm = SWord(support::signExtend(Rng.next32() & 0xFFF, 12));
        I.Rs2 = 0;
      } else if (isa::isStore(Op)) {
        I.Imm = SWord(support::signExtend(Rng.next32() & 0xFFF, 12));
        I.Rd = 0;
      }
      break;
    }
    ASSERT_TRUE(isa::isEncodable(I)) << isa::disasm(I);
    isa::Instr D = isa::decode(isa::encode(I));
    ASSERT_TRUE(D == I) << isa::disasm(I) << " vs " << isa::disasm(D);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllOpcodes, OpcodeRoundTrip,
    ::testing::Values(
        isa::Opcode::Lui, isa::Opcode::Auipc, isa::Opcode::Jal,
        isa::Opcode::Jalr, isa::Opcode::Beq, isa::Opcode::Bne,
        isa::Opcode::Blt, isa::Opcode::Bge, isa::Opcode::Bltu,
        isa::Opcode::Bgeu, isa::Opcode::Lb, isa::Opcode::Lh,
        isa::Opcode::Lw, isa::Opcode::Lbu, isa::Opcode::Lhu,
        isa::Opcode::Sb, isa::Opcode::Sh, isa::Opcode::Sw,
        isa::Opcode::Addi, isa::Opcode::Slti, isa::Opcode::Sltiu,
        isa::Opcode::Xori, isa::Opcode::Ori, isa::Opcode::Andi,
        isa::Opcode::Slli, isa::Opcode::Srli, isa::Opcode::Srai,
        isa::Opcode::Add, isa::Opcode::Sub, isa::Opcode::Sll,
        isa::Opcode::Slt, isa::Opcode::Sltu, isa::Opcode::Xor,
        isa::Opcode::Srl, isa::Opcode::Sra, isa::Opcode::Or,
        isa::Opcode::And, isa::Opcode::Fence, isa::Opcode::Mul,
        isa::Opcode::Mulh, isa::Opcode::Mulhsu, isa::Opcode::Mulhu,
        isa::Opcode::Div, isa::Opcode::Divu, isa::Opcode::Rem,
        isa::Opcode::Remu),
    [](const ::testing::TestParamInfo<isa::Opcode> &Info) {
      return std::string(isa::opcodeName(Info.param));
    });

// -- Compiler differential, per seed and optimization level --------------------

struct DiffParam {
  uint64_t Seed;
  bool Optimize;
  bool Mmio;
};

class RandomProgramDiff : public ::testing::TestWithParam<DiffParam> {};

TEST_P(RandomProgramDiff, SourceAndMachineAgree) {
  DiffParam P = GetParam();
  b2::testing::RandomProgramOptions RO;
  RO.UseMmio = P.Mmio;
  b2::testing::RandomProgramGen Gen(P.Seed, RO);
  bedrock2::Program Prog = Gen.generate();
  verify::DiffOptions DO;
  DO.Compiler = P.Optimize ? compiler::CompilerOptions::o3()
                           : compiler::CompilerOptions::o0();
  support::Rng Rng(P.Seed * 13 + 5);
  verify::DiffResult R = verify::diffCompile(
      Prog, "main", {Rng.interestingWord(), Rng.interestingWord()},
      [] { return std::make_unique<devices::Platform>(); }, DO);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_TRUE(R.Source.ok()) << "generator produced UB (vacuous): "
                             << bedrock2::faultName(R.Source.F);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RandomProgramDiff,
    ::testing::Values(
        DiffParam{501, false, false}, DiffParam{502, false, false},
        DiffParam{503, false, true}, DiffParam{504, false, true},
        DiffParam{505, true, false}, DiffParam{506, true, false},
        DiffParam{507, true, true}, DiffParam{508, true, true},
        DiffParam{509, true, true}, DiffParam{510, false, true}),
    [](const ::testing::TestParamInfo<DiffParam> &Info) {
      return "seed" + std::to_string(Info.param.Seed) +
             (Info.param.Optimize ? "_o3" : "_o0") +
             (Info.param.Mmio ? "_mmio" : "_pure");
    });

// -- Refinement across pipeline configurations ----------------------------------

struct PipeParam {
  bool Btb;
  unsigned BtbBits;
  unsigned MmioLatency;
  unsigned Fill;
  bool Forwarding = false;
};

class PipelineRefinement : public ::testing::TestWithParam<PipeParam> {};

TEST_P(PipelineRefinement, FirmwareRefinesSpecCore) {
  PipeParam P = GetParam();
  static const compiler::CompiledProgram Firmware = [] {
    compiler::CompileResult C = compiler::compileProgram(
        app::buildFirmware(), compiler::CompilerOptions::o0(),
        compiler::Entry::eventLoop("lightbulb_init", "lightbulb_loop"),
        64 * 1024);
    return *C.Prog;
  }();
  verify::RefinementOptions O;
  O.Pipe.UseBtb = P.Btb;
  O.Pipe.BtbIndexBits = P.BtbBits;
  O.Pipe.MmioLatency = P.MmioLatency;
  O.Pipe.ICacheFillWordsPerCycle = P.Fill;
  O.Pipe.EnableForwarding = P.Forwarding;
  O.Retirements = 15000;
  verify::RefinementResult R = verify::checkRefinement(
      Firmware.image(),
      [] { return std::make_unique<devices::Platform>(); }, O);
  ASSERT_TRUE(R.Ok) << R.Error;
}

INSTANTIATE_TEST_SUITE_P(
    Configs, PipelineRefinement,
    ::testing::Values(PipeParam{true, 5, 2, 4, false},
                      PipeParam{false, 5, 2, 4, false},
                      PipeParam{true, 2, 2, 4, false},
                      PipeParam{true, 8, 0, 4, false},
                      PipeParam{true, 5, 7, 0, false},
                      PipeParam{false, 5, 0, 1, false},
                      PipeParam{true, 5, 2, 4, true},
                      PipeParam{false, 5, 3, 1, true}),
    [](const ::testing::TestParamInfo<PipeParam> &Info) {
      const PipeParam &P = Info.param;
      return std::string(P.Btb ? "btb" : "nobtb") +
             std::to_string(P.BtbBits) + "_lat" +
             std::to_string(P.MmioLatency) + "_fill" +
             std::to_string(P.Fill) + (P.Forwarding ? "_fwd" : "");
    });

// -- Lockstep across the same firmware on varied device timing ------------------

class SpiTimingLockstep : public ::testing::TestWithParam<unsigned> {};

TEST_P(SpiTimingLockstep, FirmwareStaysRelated) {
  unsigned TransferOps = GetParam();
  compiler::CompileResult C = compiler::compileProgram(
      app::buildFirmware(), compiler::CompilerOptions::o0(),
      compiler::Entry::eventLoop("lightbulb_init", "lightbulb_loop"),
      64 * 1024);
  ASSERT_TRUE(C.ok());
  verify::LockstepOptions O;
  O.MaxRetired = 25000;
  O.MemoryCheckEvery = 8192;
  verify::LockstepResult R = verify::lockstep(
      C.Prog->image(), ~Word(0),
      [TransferOps] {
        devices::SpiConfig Spi;
        Spi.TransferOps = TransferOps;
        return std::make_unique<devices::Platform>(Spi);
      },
      O);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_FALSE(R.SimulatorHitUb);
}

INSTANTIATE_TEST_SUITE_P(TransferTimes, SpiTimingLockstep,
                         ::testing::Values(0u, 1u, 3u, 6u, 17u),
                         [](const ::testing::TestParamInfo<unsigned> &I) {
                           return "xfer" + std::to_string(I.param);
                         });

// -- End-to-end fuzz, per seed, on the spec core (cheap) and pipelined ----------

struct E2EParam {
  uint64_t Seed;
  traffic::SoakCore Core;
};

class FuzzedEndToEnd : public ::testing::TestWithParam<E2EParam> {};

TEST_P(FuzzedEndToEnd, TraceIsPrefixAndLightTracksCommands) {
  E2EParam P = GetParam();
  static const compiler::CompiledProgram Firmware = [] {
    compiler::CompileResult C = compiler::compileProgram(
        app::buildFirmware(), compiler::CompilerOptions::o0(),
        compiler::Entry::eventLoop("lightbulb_init", "lightbulb_loop"),
        64 * 1024);
    return *C.Prog;
  }();
  verify::E2EOptions O;
  O.Core = P.Core;
  verify::E2EScenario S = verify::fuzzScenario(P.Seed, 5);
  verify::E2EResult R = verify::runCompiledEndToEnd(Firmware, S, O);
  ASSERT_TRUE(R.Ok) << R.Error;
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, FuzzedEndToEnd,
    ::testing::Values(E2EParam{11, traffic::SoakCore::SpecCore},
                      E2EParam{12, traffic::SoakCore::SpecCore},
                      E2EParam{13, traffic::SoakCore::SpecCore},
                      E2EParam{14, traffic::SoakCore::SpecCore},
                      E2EParam{15, traffic::SoakCore::IsaSim},
                      E2EParam{16, traffic::SoakCore::IsaSim},
                      E2EParam{17, traffic::SoakCore::Pipelined},
                      E2EParam{18, traffic::SoakCore::Pipelined}),
    [](const ::testing::TestParamInfo<E2EParam> &Info) {
      const char *Core =
          Info.param.Core == traffic::SoakCore::SpecCore  ? "spec"
          : Info.param.Core == traffic::SoakCore::IsaSim ? "sim"
                                                         : "pipe";
      return std::string(Core) + "_seed" + std::to_string(Info.param.Seed);
    });

// -- Stackalloc placement independence across the firmware ----------------------

class StackallocSalt : public ::testing::TestWithParam<Word> {};

TEST_P(StackallocSalt, FirmwareIterationTraceIsPlacementIndependent) {
  Word Salt = GetParam();
  bedrock2::Program P = app::buildFirmware();
  devices::Platform Plat;
  bedrock2::MmioExtSpec Ext(Plat, 64 * 1024);
  bedrock2::StackallocPolicy Policy;
  Policy.Salt = Salt;
  bedrock2::Interp I(P, Ext, 50'000'000, Policy);
  ASSERT_EQ(I.callFunction("lightbulb_init", {}).Rets[0], 0u);
  Plat.injectNow(devices::buildCommandFrame(true));
  ASSERT_EQ(I.callFunction("lightbulb_loop", {}).Rets[0], 0u);
  EXPECT_TRUE(Plat.gpio().lightbulbOn());
  tracespec::Matcher M(app::goodHlTrace());
  EXPECT_TRUE(M.acceptsPrefix(Ext.mmioTrace()));
}

INSTANTIATE_TEST_SUITE_P(Salts, StackallocSalt,
                         ::testing::Values(Word(0), Word(128), Word(4096),
                                           Word(65536)),
                         [](const ::testing::TestParamInfo<Word> &I) {
                           return "salt" + std::to_string(I.param);
                         });
