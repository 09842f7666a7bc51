//===- tests/test_riscv.cpp - Software ISA semantics tests --------------------==//
//
// Part of the b2stack project (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//

#include "riscv/Machine.h"
#include "riscv/Step.h"

#include "isa/Build.h"
#include "isa/Encoding.h"

#include <gtest/gtest.h>

using namespace b2;
using namespace b2::isa;
using namespace b2::riscv;

namespace {

/// Loads a program at 0 and returns a fresh machine.
Machine machineWith(const std::vector<Instr> &Program, Word Ram = 4096) {
  Machine M(Ram);
  M.loadImage(0, instrencode(Program));
  return M;
}

/// A scripted MMIO device that returns fixed values and records accesses.
class ScriptedDevice final : public MmioDevice {
public:
  Word Base = 0x10000000;
  std::vector<Word> LoadValues = {0xAB};
  size_t NextLoad = 0;

  bool isMmio(Word Addr, unsigned) const override {
    return Addr >= Base && Addr < Base + 0x1000;
  }
  Word load(Word, unsigned) override {
    Word V = LoadValues[NextLoad % LoadValues.size()];
    ++NextLoad;
    return V;
  }
  void store(Word, unsigned, Word) override {}
};

} // namespace

TEST(Step, AluImmediates) {
  Machine M = machineWith({
      addi(A0, Zero, 100),
      mkI(Opcode::Slti, A1, A0, 101),
      mkI(Opcode::Sltiu, A2, A0, 100),
      mkI(Opcode::Xori, A3, A0, 0xFF),
      mkI(Opcode::Andi, A4, A0, 0x0F),
      mkI(Opcode::Ori, A5, A0, 0x0F),
  });
  NoDevice D;
  run(M, D, 6);
  EXPECT_FALSE(M.hasUb());
  EXPECT_EQ(M.getReg(A0), 100u);
  EXPECT_EQ(M.getReg(A1), 1u);
  EXPECT_EQ(M.getReg(A2), 0u);
  EXPECT_EQ(M.getReg(A3), 100u ^ 0xFFu);
  EXPECT_EQ(M.getReg(A4), 100u & 0x0Fu);
  EXPECT_EQ(M.getReg(A5), 100u | 0x0Fu);
}

TEST(Step, X0IsHardwiredZero) {
  Machine M = machineWith({addi(Zero, Zero, 123), addi(A0, Zero, 0)});
  NoDevice D;
  run(M, D, 2);
  EXPECT_EQ(M.getReg(Zero), 0u);
  EXPECT_EQ(M.getReg(A0), 0u);
}

TEST(Step, LuiAuipc) {
  Machine M = machineWith({lui(A0, SWord(0x12345000)),
                           auipc(A1, SWord(0x1000))});
  NoDevice D;
  run(M, D, 2);
  EXPECT_EQ(M.getReg(A0), 0x12345000u);
  EXPECT_EQ(M.getReg(A1), 0x1004u); // pc of auipc is 4.
}

TEST(Step, JalLinksAndJumps) {
  Machine M = machineWith({jal(RA, 8), nop(), nop()});
  NoDevice D;
  step(M, D);
  EXPECT_EQ(M.getReg(RA), 4u);
  EXPECT_EQ(M.getPc(), 8u);
}

TEST(Step, JalrClearsLowBit) {
  Machine M = machineWith({addi(A0, Zero, 9), jalr(RA, A0, 0), nop()});
  NoDevice D;
  run(M, D, 2);
  EXPECT_EQ(M.getPc(), 8u); // 9 & ~1.
  EXPECT_EQ(M.getReg(RA), 8u);
}

TEST(Step, BranchesTakeAndFallThrough) {
  Machine M = machineWith({
      addi(A0, Zero, 5),
      addi(A1, Zero, 5),
      mkB(Opcode::Beq, A0, A1, 8), // Taken: skip next.
      addi(A2, Zero, 111),
      addi(A3, Zero, 7),
  });
  NoDevice D;
  run(M, D, 4);
  EXPECT_FALSE(M.hasUb());
  EXPECT_EQ(M.getReg(A2), 0u);
  EXPECT_EQ(M.getReg(A3), 7u);
}

TEST(Step, SignedUnsignedBranches) {
  // -1 <s 1 but not -1 <u 1.
  Machine M = machineWith({
      addi(A0, Zero, -1),
      addi(A1, Zero, 1),
      mkB(Opcode::Blt, A0, A1, 8),
      nop(),
      mkB(Opcode::Bltu, A0, A1, 8),
      addi(A2, Zero, 42), // Executed: bltu not taken.
  });
  NoDevice D;
  run(M, D, 5);
  EXPECT_EQ(M.getReg(A2), 42u);
}

TEST(Step, LoadStoreRoundTripAllWidths) {
  Machine M = machineWith({
      addi(A0, Zero, 0x100),
      addi(A1, Zero, -2), // 0xFFFFFFFE
      sw(A0, A1, 0),
      lw(A2, A0, 0),
      mkI(Opcode::Lh, A3, A0, 0),
      mkI(Opcode::Lhu, A4, A0, 0),
      mkI(Opcode::Lb, A5, A0, 1),
      mkI(Opcode::Lbu, A6, A0, 1),
      mkS(Opcode::Sb, A0, Zero, 0),
      lw(A7, A0, 0),
  });
  NoDevice D;
  run(M, D, 10);
  EXPECT_FALSE(M.hasUb());
  EXPECT_EQ(M.getReg(A2), 0xFFFFFFFEu);
  EXPECT_EQ(M.getReg(A3), 0xFFFFFFFEu);
  EXPECT_EQ(M.getReg(A4), 0x0000FFFEu);
  EXPECT_EQ(M.getReg(A5), 0xFFFFFFFFu);
  EXPECT_EQ(M.getReg(A6), 0x000000FFu);
  EXPECT_EQ(M.getReg(A7), 0xFFFFFF00u);
}

TEST(Step, MisalignedWordLoadIsUb) {
  Machine M = machineWith({addi(A0, Zero, 0x101), lw(A1, A0, 0)});
  NoDevice D;
  run(M, D, 2);
  EXPECT_TRUE(M.hasUb());
  EXPECT_EQ(M.ubKind(), UbKind::LoadMisaligned);
}

TEST(Step, UnmappedLoadIsUb) {
  Machine M = machineWith({lui(A0, SWord(0x20000000)), lw(A1, A0, 0)});
  NoDevice D;
  run(M, D, 2);
  EXPECT_TRUE(M.hasUb());
  EXPECT_EQ(M.ubKind(), UbKind::LoadUnmapped);
}

TEST(Step, EcallIsUb) {
  Machine M = machineWith({mkI(Opcode::Jalr, Zero, Zero, 0)});
  // Direct ecall encoding.
  M.writeRam(0, 4, 0x00000073);
  M.removeXAddrs(0, 4); // Simulate staleness reset...
  // Rebuild: fresh machine to keep XAddrs intact.
  Machine M2(4096);
  M2.writeRam(0, 4, 0x00000073);
  NoDevice D;
  step(M2, D);
  EXPECT_TRUE(M2.hasUb());
  EXPECT_EQ(M2.ubKind(), UbKind::EnvironmentCall);
}

TEST(Step, InvalidInstructionIsUb) {
  Machine M(4096);
  M.writeRam(0, 4, 0xFFFFFFFF);
  NoDevice D;
  step(M, D);
  EXPECT_TRUE(M.hasUb());
  EXPECT_EQ(M.ubKind(), UbKind::InvalidInstruction);
}

TEST(Step, FetchOutsideRamIsUb) {
  Machine M = machineWith({jal(Zero, SWord(1 << 20) - 4)});
  NoDevice D;
  step(M, D);
  EXPECT_FALSE(M.hasUb()); // The jump itself is fine...
  step(M, D);
  EXPECT_TRUE(M.hasUb()); // ...fetching outside RAM is not.
  EXPECT_EQ(M.ubKind(), UbKind::FetchUnmapped);
}

TEST(Step, MisalignedFetchIsUb) {
  Machine M = machineWith({addi(A0, Zero, 2), jalr(Zero, A0, 0)});
  NoDevice D;
  run(M, D, 3);
  EXPECT_TRUE(M.hasUb());
  EXPECT_EQ(M.ubKind(), UbKind::FetchMisaligned);
}

TEST(Step, StaleInstructionFetchIsUb) {
  // Store over the next instruction, then fall into it: the XAddrs
  // discipline of section 5.6 makes the fetch UB even though the memory
  // contains a valid instruction.
  std::vector<Instr> P = {
      addi(A0, Zero, 0x13),  // a0 = encoding of nop (low byte).
      sw(Zero, A0, 12),      // Overwrite instruction at 12 with 0x13 = nop.
      nop(),                 // Padding (pc 8).
      nop(),                 // pc 12: was nop, now stale.
  };
  Machine M = machineWith(P);
  NoDevice D;
  run(M, D, 4);
  EXPECT_TRUE(M.hasUb());
  EXPECT_EQ(M.ubKind(), UbKind::FetchNotExecutable);
}

TEST(Step, StoreElsewhereKeepsExecutability) {
  Machine M = machineWith({addi(A0, Zero, 0x100), sw(A0, A0, 0), nop()});
  NoDevice D;
  run(M, D, 3);
  EXPECT_FALSE(M.hasUb());
  EXPECT_TRUE(M.rangeExecutable(0, 12));
  EXPECT_FALSE(M.isExecutable(0x100));
}

TEST(Step, MmioLoadRecordsEvent) {
  ScriptedDevice Dev;
  Dev.LoadValues = {0x1234};
  Machine M = machineWith({lui(A0, SWord(0x10000000)), lw(A1, A0, 0)});
  run(M, Dev, 2);
  EXPECT_FALSE(M.hasUb());
  EXPECT_EQ(M.getReg(A1), 0x1234u);
  ASSERT_EQ(M.trace().size(), 1u);
  EXPECT_FALSE(M.trace()[0].IsStore);
  EXPECT_EQ(M.trace()[0].Addr, 0x10000000u);
  EXPECT_EQ(M.trace()[0].Value, 0x1234u);
}

TEST(Step, MmioStoreRecordsEvent) {
  ScriptedDevice Dev;
  Machine M = machineWith({lui(A0, SWord(0x10000000)),
                           addi(A1, Zero, 77), sw(A0, A1, 4)});
  run(M, Dev, 3);
  EXPECT_FALSE(M.hasUb());
  ASSERT_EQ(M.trace().size(), 1u);
  EXPECT_TRUE(M.trace()[0].IsStore);
  EXPECT_EQ(M.trace()[0].Addr, 0x10000004u);
  EXPECT_EQ(M.trace()[0].Value, 77u);
}

TEST(Step, NonWordMmioIsUb) {
  ScriptedDevice Dev;
  Machine M = machineWith({lui(A0, SWord(0x10000000)),
                           mkI(Opcode::Lb, A1, A0, 0)});
  run(M, Dev, 2);
  EXPECT_TRUE(M.hasUb());
  EXPECT_EQ(M.ubKind(), UbKind::MmioBadSize);
}

TEST(Step, MisalignedMmioIsUb) {
  ScriptedDevice Dev;
  Machine M = machineWith({lui(A0, SWord(0x10000000)), lw(A1, A0, 2)});
  run(M, Dev, 2);
  EXPECT_TRUE(M.hasUb());
  // Misaligned word MMIO: flagged as misaligned load.
  EXPECT_EQ(M.ubKind(), UbKind::LoadMisaligned);
}

TEST(Step, UbIsStickyAndStopsRetirement) {
  Machine M(4096);
  M.writeRam(0, 4, 0xFFFFFFFF);
  NoDevice D;
  EXPECT_FALSE(step(M, D));
  uint64_t Retired = M.retiredInstructions();
  EXPECT_FALSE(step(M, D)); // Still stuck.
  EXPECT_EQ(M.retiredInstructions(), Retired);
}

TEST(Step, MulDivSemantics) {
  Machine M = machineWith({
      addi(A0, Zero, -7),
      addi(A1, Zero, 2),
      mkR(Opcode::Mul, A2, A0, A1),
      mkR(Opcode::Mulh, A3, A0, A1),
      mkR(Opcode::Mulhu, A4, A0, A1),
      mkR(Opcode::Div, A5, A0, A1),
      mkR(Opcode::Rem, A6, A0, A1),
      mkR(Opcode::Divu, A7, A0, Zero), // Division by zero.
  });
  NoDevice D;
  run(M, D, 8);
  EXPECT_FALSE(M.hasUb());
  EXPECT_EQ(M.getReg(A2), Word(-14));
  EXPECT_EQ(M.getReg(A3), 0xFFFFFFFFu); // High word of -14.
  EXPECT_EQ(M.getReg(A4), 1u);          // (2^32-7)*2 >> 32.
  EXPECT_EQ(M.getReg(A5), Word(-3));
  EXPECT_EQ(M.getReg(A6), Word(-1));
  EXPECT_EQ(M.getReg(A7), 0xFFFFFFFFu);
}

TEST(Machine, XAddrsInitiallyFullAndShrinks) {
  Machine M(64);
  EXPECT_TRUE(M.rangeExecutable(0, 64));
  M.removeXAddrs(10, 2);
  EXPECT_FALSE(M.isExecutable(8));
  EXPECT_TRUE(M.isExecutable(12));
  EXPECT_FALSE(M.rangeExecutable(0, 64));
}

TEST(Machine, RamBoundsChecking) {
  Machine M(64);
  EXPECT_TRUE(M.inRam(60, 4));
  EXPECT_FALSE(M.inRam(61, 4));
  EXPECT_FALSE(M.inRam(64, 1));
  EXPECT_FALSE(M.inRam(0xFFFFFFFF, 4)); // Overflow-safe.
}

TEST(Machine, XAddrsRemovalAcrossBlockBoundary) {
  // XAddrs is stored 64 bits per block; a removal spanning the block
  // boundary must clear bits on both sides.
  Machine M(256);
  M.removeXAddrs(60, 8); // Bytes 60..67: last 4 of block 0, first 4 of block 1.
  EXPECT_TRUE(M.rangeExecutable(0, 60));
  EXPECT_TRUE(M.isExecutable(56)); // Bytes 56..59 untouched.
  EXPECT_FALSE(M.rangeExecutable(56, 8));
  EXPECT_FALSE(M.isExecutable(60));
  EXPECT_FALSE(M.isExecutable(64));
  EXPECT_TRUE(M.isExecutable(68));
  EXPECT_TRUE(M.rangeExecutable(68, 188));
  EXPECT_FALSE(M.rangeExecutable(0, 256));
}

TEST(Machine, XAddrsRemovalSpanningWholeBlocks) {
  Machine M(512);
  M.removeXAddrs(32, 192); // Bytes 32..223: partial, two full blocks, partial.
  EXPECT_TRUE(M.rangeExecutable(0, 32));
  EXPECT_FALSE(M.rangeExecutable(32, 192));
  EXPECT_FALSE(M.isExecutable(128));
  EXPECT_TRUE(M.rangeExecutable(224, 288));
}

TEST(Machine, RemoveXAddrsWrapsModulo32Bits) {
  // The per-byte semantics compute Addr + I in 32-bit arithmetic, so a
  // removal at the top of the address space wraps to low RAM.
  Machine M(64);
  M.removeXAddrs(0xFFFFFFFE, 4); // Bytes 0xFFFFFFFE, 0xFFFFFFFF (outside
                                 // RAM, ignored), then 0 and 1.
  EXPECT_FALSE(M.isExecutable(0));
  EXPECT_TRUE(M.isExecutable(4));
  EXPECT_TRUE(M.rangeExecutable(4, 60));
  EXPECT_FALSE(M.rangeExecutable(0, 4));
}

// -- Self-modifying code (section 5.6) ---------------------------------------

TEST(Step, SelfModifyingStoreTripsUbOnReentry) {
  // The program of examples/stale_instructions.cpp in miniature: execute
  // the victim at pc 12 once in a loop, overwrite it, then jump back into
  // it. Re-entry must report FetchNotExecutable (the XAddrs verdict), not
  // silently execute either the old or the new instruction.
  Word NewInstr = encode(addi(A1, Zero, 99));
  std::vector<Instr> P;
  materialize(NewInstr, A0, P);
  while (P.size() < 2)
    P.push_back(nop());
  P.push_back(mkB(Opcode::Bne, A5, Zero, 16)); // pc 8: 2nd pass -> pc 24.
  P.push_back(addi(A1, Zero, 7));              // pc 12: the victim.
  P.push_back(addi(A5, Zero, 1));              // pc 16.
  P.push_back(jal(Zero, -12));                 // pc 20: back to pc 8.
  P.push_back(sw(Zero, A0, 12));               // pc 24: overwrite pc 12.
  P.push_back(jal(Zero, -16));                 // pc 28: back into pc 12.
  Machine M = machineWith(P);
  NoDevice D;
  run(M, D, 1000);
  EXPECT_EQ(M.ubKind(), UbKind::FetchNotExecutable);
  EXPECT_EQ(M.getPc(), 12u);   // Frozen at the stale fetch.
  EXPECT_EQ(M.getReg(A1), 7u); // First-pass execution, never the new 99.
}

TEST(Step, HostPokeExecutesNewBytesWithoutUb) {
  // Host-level RAM mutation (loadImage/writeByte) is not an ISA store: it
  // keeps XAddrs intact, so the next fetch executes the new bytes.
  std::vector<Instr> P = {addi(A1, Zero, 7), jal(Zero, 0)};
  Machine M = machineWith(P);
  NoDevice D;
  ASSERT_TRUE(step(M, D));
  EXPECT_EQ(M.getReg(A1), 7u);
  M.loadImage(0, instrencode({addi(A1, Zero, 42)}));
  M.setPc(0);
  ASSERT_TRUE(step(M, D));
  EXPECT_EQ(M.getReg(A1), 42u); // The poked instruction.
  EXPECT_FALSE(M.hasUb());      // XAddrs untouched by host pokes.
}
