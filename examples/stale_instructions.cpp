//===- examples/stale_instructions.cpp - The XAddrs discipline ----------------==//
//
// Part of the b2stack project (PLDI 2021 reproduction).
//
// Section 5.6's "Dealing with Stale Instructions", demonstrated: a
// self-modifying program overwrites an instruction in memory, but the
// processor's eagerly-filled instruction cache keeps executing the stale
// version. The software-oriented ISA semantics flag the fetch as
// undefined behavior via the XAddrs discipline — exactly the condition
// that licenses the hardware's behavior. Run both models side by side and
// watch them diverge precisely at the flagged instruction.
//
//===----------------------------------------------------------------------===//

#include "isa/Build.h"
#include "isa/Disasm.h"
#include "isa/Encoding.h"
#include "kami/PipelinedCore.h"
#include "riscv/Machine.h"
#include "riscv/Step.h"

#include <cstdio>

using namespace b2;
using namespace b2::isa;

int main() {
  std::printf("== stale instructions and the XAddrs discipline ==\n\n");

  // The program overwrites the instruction at PC 16 with `addi a1, zero,
  // 99`, then falls into it. The I$ still holds the original `addi a1,
  // zero, 7`.
  Word NewInstr = encode(addi(A1, Zero, 99));
  std::vector<Instr> P;
  std::vector<Instr> Materialize;
  materialize(NewInstr, A0, Materialize); // lui+addi into a0.
  P.insert(P.end(), Materialize.begin(), Materialize.end());
  while (P.size() < 3)
    P.push_back(nop());
  P.push_back(sw(Zero, A0, 16)); // pc 12: overwrite pc 16 in memory.
  P.push_back(addi(A1, Zero, 7)); // pc 16: the victim.
  P.push_back(jal(Zero, 0));      // pc 20: park.

  std::printf("program:\n%s\n", disasmListing(P, 0).c_str());
  std::vector<uint8_t> Image = instrencode(P);

  // Hardware: executes the stale instruction from the I$.
  kami::Bram Mem(4096);
  Mem.loadImage(Image);
  riscv::NoDevice DevA;
  kami::PipelinedCore Core(Mem, DevA);
  Core.runUntilRetired(6, 100000);
  std::printf("pipelined core: a1 = %u (stale instruction executed)\n",
              Core.getReg(A1));
  std::printf("  memory word at 16 is now %s\n",
              disasm(decode(Mem.readWord(16))).c_str());
  std::printf("  i$ word at 16 is still   %s\n\n",
              disasm(decode(Core.icache().fetch(16))).c_str());

  // Software semantics: every fetch checks XAddrs, so the fetch at 16 is
  // undefined behavior.
  riscv::Machine M(4096);
  M.loadImage(0, Image);
  riscv::NoDevice DevB;
  riscv::run(M, DevB, 100);
  std::printf("ISA semantics: %s at pc 16 -> %s (%s)\n",
              M.hasUb() ? "flagged UB" : "no UB",
              riscv::ubKindName(M.ubKind()), M.ubDetail().c_str());

  // Sharper variant: execute the victim once FIRST, then overwrite it and
  // jump back into it. Having run the old instruction buys nothing: the
  // store removed its address from XAddrs, so re-entry is still flagged.
  std::printf("\n-- with the victim already executed once --\n");
  std::vector<Instr> P2;
  materialize(NewInstr, A0, P2);
  while (P2.size() < 2)
    P2.push_back(nop());
  P2.push_back(mkB(Opcode::Bne, A5, Zero, 16)); // pc 8: 2nd pass -> pc 24.
  P2.push_back(addi(A1, Zero, 7));              // pc 12: the victim.
  P2.push_back(addi(A5, Zero, 1));              // pc 16.
  P2.push_back(jal(Zero, -12));                 // pc 20: back to pc 8.
  P2.push_back(sw(Zero, A0, 12));               // pc 24: overwrite pc 12.
  P2.push_back(jal(Zero, -16));                 // pc 28: back into pc 12.

  riscv::Machine M2(4096);
  M2.loadImage(0, instrencode(P2));
  riscv::NoDevice DevC;
  riscv::run(M2, DevC, 100);
  std::printf("victim executed once (a1 = %u), then overwritten: %s (%s)\n",
              M2.getReg(A1), riscv::ubKindName(M2.ubKind()),
              M2.ubDetail().c_str());

  std::printf("\nthe compiler-correctness proof obligates compiled code "
              "never to reach this state:\nevery store removes its "
              "addresses from XAddrs, and fetching outside XAddrs is UB "
              "(section 5.6).\n");

  bool Demo = Core.getReg(A1) == 7 &&
              M.ubKind() == riscv::UbKind::FetchNotExecutable &&
              M.getPc() == 16 &&
              M2.ubKind() == riscv::UbKind::FetchNotExecutable &&
              M2.getPc() == 12 && M2.getReg(A1) == 7;
  return Demo ? 0 : 1;
}
