//===- riscv/Step.cpp - One-instruction ISA semantics ----------------------==//
//
// Part of the b2stack project (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//

#include "riscv/Step.h"

#include "isa/Encoding.h"
#include "riscv/Exec.h"
#include "support/Format.h"
#include "verify/FaultInjection.h"

using namespace b2;
using namespace b2::isa;
using namespace b2::riscv;
using namespace b2::support;

// The per-opcode semantic kernels (ALU, branch predicate, load
// extension, the platform's nonmem MMIO rules) live in riscv/Exec.h so
// the superblock trace engine executes the exact same code — fault
// hooks included.

bool b2::riscv::step(Machine &M, MmioDevice &Device) {
  if (M.hasUb())
    return false;

  // Fetch. The XAddrs check encodes the stale-instruction discipline
  // (section 5.6): addresses written by stores are no longer executable.
  Word Pc = M.getPc();
  if (!isAligned(Pc, 4)) {
    M.markUb(UbKind::FetchMisaligned, "pc = " + hex32(Pc));
    return false;
  }
  if (!M.inRam(Pc, 4)) {
    M.markUb(UbKind::FetchUnmapped, "pc = " + hex32(Pc));
    return false;
  }
  if (!M.isExecutable(Pc)) {
    M.markUb(UbKind::FetchNotExecutable, "pc = " + hex32(Pc));
    return false;
  }
  Word Raw = M.loadWordFast(Pc);
  const Instr I = decode(Raw);
  if (!I.isValid()) {
    M.markUb(UbKind::InvalidInstruction,
             "word " + hex32(Raw) + " at pc " + hex32(Pc));
    return false;
  }

  Word NextPc = Pc + 4;

  switch (I.Op) {
  case Opcode::Lui:
    M.setReg(I.Rd, Word(I.Imm));
    break;
  case Opcode::Auipc:
    M.setReg(I.Rd, Pc + Word(I.Imm));
    break;
  case Opcode::Jal:
    M.setReg(I.Rd, Pc + 4);
    NextPc = Pc + Word(I.Imm);
    break;
  case Opcode::Jalr: {
    Word Target = (M.getReg(I.Rs1) + Word(I.Imm)) & ~Word(1);
    M.setReg(I.Rd, Pc + 4);
    NextPc = Target;
    break;
  }
  case Opcode::Beq:
  case Opcode::Bne:
  case Opcode::Blt:
  case Opcode::Bge:
  case Opcode::Bltu:
  case Opcode::Bgeu:
    if (exec::branchTaken(I.Op, M.getReg(I.Rs1), M.getReg(I.Rs2)))
      NextPc = Pc + Word(I.Imm);
    break;
  case Opcode::Lb:
  case Opcode::Lh:
  case Opcode::Lw:
  case Opcode::Lbu:
  case Opcode::Lhu: {
    Word Addr = M.getReg(I.Rs1) + Word(I.Imm);
    unsigned Size = accessSize(I.Op);
    Word Raw2;
    if (M.inRam(Addr, Size)) {
      if (!isAligned(Addr, Size)) {
        M.markUb(UbKind::LoadMisaligned, "load at " + hex32(Addr));
        return false;
      }
      Raw2 = M.readRam(Addr, Size);
    } else if (!exec::nonmemLoad(M, Device, Addr, Size, Raw2)) {
      return false;
    }
    M.setReg(I.Rd, exec::extendLoad(I.Op, Raw2));
    break;
  }
  case Opcode::Sb:
  case Opcode::Sh:
  case Opcode::Sw: {
    Word Addr = M.getReg(I.Rs1) + Word(I.Imm);
    unsigned Size = accessSize(I.Op);
    Word Value = M.getReg(I.Rs2);
    if (M.inRam(Addr, Size)) {
      if (!isAligned(Addr, Size)) {
        M.markUb(UbKind::StoreMisaligned, "store at " + hex32(Addr));
        return false;
      }
      M.storeRam(Addr, Size, Value);
    } else if (!exec::nonmemStore(M, Device, Addr, Size, Value)) {
      return false;
    }
    break;
  }
  case Opcode::Fence:
    break; // Single-core platform: fences are no-ops.
  case Opcode::Ecall:
  case Opcode::Ebreak:
    M.markUb(UbKind::EnvironmentCall,
             std::string(opcodeName(I.Op)) + " at pc " + hex32(Pc));
    return false;
  default:
    if (isImmAlu(I.Op)) {
      M.setReg(I.Rd, exec::alu(I.Op, M.getReg(I.Rs1), Word(I.Imm)));
    } else {
      assert(isRegAlu(I.Op) && "unhandled opcode in step");
      M.setReg(I.Rd, exec::alu(I.Op, M.getReg(I.Rs1), M.getReg(I.Rs2)));
    }
    break;
  }

  M.setPc(NextPc);
  M.countRetired();
  return true;
}

uint64_t b2::riscv::run(Machine &M, MmioDevice &Device, uint64_t MaxSteps) {
  uint64_t N = 0;
  while (N < MaxSteps && step(M, Device))
    ++N;
  return N;
}
