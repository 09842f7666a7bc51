//===- riscv/Machine.cpp - Software-oriented RISC-V machine state ----------==//
//
// Part of the b2stack project (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//

#include "riscv/Machine.h"

#include "support/Format.h"
#include "verify/FaultInjection.h"

using namespace b2;
using namespace b2::riscv;

MmioDevice::~MmioDevice() = default;

std::string b2::riscv::toString(const MmioEvent &E) {
  return std::string("(\"") + (E.IsStore ? "st" : "ld") + "\", " +
         support::hex32(E.Addr) + ", " + support::hex32(E.Value) + ")";
}

std::string b2::riscv::toString(const MmioTrace &T) {
  std::string Out;
  for (const MmioEvent &E : T) {
    Out += toString(E);
    Out += "\n";
  }
  return Out;
}

const char *b2::riscv::ubKindName(UbKind K) {
  switch (K) {
  case UbKind::None:
    return "none";
  case UbKind::FetchUnmapped:
    return "fetch-unmapped";
  case UbKind::FetchMisaligned:
    return "fetch-misaligned";
  case UbKind::FetchNotExecutable:
    return "fetch-not-executable";
  case UbKind::InvalidInstruction:
    return "invalid-instruction";
  case UbKind::LoadUnmapped:
    return "load-unmapped";
  case UbKind::StoreUnmapped:
    return "store-unmapped";
  case UbKind::LoadMisaligned:
    return "load-misaligned";
  case UbKind::StoreMisaligned:
    return "store-misaligned";
  case UbKind::MmioBadSize:
    return "mmio-bad-size";
  case UbKind::EnvironmentCall:
    return "environment-call";
  }
  return "unknown";
}

Machine::Machine(Word RamSize)
    : Ram(RamSize, 0), XBits((size_t(RamSize) + 63) / 64, ~uint64_t(0)),
      Words(RamSize / 4) {
  assert(RamSize > 0 && RamSize % 4 == 0 && "RAM size must be a multiple of 4");
}

Word Machine::readRam(Word Addr, unsigned Size) const {
  assert(inRam(Addr, Size) && "RAM read out of range");
  Word V = 0;
  for (unsigned I = 0; I != Size; ++I)
    V |= Word(Ram[Addr + I]) << (8 * I);
  return V;
}

void Machine::writeRam(Word Addr, unsigned Size, Word V) {
  assert(inRam(Addr, Size) && "RAM write out of range");
  for (unsigned I = 0; I != Size; ++I)
    Ram[Addr + I] = uint8_t((V >> (8 * I)) & 0xFF);
  RamCow.markDirtyRange(Addr, size_t(Addr) + Size);
  notifyInvalidate(Addr, Size);
}

void Machine::loadImage(Word Addr, const std::vector<uint8_t> &Image) {
  assert(inRam(Addr, Word(Image.size())) && "image does not fit in RAM");
  for (size_t I = 0; I != Image.size(); ++I)
    Ram[Addr + I] = Image[I];
  RamCow.markDirtyRange(Addr, size_t(Addr) + Image.size());
  notifyInvalidate(Addr, Word(Image.size()));
}

void Machine::storeRam(Word Addr, unsigned Size, Word V) {
  assert(inRam(Addr, Size) && "RAM store out of range");
  if (Size == 4 && (Addr & 3) == 0) {
    if (storeWordNoNotify(Addr, V) && Listener)
      Listener->onInvalidate(Addr >> 2, Addr >> 2);
    return;
  }
  for (unsigned I = 0; I != Size; ++I)
    Ram[Addr + I] = uint8_t((V >> (8 * I)) & 0xFF);
  RamCow.markDirtyRange(Addr, size_t(Addr) + Size);
  if (fi::on(fi::Fault::SimStoreKeepsXAddrs))
    return; // Seeded bug: the section-5.6 discipline is forgotten.
  removeXAddrs(Addr, Size);
}

bool Machine::xBitsAllSet(Word Addr, Word Len) const {
  size_t First = Addr >> 6;
  size_t Last = (size_t(Addr) + Len - 1) >> 6;
  uint64_t FirstMask = ~uint64_t(0) << (Addr & 63);
  uint64_t LastMask =
      ~uint64_t(0) >> (63 - ((size_t(Addr) + Len - 1) & 63));
  if (First == Last) {
    uint64_t Mask = FirstMask & LastMask;
    return (XBits[First] & Mask) == Mask;
  }
  if ((XBits[First] & FirstMask) != FirstMask)
    return false;
  for (size_t B = First + 1; B != Last; ++B)
    if (XBits[B] != ~uint64_t(0))
      return false;
  return (XBits[Last] & LastMask) == LastMask;
}

void Machine::removeXAddrs(Word Addr, unsigned Size) {
  // Common case: the whole range is in RAM (no 2^32 wrap-around, no bytes
  // past the end), so the bits clear with at most two block masks and one
  // ranged notification.
  if (Size != 0 && inRam(Addr, Size)) {
    size_t First = Addr >> 6;
    size_t Last = (size_t(Addr) + Size - 1) >> 6;
    uint64_t FirstMask = ~uint64_t(0) << (Addr & 63);
    uint64_t LastMask = ~uint64_t(0) >> (63 - ((size_t(Addr) + Size - 1) & 63));
    if (First == Last) {
      XBits[First] &= ~(FirstMask & LastMask);
    } else {
      XBits[First] &= ~FirstMask;
      for (size_t B = First + 1; B != Last; ++B)
        XBits[B] = 0;
      XBits[Last] &= ~LastMask;
    }
    notifyInvalidate(Addr, Size);
    return;
  }
  // Rare case: per-byte semantics with address wrap-around (Addr + I
  // computed in 32-bit arithmetic), matching the original formulation;
  // bytes outside RAM are ignored.
  for (unsigned I = 0; I != Size; ++I) {
    Word A = Addr + Word(I);
    if (!inRam(A, 1))
      continue;
    XBits[A >> 6] &= ~(uint64_t(1) << (A & 63));
    notifyInvalidate(A, 1);
  }
}

void Machine::notifyInvalidate(Word Addr, Word Len) {
  if (Len == 0 || !Listener)
    return;
  size_t FirstW = Addr >> 2;
  size_t LastW = (size_t(Addr) + Len - 1) >> 2;
  if (FirstW < Words)
    Listener->onInvalidate(FirstW, LastW < Words ? LastW : Words - 1);
}

void Machine::markUb(UbKind K, std::string Detail) {
  if (Ub != UbKind::None)
    return;
  Ub = K;
  UbMessage = std::move(Detail);
}

Machine::Snapshot Machine::snapshot() {
  Snapshot S;
  std::copy(std::begin(Regs), std::end(Regs), std::begin(S.Regs));
  S.Pc = Pc;
  S.Ram = RamCow.snapshot(Ram);
  S.XBits = XBits;
  S.Ub = Ub;
  S.UbMessage = UbMessage;
  S.Trace = TraceChain.snapshot(Trace);
  S.Retired = Retired;
  return S;
}

void Machine::restore(const Snapshot &S) {
  std::copy(std::begin(S.Regs), std::end(S.Regs), std::begin(Regs));
  Pc = S.Pc;
  RamCow.restore(Ram, S.Ram);
  XBits = S.XBits;
  Ub = S.Ub;
  UbMessage = S.UbMessage;
  TraceChain.restore(Trace, S.Trace);
  Retired = S.Retired;
  // Restore replaces the whole architectural state; derived structures
  // (translated superblocks, differential shadows) must resynchronize.
  if (Listener)
    Listener->onRestore();
}
