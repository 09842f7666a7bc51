//===- kami/Labels.h - Kami-style I/O labels -------------------*- C++ -*-===//
//
// Part of the b2stack project (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// I/O is encoded in Kami "as invoking methods on an unspecified external
/// module, which the semantics tracks in a behavior trace" (section 6.4).
/// A Label records one such external method call. The end-to-end theorem
/// relates Kami label sequences to the software-level MMIO traces via
/// `KamiRiscv.KamiLabelSeqR`, reproduced here as \c kamiLabelSeqR.
///
//===----------------------------------------------------------------------===//

#ifndef B2_KAMI_LABELS_H
#define B2_KAMI_LABELS_H

#include "riscv/Mmio.h"
#include "support/Snapshot.h"
#include "support/Word.h"

#include <cstdint>
#include <vector>

namespace b2 {
namespace kami {

/// One external method call of the processor module.
struct Label {
  enum class Kind : uint8_t { MmioLoad, MmioStore } MethodKind;
  Word Addr = 0;
  Word Value = 0;
  uint8_t Size = 4;
  uint64_t Cycle = 0; ///< Cycle of the call (diagnostics only; not part of
                      ///< the architectural trace relation).

  friend bool operator==(const Label &A, const Label &B) {
    // Cycle numbers are timing, not behavior: two traces are equal iff the
    // architectural content matches.
    return A.MethodKind == B.MethodKind && A.Addr == B.Addr &&
           A.Value == B.Value && A.Size == B.Size;
  }
};

using LabelTrace = std::vector<Label>;

/// The paper's KamiLabelSeqR, kept current over a growing label sequence:
/// maps each Kami label to the ("ld"|"st", addr, value) triple of the
/// application-level trace predicates. update() converts only the labels
/// appended since the previous call and grows the image by push_back
/// alone, so keeping it current costs amortised O(1) per event however
/// often it is polled. Snapshot/restore carry the image as a delta chain
/// plus the label watermark, like every other append-only log.
class LabelSeqConverter {
public:
  /// Brings the image up to date with \p Labels, which must extend the
  /// sequence passed to the previous call, and returns it.
  const riscv::MmioTrace &update(const LabelTrace &Labels) {
    for (; Watermark < Labels.size(); ++Watermark) {
      const Label &L = Labels[Watermark];
      Trace.push_back(riscv::MmioEvent{L.MethodKind == Label::Kind::MmioStore,
                                       L.Addr, L.Value, L.Size});
    }
    return Trace;
  }

  const riscv::MmioTrace &trace() const { return Trace; }

  struct Snapshot {
    support::ChainTracker<riscv::MmioEvent>::Snap Trace;
    size_t Watermark = 0;
  };

  Snapshot snapshot() { return Snapshot{Chain.snapshot(Trace), Watermark}; }

  void restore(const Snapshot &S) {
    Chain.restore(Trace, S.Trace);
    Watermark = S.Watermark;
  }

private:
  riscv::MmioTrace Trace;
  size_t Watermark = 0; ///< Labels converted so far.
  support::ChainTracker<riscv::MmioEvent> Chain;
};

/// One-shot KamiLabelSeqR over a complete label sequence.
inline riscv::MmioTrace kamiLabelSeqR(const LabelTrace &Labels) {
  return LabelSeqConverter().update(Labels);
}

} // namespace kami
} // namespace b2

#endif // B2_KAMI_LABELS_H
