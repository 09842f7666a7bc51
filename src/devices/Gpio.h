//===- devices/Gpio.h - GPIO controller and lightbulb ----------*- C++ -*-===//
//
// Part of the b2stack project (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The GPIO controller driving the lightbulb power switch (Figure 2). The
/// device records the full history of lightbulb states, which gives the
/// end-to-end tests a *ground truth* to compare against the trace
/// predicates: the light must equal the command bit of the last valid
/// packet, and must never change otherwise.
///
//===----------------------------------------------------------------------===//

#ifndef B2_DEVICES_GPIO_H
#define B2_DEVICES_GPIO_H

#include "devices/MemoryMap.h"
#include "support/Word.h"

#include <cstdint>
#include <vector>

namespace b2 {
namespace devices {

/// FE310-style GPIO block (output path only).
class Gpio {
public:
  static bool claims(Word Addr) {
    return Addr >= GpioBase && Addr < GpioBase + GpioSize;
  }

  Word read(Word Addr) const {
    switch (Addr) {
    case GpioOutputEn:
      return OutputEn;
    case GpioOutputVal:
      return OutputVal;
    case GpioInputVal:
      return 0;
    default:
      return 0;
    }
  }

  void write(Word Addr, Word Value) {
    switch (Addr) {
    case GpioOutputEn:
      OutputEn = Value;
      return;
    case GpioOutputVal: {
      OutputVal = Value;
      bool Light = lightbulbOn();
      // Record transitions only; the bulb starts off, so re-asserting
      // "off" is not a state change.
      if (Light != LastLight) {
        LightHistory.push_back(Light);
        LastLight = Light;
      }
      return;
    }
    default:
      return;
    }
  }

  /// Current physical lightbulb state: pin driven high with output
  /// enabled.
  bool lightbulbOn() const {
    Word Bit = Word(1) << LightbulbPin;
    return (OutputVal & Bit) != 0 && (OutputEn & Bit) != 0;
  }

  /// Distinct lightbulb states over time (ground truth for the
  /// end-to-end checker).
  const std::vector<bool> &lightHistory() const { return LightHistory; }

  // -- Snapshot/restore ------------------------------------------------------

  /// Block checkpoint, including the light-transition ground truth so a
  /// restored run reports the identical history.
  struct Snapshot {
    Word OutputEn = 0;
    Word OutputVal = 0;
    bool LastLight = false;
    std::vector<bool> LightHistory;
  };

  Snapshot snapshot() const {
    return Snapshot{OutputEn, OutputVal, LastLight, LightHistory};
  }

  void restore(const Snapshot &S) {
    OutputEn = S.OutputEn;
    OutputVal = S.OutputVal;
    LastLight = S.LastLight;
    LightHistory = S.LightHistory;
  }

private:
  Word OutputEn = 0;
  Word OutputVal = 0;
  bool LastLight = false;
  std::vector<bool> LightHistory;
};

} // namespace devices
} // namespace b2

#endif // B2_DEVICES_GPIO_H
