//===- devices/Spi.h - FE310-style SPI controller model --------*- C++ -*-===//
//
// Part of the b2stack project (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Behavioral model of the FE310-style SPI peripheral the drivers talk to:
/// "The SPI interface exposes send and receive queues via MMIO, relying on
/// polling to detect peripheral-initiated flag changes" (section 5.1).
///
/// Determinism contract: all state evolution is a function of the MMIO
/// *access sequence* (never of simulation cycles), so that the ISA
/// simulator, the spec core, and the pipelined core observe identical
/// reply values when they issue identical access sequences.
///
/// The configuration distinguishes the two SPI designs of section 7.2.1:
///  * the verified system's SPI has a single-entry FIFO and no pipelining
///    (its "simplest specification we could come up with"), forcing the
///    driver to interleave one-byte writes and reads;
///  * the FE310's SPI supports pipelining within a transaction (FIFO depth
///    8), which the unverified baseline exploits — the 1.4x factor.
///
//===----------------------------------------------------------------------===//

#ifndef B2_DEVICES_SPI_H
#define B2_DEVICES_SPI_H

#include "devices/MemoryMap.h"
#include "support/Word.h"

#include <cstdint>
#include <deque>

namespace b2 {
namespace devices {

/// A device on the SPI bus (the LAN9250 in the demo).
class SpiSlave {
public:
  virtual ~SpiSlave();

  /// Chip select asserted: a transaction begins.
  virtual void csAssert() = 0;

  /// Chip select released: the transaction ends.
  virtual void csRelease() = 0;

  /// Full-duplex byte exchange: the slave consumes \p Mosi and produces
  /// the MISO byte.
  virtual uint8_t exchange(uint8_t Mosi) = 0;
};

/// Configuration of the SPI controller model.
struct SpiConfig {
  /// TX/RX FIFO depth. 1 models the verified system's Verilog SPI ("does
  /// not support pipelining"); 8 models the FE310.
  unsigned FifoDepth = 1;
  /// Serial shift time of one byte, measured in SPI MMIO operations so
  /// the model stays deterministic in the access sequence. Transfers of
  /// queued bytes proceed back to back, so a driver that pipelines writes
  /// through a deep FIFO overlaps them with its own later operations; the
  /// strictly interleaved verified driver waits out each transfer with
  /// polls (the 1.4x of section 7.2.1).
  unsigned TransferOps = 6;
};

/// The SPI controller.
class Spi {
public:
  Spi(SpiSlave &Slave, const SpiConfig &Config = SpiConfig());

  /// True iff \p Addr is one of the SPI registers.
  static bool claims(Word Addr) {
    return Addr >= SpiBase && Addr < SpiBase + SpiSize;
  }

  /// MMIO register read.
  Word read(Word Addr);

  /// MMIO register write.
  void write(Word Addr, Word Value);

  /// Number of byte exchanges performed (bench statistic).
  uint64_t exchanges() const { return Exchanges; }

private:
  struct PendingRx {
    uint8_t Byte;
    uint64_t ReadyAt; ///< OpClock at which the byte leaves the shifter.
  };

  SpiSlave &Slave;
  SpiConfig Config;
  std::deque<PendingRx> RxFifo;
  Word CsModeReg = SpiCsModeAuto;
  Word SckDivReg = 3;
  Word CsIdReg = 0;
  Word CsDefReg = 1;
  bool CsAsserted = false;
  uint64_t Exchanges = 0;
  uint64_t OpClock = 0;       ///< SPI MMIO operations observed.
  uint64_t ShifterFreeAt = 0; ///< OpClock at which the shifter idles.
  Word LastPopped = 0;        ///< Last byte read out of the RX FIFO
                              ///< (replayed by the DevSpiStaleRead fault).

  void setCsMode(Word Value);

public:
  // -- Snapshot/restore ------------------------------------------------------

  /// Controller checkpoint: registers, the op-clock, and the in-flight
  /// RX FIFO with its readiness deadlines. Everything is op-sequence
  /// state (the determinism contract above), so a plain copy restores
  /// the exact reply schedule.
  struct Snapshot {
    std::deque<PendingRx> RxFifo;
    Word CsModeReg = 0;
    Word SckDivReg = 0;
    Word CsIdReg = 0;
    Word CsDefReg = 0;
    bool CsAsserted = false;
    uint64_t Exchanges = 0;
    uint64_t OpClock = 0;
    uint64_t ShifterFreeAt = 0;
    Word LastPopped = 0;
  };

  Snapshot snapshot() const;

  /// Restores \p S. Under the seeded SnapStateStaleLatch fault the
  /// restored shifter-busy latch is corrupted — the bug class the
  /// snapshot-differential gate exists to catch.
  void restore(const Snapshot &S);
};

} // namespace devices
} // namespace b2

#endif // B2_DEVICES_SPI_H
