//===- devices/Lan9250.h - LAN9250 Ethernet controller model ---*- C++ -*-===//
//
// Part of the b2stack project (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Register-level behavioral model of the LAN9250 Ethernet controller as
/// seen over SPI: "The LAN9250 Ethernet controller's API is exposed as a
/// range of SPI-accessible address space where reads and writes to
/// different addresses correspond to different operations" (section 5.1).
///
/// The model implements the subset of the datasheet the lightbulb drivers
/// exercise: the SPI READ (0x03) / FAST READ (0x0B) / WRITE (0x02)
/// commands with 16-bit addresses; BYTE_TEST and HW_CFG for bring-up; the
/// RX status/data FIFO ports; RX_FIFO_INF; and the indirect MAC CSR
/// interface used to enable reception. The network interface card is
/// outside the paper's verified perimeter (section 7.1.2), so a behavioral
/// model preserves the relevant behavior: it drives the same MMIO/SPI code
/// paths in the drivers.
///
/// Frames are injected by the test scenario (devices/Platform.h) and are
/// delivered deterministically as a function of the MMIO access sequence.
///
//===----------------------------------------------------------------------===//

#ifndef B2_DEVICES_LAN9250_H
#define B2_DEVICES_LAN9250_H

#include "devices/Spi.h"
#include "support/Word.h"

#include <cstddef>
#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

namespace b2 {
namespace devices {

/// LAN9250 system-register addresses (SPI address space).
namespace lan9250reg {
constexpr Word RxDataFifo = 0x00;
constexpr Word RxStatusFifo = 0x40;
constexpr Word RxStatusPeek = 0x44;
constexpr Word IdRev = 0x50;
constexpr Word IrqCfg = 0x54;
constexpr Word IntSts = 0x58;
constexpr Word IntEn = 0x5C;
constexpr Word ByteTest = 0x64;
constexpr Word FifoInt = 0x68;
constexpr Word RxCfg = 0x6C;
constexpr Word TxCfg = 0x70;
constexpr Word HwCfg = 0x74;
constexpr Word RxFifoInf = 0x7C;
constexpr Word PmtCtrl = 0x84;
constexpr Word MacCsrCmd = 0xA4;
constexpr Word MacCsrData = 0xA8;

constexpr Word ByteTestPattern = 0x87654321;
constexpr Word IdRevValue = 0x92500001;
constexpr Word HwCfgReady = Word(1) << 27;
constexpr Word HwCfgMbo = Word(1) << 20;
constexpr Word MacCsrBusy = Word(1) << 31;
constexpr Word MacCsrRead = Word(1) << 30;
/// MAC_CR indirect register index and its receiver/transmitter enables.
constexpr Word MacCrIndex = 1;
constexpr Word MacCrRxEn = Word(1) << 2;
constexpr Word MacCrTxEn = Word(1) << 3;
/// RX status word fields.
constexpr unsigned RxStsLengthShift = 16;
constexpr Word RxStsLengthMask = 0x3FFF;
constexpr Word RxStsErrorSummary = Word(1) << 15;
} // namespace lan9250reg

/// The Ethernet controller model (an SpiSlave).
class Lan9250 final : public SpiSlave {
public:
  struct Config {
    /// Number of HW_CFG reads that report not-READY after power-on,
    /// exercising the driver's bring-up polling loop.
    unsigned NotReadyPolls = 2;
    /// Maximum frames buffered; further injections are dropped (real
    /// hardware drops on FIFO overflow too).
    unsigned MaxBufferedFrames = 8;
  };

  Lan9250();
  explicit Lan9250(const Config &C);

  // -- SpiSlave interface ----------------------------------------------------

  void csAssert() override;
  void csRelease() override;
  uint8_t exchange(uint8_t Mosi) override;

  // -- Scenario interface ------------------------------------------------------

  /// Delivers a frame to the RX FIFO. \p Errored marks it with the
  /// error-summary bit in its status word (models a CRC-failed frame).
  /// Returns false (dropping the frame) when RX is disabled or the FIFO
  /// is full, as real hardware would.
  bool injectFrame(std::vector<uint8_t> Frame, bool Errored = false);

  /// True once the driver has enabled reception via MAC_CR.
  bool rxEnabled() const;

  /// Frames currently buffered (tests).
  size_t bufferedFrames() const { return RxQueue.size(); }

private:
  /// SPI transaction decoding state machine.
  enum class SpiState : uint8_t {
    Idle,
    Cmd,
    AddrHi,
    AddrLo,
    FastReadDummy,
    ReadData,
    WriteData,
  };

  struct PendingFrame {
    std::vector<uint8_t> Data;
    bool Errored = false;
    bool StatusConsumed = false;
    Word ReadOffset = 0;
  };

  Config Cfg;
  SpiState State = SpiState::Idle;
  uint8_t Command = 0;
  Word Address = 0;
  Word Assembly = 0;     ///< Bytes being collected for a register write.
  unsigned ByteCount = 0;///< Bytes consumed/produced in the data phase.
  Word ReadLatch = 0;    ///< Register value being shifted out.

  std::unordered_map<Word, Word> Regs; ///< Plain writable registers.
  Word MacRegs[16] = {};
  Word MacCsrDataReg = 0;
  unsigned NotReadyLeft;
  std::deque<PendingFrame> RxQueue;
  /// Carrier for the seeded dev-lan-rx-cross-frame-latch fault: set once
  /// an ON command frame is accepted. Architectural state (it persists
  /// across frames by design of the bug), so it snapshots like any latch.
  bool CrossFrameOnSeen = false;

  Word readRegister(Word Addr);
  void writeRegister(Word Addr, Word Value);
  Word popRxData();
  Word popRxStatus();
  Word rxFifoInf() const;
  Word statusWordFor(const PendingFrame &F) const;
  static Word paddedLen(Word Bytes) { return (Bytes + 3) & ~Word(3); }

public:
  // -- Snapshot/restore ------------------------------------------------------

  /// Controller checkpoint: the SPI transaction state machine, register
  /// file, MAC CSR block, bring-up countdown, and the buffered RX frames
  /// with their read cursors. All plain values — a copy is exact.
  struct Snapshot {
    SpiState State = SpiState::Idle;
    uint8_t Command = 0;
    Word Address = 0;
    Word Assembly = 0;
    unsigned ByteCount = 0;
    Word ReadLatch = 0;
    std::unordered_map<Word, Word> Regs;
    Word MacRegs[16] = {};
    Word MacCsrDataReg = 0;
    unsigned NotReadyLeft = 0;
    std::deque<PendingFrame> RxQueue;
    bool CrossFrameOnSeen = false;
  };

  Snapshot snapshot() const;
  void restore(const Snapshot &S);
};

} // namespace devices
} // namespace b2

#endif // B2_DEVICES_LAN9250_H
