//===- bench/LatencyHarness.cpp - Packet-to-actuation latency ----------------==//
//
// Part of the b2stack project (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//

#include "LatencyHarness.h"

#include "devices/MemoryMap.h"
#include "devices/Net.h"

#include <memory>

using namespace b2;
using namespace b2::bench;
using namespace b2::devices;

LatencyMeasurement b2::bench::measureResponse(const SysConfig &Config,
                                              unsigned NumPackets) {
  return measureResponse(Config,
                         Config.OptCompiler
                             ? compiler::CompilerOptions::o3()
                             : compiler::CompilerOptions::o0(),
                         NumPackets);
}

LatencyMeasurement
b2::bench::measureResponse(const SysConfig &Config,
                           const compiler::CompilerOptions &Compiler,
                           unsigned NumPackets) {
  LatencyMeasurement Out;

  app::FirmwareOptions FW;
  FW.SpiPipelining = Config.SpiPipelining;
  FW.Timeouts = Config.Timeouts;

  compiler::CompileResult C = compiler::compileProgram(
      app::buildFirmware(FW), Compiler,
      compiler::Entry::eventLoop("lightbulb_init", "lightbulb_loop"),
      DefaultRamBytes);
  if (!C.ok()) {
    Out.Error = "compile: " + C.Error;
    return Out;
  }
  Out.CodeBytes = C.Prog->CodeBytes;

  SpiConfig Spi;
  Spi.FifoDepth = Config.SpiPipelining ? 8 : 1;
  Platform Plat(Spi);

  // Schedule alternating commands, spaced far enough apart that every
  // frame is handled in its own loop iteration.
  constexpr uint64_t FirstAtOp = 2500;
  constexpr uint64_t Spacing = 4000;
  std::vector<uint64_t> DeliveryOps;
  for (unsigned K = 0; K != NumPackets; ++K) {
    uint64_t At = FirstAtOp + K * Spacing;
    Plat.scheduleFrame(At, buildCommandFrame(K % 2 == 0));
    DeliveryOps.push_back(At);
  }

  kami::Bram Mem(DefaultRamBytes);
  Mem.loadImage(C.Prog->image());

  std::unique_ptr<kami::PipelinedCore> Pipe;
  std::unique_ptr<kami::SpecCore> Spec;
  if (Config.KamiCore)
    Pipe = std::make_unique<kami::PipelinedCore>(Mem, Plat);
  else
    Spec = std::make_unique<kami::SpecCore>(Mem, Plat);

  auto Labels = [&]() -> const kami::LabelTrace & {
    return Config.KamiCore ? Pipe->labels() : Spec->labels();
  };
  // Actuation count, advanced from a watermark so each poll scans only
  // the labels the last chunk appended.
  uint64_t Stores = 0;
  size_t Scanned = 0;
  auto GpioStores = [&]() {
    const kami::LabelTrace &L = Labels();
    for (; Scanned < L.size(); ++Scanned)
      if (L[Scanned].MethodKind == kami::Label::Kind::MmioStore &&
          L[Scanned].Addr == GpioOutputVal)
        ++Stores;
    return Stores;
  };

  // Run until every packet has been actuated (alternating commands all
  // produce a store) or the cycle budget runs out.
  constexpr uint64_t MaxCycles = 2'000'000'000;
  uint64_t Elapsed = 0;
  while (GpioStores() < NumPackets && Elapsed < MaxCycles) {
    if (Config.KamiCore)
      Pipe->run(100'000);
    else
      Spec->run(100'000);
    Elapsed += 100'000;
  }
  if (GpioStores() < NumPackets) {
    Out.Error = "not all packets were actuated within the cycle budget";
    return Out;
  }

  // Latency per packet: cycle(actuation store) - cycle(delivery op).
  // Label index i corresponds to platform MMIO operation i+1, so the
  // label at index AtOp-1 is the operation during which the frame was
  // delivered.
  const kami::LabelTrace &L = Labels();
  double Sum = 0;
  unsigned Counted = 0;
  size_t NextStore = 0;
  for (uint64_t At : DeliveryOps) {
    if (At - 1 >= L.size())
      break;
    uint64_t Start = L[size_t(At - 1)].Cycle;
    // First GPIO store at or after the delivery.
    while (NextStore < L.size() &&
           !(L[NextStore].MethodKind == kami::Label::Kind::MmioStore &&
             L[NextStore].Addr == GpioOutputVal &&
             L[NextStore].Cycle >= Start))
      ++NextStore;
    if (NextStore == L.size())
      break;
    Sum += double(L[NextStore].Cycle - Start);
    ++NextStore;
    ++Counted;
  }
  if (Counted == 0) {
    Out.Error = "no packet latencies could be attributed";
    return Out;
  }

  Out.Ok = true;
  Out.Packets = Counted;
  Out.MeanCyclesPerPacket = Sum / Counted;
  Out.TotalCycles = Config.KamiCore ? Pipe->cycles() : Spec->cycles();
  Out.Retired = Config.KamiCore ? Pipe->retired() : Spec->retired();
  return Out;
}
