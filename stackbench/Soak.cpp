//===- stackbench/Soak.cpp - soak-pipelined and soak-isa-adversarial ------===//
//
// Part of the b2stack project (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
//
// A round is one 2048-frame shard (the tools/soak default shard length)
// of a seeded scenario through the compiled lightbulb firmware, with one
// worker thread and backpressure keeping FrameBudget frames outstanding.
// The untraced round is traffic::runSoak; the traced round rebuilds
// runSoakShard's body (warm boot, the runShardLoop delivery loop,
// collectShardStats) from SoakMachine::runChunk, SoakMachine::trace,
// TraceMonitor::pollTrace and Platform::injectNow.
//
// The shard length stays at 2048 on purpose: trace conversion on the Kami
// cores costs O(n^2) in shard length, and a shorter shard would hide it.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "app/Firmware.h"
#include "devices/MemoryMap.h"
#include "devices/Net.h"
#include "kami/PipelinedCore.h"
#include "support/Rng.h"
#include "traffic/Checkpoint.h"
#include "traffic/Scenario.h"
#include "traffic/Soak.h"

#include <algorithm>

using namespace b2;
using namespace b2::stackbench;
using namespace b2::traffic;
using devices::ScheduledFrame;

namespace {

constexpr uint64_t FramesPerShard = 2048;

/// Packets of the actuation probe (the paper's packet-to-actuation
/// measure, section 7.2.1).
constexpr unsigned ActuationPackets = 128;

uint64_t fingerprint(const ShardStats &S) {
  Fnv F;
  for (bool B : {S.Ok, S.MonitorOk, S.GroundTruthOk, S.CrossCheckOk, S.Drained,
                 S.HitUb, S.Diverged})
    F.mix(B);
  for (uint64_t V : {S.FramesDelivered, S.FramesAccepted, S.ValidCommands,
                     S.MmioEvents, S.MonitorEventsSeen, S.LightTransitions,
                     S.Cycles, S.Retired, S.TraceHash, S.ViolationIndex,
                     uint64_t(S.DeliveredFrames.size())})
    F.mix(V);
  for (char C : S.Error)
    F.mix(uint8_t(C));
  return F.H;
}

/// Packet-to-actuation latency on the pipelined core, by the method of
/// bench/LatencyHarness: valid commands scheduled far enough apart that
/// each is handled in its own loop iteration; a packet's latency is the
/// cycle of the first GPIO output store at or after the cycle of the MMIO
/// operation that delivered it (label i is platform operation i+1).
struct Actuation {
  bool Ok = false;
  std::vector<uint64_t> Latencies;
  kami::PipeStats Stats;
};

Actuation measureActuation(const compiler::CompiledProgram &Prog,
                           Word RamBytes, uint64_t Seed) {
  using devices::GpioOutputVal;
  Actuation Out;
  devices::Platform Plat;
  support::Rng Rng(Seed ^ 0xac7ea7e5ull);
  std::vector<uint64_t> DeliveryOps;
  uint64_t At = 2500;
  for (unsigned K = 0; K != ActuationPackets; ++K) {
    Plat.scheduleFrame(At, devices::buildCommandFrame(Rng.flip()));
    DeliveryOps.push_back(At);
    At += 4000 + Rng.below(1000);
  }
  kami::Bram Mem(RamBytes);
  Mem.loadImage(Prog.image());
  kami::PipelinedCore Pipe(Mem, Plat);

  auto IsActuation = [](const kami::Label &L) {
    return L.MethodKind == kami::Label::Kind::MmioStore &&
           L.Addr == GpioOutputVal;
  };
  uint64_t Stores = 0;
  size_t Scanned = 0;
  while (Stores < ActuationPackets && Pipe.cycles() < 2'000'000'000) {
    Pipe.run(100'000);
    const kami::LabelTrace &L = Pipe.labels();
    for (; Scanned < L.size(); ++Scanned)
      Stores += IsActuation(L[Scanned]);
  }
  const kami::LabelTrace &L = Pipe.labels();
  size_t Next = 0;
  for (uint64_t Op : DeliveryOps) {
    if (Op - 1 >= L.size())
      break;
    uint64_t Start = L[size_t(Op - 1)].Cycle;
    while (Next < L.size() && !(IsActuation(L[Next]) && L[Next].Cycle >= Start))
      ++Next;
    if (Next == L.size())
      break;
    Out.Latencies.push_back(L[Next].Cycle - Start);
    ++Next;
  }
  Out.Ok = Out.Latencies.size() == ActuationPackets;
  Out.Stats = Pipe.stats();
  return Out;
}

/// Nearest-rank percentile.
uint64_t percentile(std::vector<uint64_t> V, unsigned P) {
  std::sort(V.begin(), V.end());
  size_t Rank = (V.size() * P + 99) / 100;
  return V[std::max<size_t>(Rank, 1) - 1];
}

class SoakWorkload final : public Workload {
public:
  SoakWorkload(std::string Scenario, SoakOptions Opt, uint64_t Seed)
      : Scenario(std::move(Scenario)), Opt(Opt), Seed(Seed) {}

  void setup() override { Fw = compileSoakFirmware(Opt.RamBytes); }

  void prepareRound(uint64_t Round) override {
    Stream = generateScenario(Scenario, scenarioOptions(Round));
  }

  void setupTraced(Tracer &T) override {
    // compileSoakFirmware's two calls.
    bedrock2::Program P = T.span("app.build_firmware", [] {
      return app::buildFirmware(app::FirmwareOptions());
    });
    Fw = T.span("compiler.compile", [&] {
      return compiler::compileProgram(
          P, compiler::CompilerOptions::o0(),
          compiler::Entry::eventLoop("lightbulb_init", "lightbulb_loop"),
          Opt.RamBytes);
    });
    Stream = T.span("traffic.generate", [&] {
      return generateScenario(Scenario, scenarioOptions(0));
    });
  }

  RoundResult runRound() override {
    if (!Fw.ok())
      return compileFailure();
    SoakReport R = runSoak(*Fw.Prog, Stream, Opt, Scenario, Seed);
    return check(R.Shards.front());
  }

  RoundResult runTraced(Tracer &T) override {
    if (!Fw.ok())
      return compileFailure();
    const compiler::CompiledProgram &Prog = *Fw.Prog;
    const ScheduledFrame *Begin = Stream.Frames.data();
    const ScheduledFrame *End = Begin + Stream.Frames.size();
    ShardStats S = T.span("traffic.shard", [&] {
      std::unique_ptr<SoakMachine> M =
          T.span("traffic.boot", [&] { return warmBootMachine(Prog, Opt); });
      if (!M)
        M = T.span("traffic.boot", [&] {
          return std::make_unique<SoakMachine>(Prog, Opt.Core, Opt.RamBytes,
                                               Opt.SimExec);
        });
      ShardExit Exit = deliveryLoop(T, *M, Begin, End);
      return T.span("traffic.collect", [&] {
        return collectShardStats(*M, Exit, Begin, End, Opt);
      });
    });
    return check(S);
  }

  RoundResult layerMetrics(const LayerInputs &In, LayerValues &Out) override {
    const ShardStats &S = Last;
    const double Frames = double(S.FramesDelivered);
    const double Wall = In.TracedWallS;
    const double Convert = spanSeconds(In, "traffic.trace_convert");
    const double Monitor = spanSeconds(In, "traffic.monitor");
    Out["traffic.trace_convert_s"] = Convert;
    Out["traffic.trace_convert_share"] = Convert / Wall;
    Out["traffic.trace_ns_per_event"] = ratio(Convert * 1e9, S.MmioEvents);
    Out["traffic.monitor_s"] = Monitor;
    Out["traffic.monitor_share"] = Monitor / Wall;
    Out["traffic.monitor_ns_per_event"] =
        ratio(Monitor * 1e9, S.MonitorEventsSeen);
    const metrics::HistData &Frontier =
        In.Registry.hist(metrics::Id::SoakMonitorFrontier);
    Out["traffic.monitor_frontier_mean"] =
        ratio(double(Frontier.Sum), double(Frontier.Count));
    Out["traffic.mmio_events_per_frame"] = ratio(S.MmioEvents, Frames);
    Out["traffic.fifo_stall_chunks"] =
        double(In.Registry.counter(metrics::Id::SoakFifoStalls));
    Out["traffic.boot_s"] = spanSeconds(In, "traffic.boot");
    Out["traffic.sim_frames_per_mcycle"] = ratio(Frames * 1e6, S.Cycles);
    Out["devices.inject_s"] = spanSeconds(In, "devices.inject");
    Out["devices.accept_ratio"] = ratio(S.FramesAccepted, Frames);
    Out["riscv.retired_per_frame"] = ratio(S.Retired, Frames);
    const double Compile = spanSeconds(In, "compiler.compile");
    Out["compiler.compile_s"] = Compile;
    Out["compiler.share"] = Compile / Wall;
    Out["compiler.code_bytes"] = Fw.ok() ? Fw.Prog->CodeBytes : 0;

    RoundResult Probe;
    if (Opt.Core == SoakCore::Pipelined) {
      const double Run = spanSeconds(In, "kami.run");
      Out["kami.run_s"] = Run;
      Out["kami.run_share"] = Run / Wall;
      Out["kami.host_ns_per_cycle"] = ratio(Run * 1e9, S.Cycles);
      Out["kami.ipc"] = ratio(S.Retired, S.Cycles);
      Out["kami.cycles_per_frame"] = ratio(S.Cycles, Frames);
      Probe.Attempted = 1;
      Actuation A;
      if (Fw.ok())
        A = measureActuation(*Fw.Prog, Opt.RamBytes, Seed);
      if (!A.Ok) {
        Probe.Failed = 1;
        Probe.FirstError = "actuation probe: not every packet was actuated";
        return Probe;
      }
      Out["kami.actuation_cycles_p50"] = double(percentile(A.Latencies, 50));
      Out["kami.actuation_cycles_p90"] = double(percentile(A.Latencies, 90));
      Out["kami.raw_stalls_per_packet"] =
          double(A.Stats.RawStalls) / ActuationPackets;
      Out["kami.mispredicts_per_packet"] =
          double(A.Stats.Mispredicts) / ActuationPackets;
      Out["kami.mmio_stalls_per_packet"] =
          double(A.Stats.MmioStalls) / ActuationPackets;
    } else {
      using metrics::Id;
      const metrics::Snapshot &R = In.Registry;
      const double Run = spanSeconds(In, "riscv.run");
      Out["riscv.run_s"] = Run;
      Out["riscv.run_share"] = Run / Wall;
      Out["riscv.host_ns_per_instr"] = ratio(Run * 1e9, S.Retired);
      const double Trace = double(R.counter(Id::SimBlockTraceInstrs));
      const double Instrs = Trace + double(R.counter(Id::SimBlockColdInstrs));
      Out["riscv.block.trace_ratio"] = ratio(Trace, Instrs);
      Out["riscv.block.side_exits_per_minstr"] =
          ratio(double(R.counter(Id::SimBlockSideExits)) * 1e6, Instrs);
      const double Hits = double(R.counter(Id::SimBlockLinkHits));
      Out["riscv.block.link_hit_ratio"] =
          ratio(Hits, Hits + double(R.counter(Id::SimBlockLinkMisses)));
    }
    return Probe;
  }

private:
  std::string Scenario;
  SoakOptions Opt;
  uint64_t Seed;
  compiler::CompileResult Fw;
  TrafficStream Stream;
  ShardStats Last; ///< The latest round's shard (round 0 after the traced
                   ///< rebuild), for the per-layer ratios.

  /// Each round soaks its own shard of the seed's stream.
  ScenarioOptions scenarioOptions(uint64_t Round) const {
    ScenarioOptions G;
    G.Seed = Seed * 1'000'003 + Round;
    G.Frames = FramesPerShard;
    return G;
  }

  RoundResult compileFailure() const {
    RoundResult R;
    R.Attempted = R.Failed = 1;
    R.FirstError = "firmware compilation failed: " + Fw.Error;
    return R;
  }

  RoundResult check(const ShardStats &S) {
    RoundResult R;
    R.Items = S.FramesDelivered;
    R.Attempted = 1;
    R.Fingerprint = fingerprint(S);
    // Ok covers the streaming monitor and the lightbulb ground truth.
    if (!S.Ok || !S.Drained || S.FramesDelivered != Stream.Frames.size()) {
      R.Failed = 1;
      R.FirstError = "shard failed: " + (S.Error.empty()
                                             ? std::string("not drained")
                                             : S.Error);
    }
    Last = S;
    return R;
  }

  /// runShardLoop in backpressure mode (no inject hook, no boot capture),
  /// with a span around every call into a layer.
  ShardExit deliveryLoop(Tracer &T, SoakMachine &M, const ScheduledFrame *Begin,
                         const ScheduledFrame *End) {
    const char *RunSpan =
        Opt.Core == SoakCore::Pipelined ? "kami.run" : "riscv.run";
    const size_t NumFrames = size_t(End - Begin);
    devices::Platform &Plat = M.platform();
    if (NumFrames > M.NextFrame)
      M.Delivered.reserve(M.Delivered.size() + (NumFrames - M.NextFrame));
    for (;;) {
      while (M.NextFrame < NumFrames && Plat.nic().rxEnabled() &&
             Plat.nic().bufferedFrames() < Opt.FrameBudget) {
        const ScheduledFrame &F = Begin[M.NextFrame];
        T.span("devices.inject", [&] { Plat.injectNow(F.Frame, F.Errored); });
        M.Delivered.push_back(
            ScheduledFrame{Plat.opCount(), F.Frame, F.Errored});
        ++M.NextFrame;
      }
      if (M.NextFrame == NumFrames && Plat.nic().bufferedFrames() == 0) {
        if (M.DrainFlagged)
          return ShardExit::Completed;
        M.DrainFlagged = true;
      }
      if (M.Elapsed >= Opt.MaxCyclesPerShard)
        return ShardExit::BudgetExhausted;
      bool Ok = true;
      M.Elapsed +=
          T.span(RunSpan, [&] { return M.runChunk(Opt.ChunkCycles, Ok); });
      if (M.engineDiverged())
        return ShardExit::Diverged;
      if (!Ok)
        return ShardExit::HitUb;
      const riscv::MmioTrace &Trace = T.span(
          "traffic.trace_convert",
          [&]() -> const riscv::MmioTrace & { return M.trace(); });
      if (!T.span("traffic.monitor",
                  [&] { return M.monitor().pollTrace(Trace); }))
        return ShardExit::Violated;
    }
  }
};

} // namespace

std::unique_ptr<Workload>
b2::stackbench::makeSoakWorkload(const std::string &Name, uint64_t Seed) {
  SoakOptions Opt;
  Opt.Threads = 1;
  Opt.FramesPerShard = FramesPerShard;
  if (Name == "soak-pipelined") {
    Opt.Core = SoakCore::Pipelined;
    return std::make_unique<SoakWorkload>("valid-mix", Opt, Seed);
  }
  if (Name == "soak-isa-adversarial") {
    Opt.Core = SoakCore::IsaSim;
    Opt.SimExec = riscv::ExecMode::Block;
    return std::make_unique<SoakWorkload>("adversarial", Opt, Seed);
  }
  return nullptr;
}
