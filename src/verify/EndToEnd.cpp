//===- verify/EndToEnd.cpp - end2end_lightbulb, executably -------------------==//
//
// Part of the b2stack project (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//

#include "verify/EndToEnd.h"

#include "app/LightbulbSpec.h"
#include "devices/Net.h"
#include "kami/SpecCore.h"
#include "riscv/Machine.h"
#include "riscv/Step.h"
#include "support/Format.h"
#include "traffic/Checkpoint.h"

#include <chrono>
#include <memory>

using namespace b2;
using namespace b2::verify;
using namespace b2::devices;

namespace {

/// Uniform driver over the three execution substrates.
class SystemRunner {
public:
  SystemRunner(const compiler::CompiledProgram &Prog,
               const E2EScenario &Scenario, const E2EOptions &Options)
      : Options(Options), Plat(Options.Spi, Options.Lan) {
    for (const ScheduledFrame &F : Scenario.Frames)
      Plat.scheduleFrame(F.AtOp, F.Frame, F.Errored);
    switch (Options.Core) {
    case CoreKind::IsaSim:
      Sim = std::make_unique<riscv::Machine>(Options.RamBytes);
      Sim->loadImage(0, Prog.image());
      if (Options.SimExec != riscv::ExecMode::Reference)
        Engine =
            std::make_unique<riscv::BlockEngine>(*Sim, Plat, Options.SimExec);
      break;
    case CoreKind::SpecCore:
      Mem = std::make_unique<kami::Bram>(Options.RamBytes);
      Mem->loadImage(Prog.image());
      Spec = std::make_unique<kami::SpecCore>(*Mem, Plat);
      break;
    case CoreKind::Pipelined:
      Mem = std::make_unique<kami::Bram>(Options.RamBytes);
      Mem->loadImage(Prog.image());
      Pipe = std::make_unique<kami::PipelinedCore>(*Mem, Plat, Options.Pipe);
      break;
    }
  }

  /// Runs \p Cycles cycles (instructions, for the ISA sim). Returns false
  /// if the substrate cannot continue (ISA-sim UB).
  bool run(uint64_t Cycles) {
    switch (Options.Core) {
    case CoreKind::IsaSim: {
      if (Engine)
        Engine->run(Cycles);
      else
        riscv::run(*Sim, Plat, Cycles);
      if (Engine && Engine->divergences() > 0)
        return false;
      return !Sim->hasUb();
    }
    case CoreKind::SpecCore:
      Spec->run(Cycles);
      return true;
    case CoreKind::Pipelined:
      Pipe->run(Cycles);
      return true;
    }
    return false;
  }

  /// Trace under KamiLabelSeqR, by reference: the ISA simulator's trace
  /// is already in event form; the Kami cores' label sequences are
  /// converted incrementally, so polling is O(new events).
  const riscv::MmioTrace &trace() {
    switch (Options.Core) {
    case CoreKind::IsaSim:
      return Sim->trace();
    case CoreKind::SpecCore:
      return Converted.update(Spec->labels());
    case CoreKind::Pipelined:
      return Converted.update(Pipe->labels());
    }
    return Converted.trace();
  }

  uint64_t retired() const {
    switch (Options.Core) {
    case CoreKind::IsaSim:
      return Sim->retiredInstructions();
    case CoreKind::SpecCore:
      return Spec->retired();
    case CoreKind::Pipelined:
      return Pipe->retired();
    }
    return 0;
  }

  bool simUb() const {
    return Options.Core == CoreKind::IsaSim && Sim->hasUb();
  }

  std::string simUbDetail() const {
    return std::string(riscv::ubKindName(Sim->ubKind())) + ": " +
           Sim->ubDetail();
  }

  bool engineDiverged() const { return Engine && Engine->divergences() > 0; }

  std::string engineDivergenceDetail() const {
    return Engine ? Engine->divergenceDetail() : std::string();
  }

  Platform &platform() { return Plat; }

private:
  const E2EOptions &Options;
  Platform Plat;
  std::unique_ptr<riscv::Machine> Sim;
  std::unique_ptr<riscv::BlockEngine> Engine; ///< IsaSim non-Reference modes.
  std::unique_ptr<kami::Bram> Mem;
  std::unique_ptr<kami::SpecCore> Spec;
  std::unique_ptr<kami::PipelinedCore> Pipe;
  kami::LabelSeqConverter Converted; ///< Kami cores' KamiLabelSeqR image.
};

} // namespace

E2EResult b2::verify::runCompiledEndToEnd(const compiler::CompiledProgram &Prog,
                                          const E2EScenario &Scenario,
                                          const E2EOptions &Options) {
  E2EResult R;
  SystemRunner Runner(Prog, Scenario, Options);

  // Run in chunks until the scenario is fully delivered and drained, then
  // one settle chunk (so the final frame's iteration completes). Only
  // this loop is timed: RunSeconds is the engine's execution cost, with
  // construction and the verification passes below excluded.
  uint64_t Elapsed = 0;
  bool Drained = false;
  auto RunStart = std::chrono::steady_clock::now();
  while (Elapsed < Options.MaxCycles) {
    if (!Runner.run(Options.DrainChunk)) {
      if (Runner.engineDiverged())
        R.Error = "ISA simulator engine divergence: " +
                  Runner.engineDivergenceDetail();
      else
        R.Error = "ISA simulator hit UB: " + Runner.simUbDetail();
      R.Trace = Runner.trace();
      return R;
    }
    Elapsed += Options.DrainChunk;
    // Delivery is op-count-based: once the op counter passed the last
    // schedule point and the NIC queue is empty, the system is quiescent.
    uint64_t LastAt = Scenario.Frames.empty() ? 0 : Scenario.Frames.back().AtOp;
    if (Runner.platform().opCount() > LastAt + 100 &&
        Runner.platform().nic().bufferedFrames() == 0) {
      if (Drained)
        break;
      Drained = true; // One more settle chunk.
    }
  }

  R.RunSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    RunStart)
          .count();
  R.Trace = Runner.trace();
  R.Cycles = Elapsed;
  R.Retired = Runner.retired();
  R.AcceptedFrames = Runner.platform().acceptedFrames().size();

  // The theorem's conclusion: prefix membership in goodHlTrace.
  tracespec::Matcher M(app::goodHlTrace());
  R.Diag = M.diagnose(R.Trace);
  R.PrefixAccepted = R.Diag.PrefixAccepted;
  if (!R.PrefixAccepted) {
    R.Error = "trace rejected at event " + std::to_string(R.Diag.DeadAt) +
              " (" + R.Diag.FailingEvent + "); expected one of: " +
              support::join(R.Diag.ExpectedHere, " | ");
  }

  // Ground truth: the lightbulb tracked exactly the valid commands.
  R.LightHistory = Runner.platform().gpio().lightHistory();
  R.ExpectedLights =
      traffic::expectedLightSequence(Runner.platform().acceptedFrames());
  R.GroundTruthOk = R.LightHistory == R.ExpectedLights;
  if (!R.GroundTruthOk && R.Error.empty())
    R.Error = "lightbulb state history does not match the accepted valid "
              "commands (observed " +
              std::to_string(R.LightHistory.size()) + " changes, expected " +
              std::to_string(R.ExpectedLights.size()) + ")";

  R.Ok = R.PrefixAccepted && R.GroundTruthOk;
  return R;
}

E2EResult b2::verify::runLightbulbEndToEnd(const E2EScenario &Scenario,
                                           const E2EOptions &Options) {
  bedrock2::Program P = app::buildFirmware(Options.Firmware);
  compiler::CompileResult C = compiler::compileProgram(
      P, Options.Compiler,
      compiler::Entry::eventLoop("lightbulb_init", "lightbulb_loop"),
      Options.RamBytes);
  if (!C.ok()) {
    E2EResult R;
    R.Error = "firmware compilation failed: " + C.Error;
    return R;
  }
  return runCompiledEndToEnd(*C.Prog, Scenario, Options);
}

E2EScenario b2::verify::fuzzScenario(uint64_t Seed, unsigned NumFrames,
                                     uint64_t FirstAtOp, uint64_t OpSpacing) {
  E2EScenario S;
  PacketFuzzer Fuzzer(Seed);
  uint64_t At = FirstAtOp;
  for (unsigned I = 0; I != NumFrames; ++I) {
    PacketFuzzer::Generated G = Fuzzer.next();
    S.Frames.push_back(ScheduledFrame{At, std::move(G.Frame), G.MarkErrored});
    At += OpSpacing;
  }
  return S;
}
