//===- verify/EndToEnd.cpp - end2end_lightbulb, executably -------------------==//
//
// Part of the b2stack project (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//

#include "verify/EndToEnd.h"

#include "app/LightbulbSpec.h"
#include "devices/Net.h"
#include "support/Format.h"
#include "traffic/Checkpoint.h"

#include <chrono>

using namespace b2;
using namespace b2::verify;
using namespace b2::devices;

constexpr Word RamBytes = 64 * 1024;
constexpr uint64_t DrainChunk = 200'000; ///< Cycles per drain-check chunk.

E2EResult b2::verify::runCompiledEndToEnd(const compiler::CompiledProgram &Prog,
                                          const E2EScenario &Scenario,
                                          const E2EOptions &Options) {
  E2EResult R;
  traffic::SoakMachine M(Prog, Options.Core, RamBytes, Options.SimExec,
                         Options.Pipe, Options.Spi);
  Platform &Plat = M.platform();
  for (const ScheduledFrame &F : Scenario.Frames)
    Plat.scheduleFrame(F.AtOp, F.Frame, F.Errored);

  // Run in chunks until the scenario is fully delivered and drained, then
  // one settle chunk (so the final frame's iteration completes). Delivery
  // is op-count-based: once the op counter passed the last schedule point
  // and the NIC queue is empty, the system is quiescent. The loop runs to
  // drain even after the trace has left goodHlTrace — the verdict below
  // diagnoses the whole run. Only this loop is timed: RunSeconds is the
  // engine's execution cost, with construction and the verification
  // passes below excluded.
  const uint64_t LastAt =
      Scenario.Frames.empty() ? 0 : Scenario.Frames.back().AtOp;
  auto RunStart = std::chrono::steady_clock::now();
  while (M.Elapsed < Options.MaxCycles) {
    bool Ok = true;
    M.Elapsed += M.runChunk(DrainChunk, Ok);
    if (M.engineDiverged())
      R.Error =
          "ISA simulator engine divergence: " + M.engineDivergenceDetail();
    else if (!Ok)
      R.Error = "ISA simulator hit UB: " + M.simUbDetail();
    if (!R.Error.empty()) {
      R.Trace = M.trace();
      return R;
    }
    if (Plat.opCount() > LastAt + 100 && Plat.nic().bufferedFrames() == 0) {
      if (M.DrainFlagged)
        break;
      M.DrainFlagged = true; // One more settle chunk.
    }
  }

  R.RunSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    RunStart)
          .count();
  R.Trace = M.trace();
  R.Cycles = M.Elapsed;
  R.Retired = M.retired();
  R.AcceptedFrames = Plat.acceptedFrames().size();

  // The theorem's conclusion: prefix membership in goodHlTrace.
  R.Diag = tracespec::Matcher(app::goodHlTrace()).diagnose(R.Trace);
  R.PrefixAccepted = R.Diag.PrefixAccepted;
  if (!R.PrefixAccepted) {
    R.Error = "trace rejected at event " + std::to_string(R.Diag.DeadAt) +
              " (" + R.Diag.FailingEvent + "); expected one of: " +
              support::join(R.Diag.ExpectedHere, " | ");
  }

  // Ground truth: the lightbulb tracked exactly the valid commands.
  R.LightHistory = Plat.gpio().lightHistory();
  R.ExpectedLights = traffic::expectedLightSequence(Plat.acceptedFrames());
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
      P, compiler::CompilerOptions::o0(),
      compiler::Entry::eventLoop("lightbulb_init", "lightbulb_loop"),
      RamBytes);
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
