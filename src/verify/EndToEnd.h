//===- verify/EndToEnd.h - end2end_lightbulb, executably -------*- C++ -*-===//
//
// Part of the b2stack project (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The executable counterpart of the paper's end-to-end theorem
/// (section 5.9):
///
/// \code
///   Theorem end2end_lightbulb: forall mem0 t,
///     bytes_at (instrencode lightbulb_insts) 0 mem0  AND
///     Trace (p4mm mem0) t  ->
///     exists t', KamiRiscv.KamiLabelSeqR t t'  AND
///                prefix_of t' goodHlTrace.
/// \endcode
///
/// The harness compiles the firmware, places the encoded instructions at
/// address 0, runs the chosen processor model against a scripted packet
/// scenario, maps the label trace through KamiLabelSeqR, and checks prefix
/// membership in goodHlTrace. The system under test is the soak harness's
/// traffic::SoakMachine; only the delivery differs — frames arrive at
/// their scheduled op counts instead of under backpressure. The harness
/// additionally checks a *ground truth* the paper gets for free from the
/// theorem statement: the physical lightbulb state changes exactly
/// according to the valid command frames the NIC accepted, no matter how
/// malformed the other traffic was.
///
//===----------------------------------------------------------------------===//

#ifndef B2_VERIFY_ENDTOEND_H
#define B2_VERIFY_ENDTOEND_H

#include "app/Firmware.h"
#include "compiler/Compile.h"
#include "devices/Platform.h"
#include "kami/PipelinedCore.h"
#include "riscv/BlockEngine.h"
#include "riscv/Mmio.h"
#include "tracespec/Matcher.h"
#include "traffic/Soak.h"

#include <cstdint>
#include <string>
#include <vector>

namespace b2 {
namespace verify {

/// The firmware is compiled at -O0 for a 64 KiB RAM and runs against the
/// default LAN9250 configuration.
struct E2EOptions {
  traffic::SoakCore Core = traffic::SoakCore::Pipelined;
  kami::PipeConfig Pipe;
  devices::SpiConfig Spi;          ///< Default: verified (no pipelining).
  app::FirmwareOptions Firmware;   ///< Default: verified firmware.
  uint64_t MaxCycles = 400'000'000;
  /// Execution engine of the ISA simulator (SoakCore::IsaSim only).
  /// Block (the default) runs the superblock trace engine, Reference
  /// the reference stepper alone; Differential additionally checks the
  /// engine in lockstep against the reference stepper and fails the run
  /// on the first divergence.
  riscv::ExecMode SimExec = riscv::ExecMode::Block;
};

/// A packet arrival script (op-count scheduled; see devices/Platform.h).
struct E2EScenario {
  std::vector<devices::ScheduledFrame> Frames;
};

struct E2EResult {
  bool Ok = false;            ///< Prefix + ground truth + no UB.
  bool PrefixAccepted = false;
  bool GroundTruthOk = false;
  std::string Error;
  tracespec::MatchDiagnosis Diag; ///< Spec-matcher diagnostics.
  riscv::MmioTrace Trace;         ///< KamiLabelSeqR of the run.
  std::vector<bool> LightHistory; ///< Observed distinct lightbulb states.
  std::vector<bool> ExpectedLights; ///< Ground-truth distinct states.
  size_t AcceptedFrames = 0;
  uint64_t Cycles = 0;
  uint64_t Retired = 0;
  double RunSeconds = 0; ///< Wall time of the execution loop alone —
                         ///< machine construction, trace-spec matching,
                         ///< and ground-truth checks excluded. This is
                         ///< the number throughput benchmarks divide by.
};

/// Builds and runs the whole system on \p Scenario.
E2EResult runLightbulbEndToEnd(const E2EScenario &Scenario,
                               const E2EOptions &Options);

/// Same, but with a pre-compiled firmware image (avoids recompiling in
/// loops; the image must be the firmware configured as in \p Options).
E2EResult runCompiledEndToEnd(const compiler::CompiledProgram &Prog,
                              const E2EScenario &Scenario,
                              const E2EOptions &Options);

/// Builds a randomized adversarial scenario: \p NumFrames frames from the
/// packet fuzzer, scheduled \p OpSpacing MMIO-operations apart starting
/// after \p FirstAtOp.
E2EScenario fuzzScenario(uint64_t Seed, unsigned NumFrames,
                         uint64_t FirstAtOp = 2000,
                         uint64_t OpSpacing = 3000);

} // namespace verify
} // namespace b2

#endif // B2_VERIFY_ENDTOEND_H
