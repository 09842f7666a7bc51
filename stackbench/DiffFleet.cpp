//===- stackbench/DiffFleet.cpp - diff-fleet workload ---------------------===//
//
// Part of the b2stack project (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
//
// A round is one pass of verify::diffCompilePure over a fleet of seeded
// random programs (tests/RandomProgram.h, UB-free and terminating by
// construction): each program runs on the bytecode interpreter under
// three stackalloc placements, is compiled at -O0, runs on the ISA
// machine through the predecoded riscv::step stepper, and both sides'
// MMIO traces and return values must agree. This is the only workload
// that runs the compiler per input, the bytecode engine, and riscv::step.
//
// The traced round rebuilds diffCompile from bedrock2::Interp,
// compiler::compileProgram and riscv::step. The step calls (tens of ns
// each) are timed by one span per program around the stepping loop: a
// span per call would cost more than the call it measures.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "RandomProgram.h"
#include "bedrock2/ExtSpec.h"
#include "riscv/Step.h"
#include "verify/CompilerDiff.h"

using namespace b2;
using namespace b2::stackbench;
using namespace b2::verify;

namespace {

constexpr unsigned FleetPrograms = 256;

/// The generator's defaults nest loops three deep per function, and with
/// helper calls inside loops a rare program then retires more than
/// DiffOptions' 50M-step machine budget, so its diff fails on the budget,
/// not on a miscompile (one in ~10^4 programs). Two levels keep every
/// program well inside the budget; all other options stay the defaults.
const b2::testing::RandomProgramOptions GenOptions = [] {
  b2::testing::RandomProgramOptions O;
  O.MaxDepth = 2;
  return O;
}();

struct Case {
  bedrock2::Program Prog;
  std::vector<Word> Args;
};

uint64_t fingerprint(const DiffResult &R) {
  Fnv F;
  F.mix(R.Ok).mix(uint64_t(R.Source.F)).mix(R.Source.StepsUsed);
  F.mix(R.MachineRetired);
  for (Word W : R.Source.Rets)
    F.mix(W);
  for (Word W : R.MachineRets)
    F.mix(W);
  for (const riscv::MmioTrace *T : {&R.SourceTrace, &R.MachineTrace})
    for (const riscv::MmioEvent &E : *T)
      F.mix(E.IsStore).mix(E.Addr).mix(E.Value).mix(E.Size);
  return F.H;
}

/// diffCompile with a NoDevice (diffCompilePure), with spans around the
/// calls into the interpreter, the compiler and the ISA machine. Error
/// texts are shortened; the verdict and every compared value are the
/// same. Adds the compiled code size to \p CodeBytes.
DiffResult diffTraced(Tracer &T, const bedrock2::Program &P,
                      const std::string &Fn, const std::vector<Word> &Args,
                      const DiffOptions &Options, uint64_t &CodeBytes) {
  DiffResult R;
  riscv::MmioTrace FirstTrace;
  std::vector<Word> FirstRets;
  bool First = true;
  for (Word Salt : Options.StackallocSalts) {
    riscv::NoDevice Dev;
    bedrock2::MmioExtSpec Ext(Dev, Options.RamBytes);
    bedrock2::StackallocPolicy Policy;
    Policy.Salt = Salt;
    uint64_t Divergences = 0;
    bedrock2::ExecResult Src = T.span("bedrock2.interp", [&] {
      bedrock2::Interp I(P, Ext, Options.SourceFuel, Policy,
                         Options.SourceMode);
      for (const auto &[Addr, Len] : Options.OwnRegions)
        I.ownMemory(Addr, Len);
      bedrock2::ExecResult Res = I.callFunction(Fn, Args);
      Divergences = I.divergenceCount();
      return Res;
    });
    if (Divergences != 0) {
      R.Error = "source interpreter divergence";
      R.Source = std::move(Src);
      return R;
    }
    if (!Src.ok()) {
      R.Source = std::move(Src);
      R.Ok = true;
      return R;
    }
    if (First) {
      FirstTrace = Ext.mmioTrace();
      FirstRets = Src.Rets;
      First = false;
    } else if (FirstTrace != Ext.mmioTrace() || FirstRets != Src.Rets) {
      R.Error = "source behavior depends on stackalloc placement";
      R.Source = std::move(Src);
      return R;
    }
    R.Source = std::move(Src);
  }
  R.SourceTrace = FirstTrace;

  compiler::CompileResult C = T.span("compiler.compile", [&] {
    return compiler::compileProgram(P, Options.Compiler,
                                    compiler::Entry::singleCall(Fn, Args),
                                    Options.RamBytes);
  });
  if (!C.ok()) {
    R.Error = "compilation failed: " + C.Error;
    return R;
  }
  const compiler::CompiledProgram &Prog = *C.Prog;
  CodeBytes += Prog.CodeBytes;

  riscv::NoDevice Dev;
  std::unique_ptr<riscv::Machine> M = T.span("riscv.machine_init", [&] {
    auto New = std::make_unique<riscv::Machine>(Options.RamBytes);
    New->loadImage(0, Prog.image());
    return New;
  });
  T.span("riscv.step", [&] {
    uint64_t Steps = 0;
    while (Steps < Options.MachineMaxSteps && M->getPc() != Prog.HaltPc &&
           riscv::step(*M, Dev))
      ++Steps;
  });
  if (M->hasUb()) {
    R.Error = "machine-level UB: " + M->ubDetail();
    R.MachineTrace = M->trace();
    return R;
  }
  if (M->getPc() != Prog.HaltPc) {
    R.Error = "machine did not reach the halt PC";
    return R;
  }
  R.MachineTrace = M->trace();
  R.MachineRetired = M->retiredInstructions();
  if (!M->rangeExecutable(0, Prog.CodeBytes)) {
    R.Error = "program image lost executability";
    return R;
  }
  if (R.SourceTrace != R.MachineTrace) {
    R.Error = "MMIO traces differ";
    return R;
  }
  const bedrock2::Function *F = P.find(Fn);
  for (size_t I = 0; F && I != F->Rets.size() && I < 8; ++I)
    R.MachineRets.push_back(M->getReg(10 + unsigned(I)));
  if (R.MachineRets != R.Source.Rets) {
    R.Error = "return values differ";
    return R;
  }
  R.Ok = true;
  return R;
}

class DiffFleetWorkload final : public Workload {
public:
  explicit DiffFleetWorkload(uint64_t Seed) : Seed(Seed) {}

  void setup() override {}

  void prepareRound(uint64_t Round) override { Fleet = generateFleet(Round); }

  void setupTraced(Tracer &T) override {
    Fleet = T.span("bedrock2.generate", [&] { return generateFleet(0); });
  }

  RoundResult runRound() override {
    Results.clear();
    for (const Case &C : Fleet)
      Results.push_back(diffCompilePure(C.Prog, "main", C.Args, Options));
    return check();
  }

  RoundResult runTraced(Tracer &T) override {
    Results.clear();
    CodeBytes = 0;
    for (const Case &C : Fleet)
      Results.push_back(T.span("verify.diff", [&] {
        return diffTraced(T, C.Prog, "main", C.Args, Options, CodeBytes);
      }));
    return check();
  }

  RoundResult layerMetrics(const LayerInputs &In, LayerValues &Out) override {
    using metrics::Id;
    const metrics::Snapshot &Reg = In.Registry;
    const double Compile = spanSeconds(In, "compiler.compile");
    const double Interp = spanSeconds(In, "bedrock2.interp");
    Out["compiler.compile_s"] = Compile;
    Out["compiler.share"] = Compile / In.TracedWallS;
    Out["bedrock2.interp_s"] = Interp;
    Out["bedrock2.steps_per_s"] =
        ratio(double(Reg.counter(Id::InterpExecSteps)), Interp);
    Out["bedrock2.fuse_hit_ratio"] =
        ratio(double(Reg.counter(Id::InterpFuseHits)),
              double(Reg.counter(Id::InterpCompileInsnsIn)));
    Out["riscv.step_s"] = spanSeconds(In, "riscv.step");
    Out["compiler.code_bytes"] = ratio(double(CodeBytes), double(Fleet.size()));
    return RoundResult();
  }

private:
  uint64_t Seed;
  DiffOptions Options;
  std::vector<Case> Fleet;
  std::vector<DiffResult> Results; ///< The latest round's, in fleet order.
  uint64_t CodeBytes = 0;          ///< Compiled size, summed by the traced
                                   ///< round.

  /// Round \p Round's fleet: FleetPrograms fresh programs and arguments.
  std::vector<Case> generateFleet(uint64_t Round) const {
    std::vector<Case> Out;
    for (unsigned I = 0; I != FleetPrograms; ++I) {
      uint64_t S = (Seed * 1'000'003 + Round) * FleetPrograms + I;
      b2::testing::RandomProgramGen Gen(S, GenOptions);
      support::Rng Rng(S * 31 + 7);
      Word A = Rng.interestingWord();
      Word B = Rng.interestingWord();
      Out.push_back(Case{Gen.generate(), {A, B}});
    }
    return Out;
  }

  RoundResult check() const {
    RoundResult R;
    Fnv F;
    for (size_t I = 0; I != Results.size(); ++I) {
      const DiffResult &D = Results[I];
      F.mix(fingerprint(D));
      ++R.Attempted;
      // Source UB would make the diff vacuous; the generator rules it out.
      if (D.Ok && D.Source.ok())
        continue;
      ++R.Failed;
      if (R.FirstError.empty())
        R.FirstError = "program " + std::to_string(I) + ": " +
                       (D.Error.empty() ? "source UB: " + D.Source.Detail
                                        : D.Error);
    }
    R.Items = Results.size();
    R.Fingerprint = F.H;
    return R;
  }
};

} // namespace

std::unique_ptr<Workload>
b2::stackbench::makeDiffFleetWorkload(uint64_t Seed) {
  return std::make_unique<DiffFleetWorkload>(Seed);
}
