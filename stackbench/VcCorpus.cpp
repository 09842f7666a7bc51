//===- stackbench/VcCorpus.cpp - vc-corpus workload -----------------------===//
//
// Part of the b2stack project (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
//
// A round is one pass of vc::verifyFunction, default options (probes on,
// a private proof cache per function), over the 16 targets whose answers
// are known: the three contracted firmware functions and the seven
// vcExamples() are Valid, and the six vcBugExamples() are Counterexample
// with their Expected fault. No simulator runs.
//
// Every round verifies the same corpus, and the seed changes nothing:
// the default options fix the probe seed, the only random input of a
// verdict. A seeded probe seed would not do: the probes of lightbulb_loop
// are most of a round's time, and their cost swings 3x between probe
// seeds, so the run-to-run spread would measure the seed, not the engine.
//
// The traced round rebuilds verifyFunction from genVCs, discharge,
// replayModel and probeValid.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "app/Firmware.h"
#include "vc/Corpus.h"
#include "vc/Vc.h"

using namespace b2;
using namespace b2::stackbench;
using namespace b2::vc;

namespace {

struct Target {
  std::string Label;
  std::string Func;
  const bedrock2::Program *Prog;
  Verdict Expected;
  bedrock2::Fault ExpectedFault; ///< Counterexample targets only.
};

uint64_t fingerprint(const FuncReport &R) {
  Fnv F;
  F.mix(uint64_t(R.V));
  for (uint64_t V : {uint64_t(R.Proved), uint64_t(R.Trivial),
                     uint64_t(R.Unconfirmed), uint64_t(R.ProbeViolations),
                     uint64_t(R.CexFault), R.Solver.Clauses,
                     R.Solver.Conflicts, R.Solver.Decisions,
                     R.Solver.Propagations, R.DagNodes,
                     R.Pipeline.CacheHits, R.Pipeline.CacheMisses,
                     R.Pipeline.SliceDroppedAssumes, R.Pipeline.ColdSolves,
                     R.Pipeline.DiffMismatches})
    F.mix(V);
  for (uint64_t K : R.Pipeline.TierKills)
    F.mix(K);
  for (Word A : R.CexArgs)
    F.mix(A);
  for (const ObReport &O : R.Obligations)
    F.mix(uint64_t(O.Kind)).mix(uint64_t(O.Status)).mix(uint64_t(O.Tier));
  return F.H;
}

/// verifyFunction's body, with a span around each call into a layer. The
/// metrics registry updates are left out: they are not results.
FuncReport verifyTraced(Tracer &T, const bedrock2::Program &P,
                        const std::string &Func, const std::string &Label,
                        const VcOptions &Opts) {
  FuncReport Rep;
  Rep.Program = Label;
  Rep.Func = Func;
  ExprArena Arena;
  WpResult Wp =
      T.span("vc.wp", [&] { return genVCs(P, Func, Arena, Opts.Wp); });
  if (!Wp.Ok) {
    Rep.Error = Wp.Error;
    Rep.V = Verdict::Unknown;
    return Rep;
  }
  ReplayOptions ROpts;
  ROpts.Fuel = Opts.ReplayFuel;
  ROpts.RamBytes = Opts.Wp.RamBytes;
  ROpts.Stack = Opts.Wp.Stack;
  DischargeResult DR = T.span("vc.discharge", [&] {
    return discharge(Arena, Wp, Opts.Solve, Opts.Discharge, Opts.SharedCache);
  });
  Rep.Pipeline = DR.Counters;
  Rep.DiffDetail = DR.DiffDetail;

  bool AllProved = DR.Counters.DiffMismatches == 0;
  for (size_t I = 0; I < Wp.Obligations.size(); ++I) {
    const Obligation &Ob = Wp.Obligations[I];
    ObOutcome &Out = DR.Outcomes[I];
    ObReport OR;
    OR.Kind = Ob.Kind;
    OR.Where = Ob.Where;
    OR.Expected = Ob.Expected;
    OR.Tier = Out.Tier;
    Rep.Solver.Clauses += Out.Stats.Clauses;
    Rep.Solver.Conflicts += Out.Stats.Conflicts;
    Rep.Solver.Decisions += Out.Stats.Decisions;
    Rep.Solver.Propagations += Out.Stats.Propagations;
    switch (Out.Status) {
    case SolveStatus::Unsat:
      OR.Status = Out.Trivial ? ObStatus::ProvedTrivial : ObStatus::Proved;
      Rep.Trivial += Out.Trivial;
      ++Rep.Proved;
      break;
    case SolveStatus::Unknown:
      OR.Status = ObStatus::BudgetExhausted;
      AllProved = false;
      break;
    case SolveStatus::Sat: {
      if (Ob.Kind == ObKind::Coverage) {
        OR.Status = ObStatus::CoverageIncomplete;
        AllProved = false;
        break;
      }
      ReplayOutcome RO = T.span("vc.replay", [&] {
        return replayModel(P, Func, Arena, Wp, Out.Model, Ob.Expected, ROpts);
      });
      if (RO.Confirmed) {
        OR.Status = ObStatus::CexConfirmed;
        Rep.Obligations.push_back(OR);
        Rep.V = Verdict::Counterexample;
        Rep.CexWhere = Ob.Where;
        Rep.CexFault = Ob.Expected;
        Rep.CexArgs = RO.Args;
        Rep.CexDetail = RO.Detail;
        Rep.DagNodes = Arena.size();
        return Rep;
      }
      OR.Status = ObStatus::CexUnconfirmed;
      AllProved = false;
      if (!Ob.HavocTainted)
        ++Rep.Unconfirmed;
      break;
    }
    }
    Rep.Obligations.push_back(OR);
  }

  Rep.V = AllProved ? Verdict::Valid : Verdict::Unknown;
  if (Rep.V == Verdict::Valid && Opts.ProbeValidVerdicts) {
    std::string Detail;
    Rep.ProbeViolations = T.span("bedrock2.probe", [&] {
      return probeValid(P, Func, Opts.Probes, Opts.ProbeSeed, Detail, ROpts);
    });
    if (Rep.ProbeViolations != 0) {
      Rep.V = Verdict::Unknown;
      Rep.CexDetail = Detail;
    }
  }
  Rep.DagNodes = Arena.size();
  return Rep;
}

class VcCorpusWorkload final : public Workload {
public:
  void setup() override { build([](auto &&Fn) { return Fn(); }); }

  void prepareRound(uint64_t) override {}

  void setupTraced(Tracer &T) override {
    build([&T](auto &&Fn) { return T.span("app.build_corpus", Fn); });
  }

  RoundResult runRound() override {
    Reports.clear();
    for (const Target &Tg : Targets)
      Reports.push_back(verifyFunction(*Tg.Prog, Tg.Func, Tg.Label, Opts));
    return check();
  }

  RoundResult runTraced(Tracer &T) override {
    Reports.clear();
    for (const Target &Tg : Targets)
      Reports.push_back(T.span("vc.verify", [&] {
        return verifyTraced(T, *Tg.Prog, Tg.Func, Tg.Label, Opts);
      }));
    return check();
  }

  RoundResult layerMetrics(const LayerInputs &In, LayerValues &Out) override {
    uint64_t Obligations = 0, Cheap = 0, Hits = 0, Misses = 0, Conflicts = 0,
             Clauses = 0;
    for (const FuncReport &R : Reports) {
      Obligations += R.Obligations.size();
      Cheap += R.Pipeline.TierKills[size_t(DischargeTier::Interval)] +
               R.Pipeline.TierKills[size_t(DischargeTier::Rewrite)];
      Hits += R.Pipeline.CacheHits;
      Misses += R.Pipeline.CacheMisses;
      Conflicts += R.Solver.Conflicts;
      Clauses += R.Solver.Clauses;
    }
    Out["vc.wp_s"] = spanSeconds(In, "vc.wp");
    Out["vc.discharge_s"] = spanSeconds(In, "vc.discharge");
    Out["vc.replay_s"] = spanSeconds(In, "vc.replay");
    Out["bedrock2.probe_s"] = spanSeconds(In, "bedrock2.probe");
    Out["vc.cheap_tier_kill_ratio"] = ratio(Cheap, Obligations);
    Out["vc.cache_hit_ratio"] = ratio(Hits, Hits + Misses);
    Out["vc.solver_conflicts"] = double(Conflicts);
    Out["vc.solver_clauses"] = double(Clauses);
    return RoundResult();
  }

private:
  VcOptions Opts;
  bedrock2::Program Firmware;
  std::vector<VcExample> Examples;
  std::vector<VcBugExample> Bugs;
  std::vector<Target> Targets;
  std::vector<FuncReport> Reports; ///< The latest round's, in target order.

  /// Builds the corpus; \p Call wraps each construction call (in a span, when
  /// traced).
  template <class Wrap> void build(Wrap &&Call) {
    app::FirmwareOptions Fw;
    Fw.Timeouts = true;
    Firmware = Call([&] { return app::buildFirmware(Fw); });
    Examples = Call([] { return vcExamples(); });
    Bugs = Call([] { return vcBugExamples(); });
    Targets.clear();
    for (const char *Fn : {"spi_write", "spi_read", "lightbulb_loop"})
      Targets.push_back({"firmware", Fn, &Firmware, Verdict::Valid,
                         bedrock2::Fault::None});
    for (const VcExample &E : Examples)
      Targets.push_back(
          {E.Name, E.Func, &E.Prog, Verdict::Valid, bedrock2::Fault::None});
    for (const VcBugExample &E : Bugs)
      Targets.push_back(
          {E.Name, E.Func, &E.Prog, Verdict::Counterexample, E.Expected});
  }

  RoundResult check() const {
    RoundResult R;
    Fnv F;
    for (size_t I = 0; I != Targets.size(); ++I) {
      const Target &Tg = Targets[I];
      const FuncReport &Rep = Reports[I];
      F.mix(fingerprint(Rep));
      ++R.Attempted;
      bool Right = Rep.Error.empty() && Rep.V == Tg.Expected &&
                   Rep.Unconfirmed == 0 &&
                   (Tg.Expected != Verdict::Counterexample ||
                    Rep.CexFault == Tg.ExpectedFault);
      if (Right)
        continue;
      ++R.Failed;
      if (R.FirstError.empty())
        R.FirstError = Tg.Label + "/" + Tg.Func + ": verdict " +
                       verdictName(Rep.V) + " (" +
                       bedrock2::faultName(Rep.CexFault) + "), expected " +
                       verdictName(Tg.Expected) + " (" +
                       bedrock2::faultName(Tg.ExpectedFault) + ")";
    }
    R.Items = Targets.size();
    R.Fingerprint = F.H;
    return R;
  }
};

} // namespace

std::unique_ptr<Workload> b2::stackbench::makeVcCorpusWorkload() {
  return std::make_unique<VcCorpusWorkload>();
}
