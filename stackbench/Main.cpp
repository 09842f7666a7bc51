//===- stackbench/Main.cpp - Stack benchmark main program -----------------===//
//
// Part of the b2stack project (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
//
// One run of one workload:
//
//   stackbench --workload NAME --seed N --seconds S --trace 0|1
//              [--fault NAME] [--spans PATH]
//
//  1. Set up SetupRepeats times: the shared inputs plus round 0's, all
//     from the seed. More set-ups follow every warm round (step 3), so
//     the samples span the run like the rounds do. setup_s is the median
//     of all of them (a process's first set-up is cold, the median is not).
//  2. Run round 0 cold. Its time is the cost a one-shot tools/soak user
//     pays on every invocation (process.cold_round_s); the warm rounds
//     below are what a long soak settles to.
//  3. Run warm rounds, each on fresh inputs, until S seconds have passed
//     (at least one), with one pass of a fixed reference kernel before
//     the first round and after every round. items_per_ref is the items
//     of all warm rounds over their host time counted in reference units,
//     a round's unit being the mean of the passes on either side of it.
//     On a shared host, interference from other tenants slows the program
//     in phases of seconds to minutes (the same vc-corpus round swings
//     from 0.6 to 1.0 s within one run, ten-run medians of frames/s moved
//     45% within an hour); it slows the kernel run next to the round too,
//     so the ratio follows the program more than the host. The wall-clock
//     rate and the unit are per-layer metrics (process.items_per_s,
//     process.ref_unit_s).
//  4. With --trace 1, rerun round 0 untraced, then a traced set-up +
//     round 0; both must reproduce the cold round 0 bit for bit. Report
//     the per-layer metrics; the spans are written to --spans once, at
//     the end.
//
// Prints every metric by name and unit, then as the last stdout line one
// JSON object {correct, attempted, failed, metrics}. Exits 1 when any
// output check failed, 2 on a usage error.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "support/Json.h"
#include "verify/FaultInjection.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>

using namespace b2;
using namespace b2::stackbench;

namespace {

constexpr unsigned SetupRepeats = 15;

/// Host seconds of set-ups run after each warm round (at least one).
constexpr double SetupBatchS = 0.02;

struct MetricDesc {
  const char *Name;
  const char *Unit;
};

const MetricDesc EndToEnd[] = {
    {"items_per_ref", "1/ref"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

// Every per-layer metric, in report order. Each --trace 1 run reports all
// of them; a layer the workload bypasses reads 0.
const MetricDesc PerLayer[] = {
    {"process.items_per_s", "1/s"},
    {"process.ref_unit_s", "s"},
    {"process.cold_round_s", "s"},
    {"process.cold_penalty_ratio", "ratio"},
    {"trace.overhead_ratio", "ratio"},
    {"trace.span_coverage", "ratio"},
    {"traffic.trace_convert_s", "s"},
    {"traffic.trace_convert_share", "ratio"},
    {"traffic.trace_ns_per_event", "ns"},
    {"traffic.monitor_s", "s"},
    {"traffic.monitor_share", "ratio"},
    {"traffic.monitor_ns_per_event", "ns"},
    {"traffic.monitor_frontier_mean", "count"},
    {"traffic.mmio_events_per_frame", "count"},
    {"traffic.fifo_stall_chunks", "count"},
    {"traffic.boot_s", "s"},
    {"traffic.sim_frames_per_mcycle", "1/Mcycle"},
    {"devices.inject_s", "s"},
    {"devices.accept_ratio", "ratio"},
    {"kami.run_s", "s"},
    {"kami.run_share", "ratio"},
    {"kami.host_ns_per_cycle", "ns"},
    {"kami.ipc", "ratio"},
    {"kami.cycles_per_frame", "cycles"},
    {"kami.actuation_cycles_p50", "cycles"},
    {"kami.actuation_cycles_p90", "cycles"},
    {"kami.raw_stalls_per_packet", "cycles"},
    {"kami.mispredicts_per_packet", "count"},
    {"kami.mmio_stalls_per_packet", "cycles"},
    {"riscv.run_s", "s"},
    {"riscv.run_share", "ratio"},
    {"riscv.host_ns_per_instr", "ns"},
    {"riscv.block.trace_ratio", "ratio"},
    {"riscv.block.side_exits_per_minstr", "count"},
    {"riscv.block.link_hit_ratio", "ratio"},
    {"riscv.step_s", "s"},
    {"riscv.retired_per_frame", "count"},
    {"compiler.compile_s", "s"},
    {"compiler.share", "ratio"},
    {"compiler.code_bytes", "bytes"},
    {"bedrock2.interp_s", "s"},
    {"bedrock2.steps_per_s", "1/s"},
    {"bedrock2.fuse_hit_ratio", "ratio"},
    {"bedrock2.probe_s", "s"},
    {"vc.wp_s", "s"},
    {"vc.discharge_s", "s"},
    {"vc.replay_s", "s"},
    {"vc.cheap_tier_kill_ratio", "ratio"},
    {"vc.cache_hit_ratio", "ratio"},
    {"vc.solver_conflicts", "count"},
    {"vc.solver_clauses", "count"},
};

double median(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N == 0 ? 0 : N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

double seconds(uint64_t StartNs) { return double(nowNs() - StartNs) * 1e-9; }

volatile uint64_t RefSink; // Keeps the compute-bound part's results live.

/// One pass of the reference kernel; returns its reference unit in
/// seconds: the geometric mean of the times of a memory-bound part
/// (read-modify-writes scattered over an 8 MiB table, past a core's L2)
/// and a compute-bound part (four independent shift/add/xor chains that
/// keep several ALUs busy at once). Other tenants of the host slow both
/// kinds of work: the first through the shared cache and memory, the
/// second through the execution units of a core they share.
double refUnitS() {
  static std::vector<uint32_t> Table(size_t(1) << 21);
  const uint32_t Mask = uint32_t(Table.size() - 1);
  uint64_t T0 = nowNs();
  uint32_t A = 1;
  for (unsigned Sweep = 0; Sweep != 6; ++Sweep)
    for (uint32_t I = 0; I < Table.size(); I += 4) {
      uint32_t J = (I * 2654435761u) & Mask;
      Table[J] += A;
      A = A * 1664525u + Table[(J + 77) & Mask];
    }
  uint64_t T1 = nowNs();
  uint64_t X0 = A | 1, X1 = 2, X2 = 3, X3 = 4;
  for (unsigned I = 0; I != 10'000'000; ++I) {
    X0 ^= X0 << 13; X0 ^= X0 >> 7; X0 ^= X0 << 17;
    X1 += X1 << 5; X1 ^= X1 >> 11; X1 += 0x9e3779b9;
    X2 ^= X2 << 7; X2 += X2 >> 9; X2 ^= 0xabcdef;
    X3 = X3 * 5 + 1; X3 ^= X3 >> 13;
  }
  uint64_t T2 = nowNs();
  RefSink = X0 + X1 + X2 + X3;
  return std::sqrt(double(T1 - T0) * double(T2 - T1)) * 1e-9;
}

double peakRssMb() {
  struct rusage U;
  std::memset(&U, 0, sizeof U);
  getrusage(RUSAGE_SELF, &U);
  return double(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux.
}

int usage() {
  std::fprintf(stderr,
               "usage: stackbench --workload soak-pipelined|"
               "soak-isa-adversarial|vc-corpus|diff-fleet\n"
               "                  --seed N --seconds S --trace 0|1\n"
               "                  [--fault NAME] [--spans PATH]\n");
  return 2;
}

} // namespace

std::map<std::string, uint64_t> Tracer::selfNs() const {
  std::vector<uint64_t> Self(Spans.size());
  for (size_t I = 0; I != Spans.size(); ++I)
    Self[I] = Spans[I].EndNs - Spans[I].StartNs;
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      Self[size_t(S.Parent)] -= S.EndNs - S.StartNs;
  std::map<std::string, uint64_t> Out;
  for (size_t I = 0; I != Spans.size(); ++I)
    Out[Spans[I].Name] += Self[I];
  return Out;
}

uint64_t Tracer::coveredNs() const {
  uint64_t Ns = 0;
  for (const Span &S : Spans)
    if (S.Parent >= 0 && Spans[size_t(S.Parent)].Parent < 0)
      Ns += S.EndNs - S.StartNs;
  return Ns;
}

bool Tracer::write(const std::string &Path, const std::string &Workload,
                   uint64_t Seed) const {
  support::JsonWriter J;
  J.beginObject();
  J.key("workload").value(Workload);
  J.key("seed").value(Seed);
  J.key("spans").beginArray();
  uint64_t Base = Spans.empty() ? 0 : Spans.front().StartNs;
  for (const Span &S : Spans) {
    J.beginObject();
    J.key("name").value(S.Name);
    J.key("start_ns").value(S.StartNs - Base);
    J.key("end_ns").value(S.EndNs - Base);
    if (S.Parent >= 0) // Root spans carry no parent key.
      J.key("parent").value(uint64_t(S.Parent));
    J.endObject();
  }
  J.endArray();
  J.endObject();
  return support::writeFile(Path, J.str());
}

double b2::stackbench::spanSeconds(const LayerInputs &In,
                                   const std::string &Name) {
  auto It = In.SpanSelfNs.find(Name);
  return It == In.SpanSelfNs.end() ? 0 : double(It->second) * 1e-9;
}

int main(int Argc, char **Argv) {
  std::string WorkloadName, FaultName, SpansPath;
  uint64_t Seed = 0;
  double Seconds = 0;
  int Trace = -1;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (I + 1 >= Argc)
      return usage();
    const char *V = Argv[++I];
    if (Arg == "--workload")
      WorkloadName = V;
    else if (Arg == "--seed")
      Seed = std::strtoull(V, nullptr, 10);
    else if (Arg == "--seconds")
      Seconds = std::strtod(V, nullptr);
    else if (Arg == "--trace")
      Trace = std::atoi(V);
    else if (Arg == "--fault")
      FaultName = V;
    else if (Arg == "--spans")
      SpansPath = V;
    else
      return usage();
  }
  if (WorkloadName.empty() || Seconds <= 0 || (Trace != 0 && Trace != 1))
    return usage();

  // A seeded fault is armed for the whole run, set-up included, as
  // `tools/soak --fault` does. Every workload runs on this thread.
  fi::FaultPlan Plan;
  std::optional<fi::FaultScope> Scope;
  if (!FaultName.empty()) {
    const fi::FaultInfo *F = fi::findFault(FaultName);
    if (!F) {
      std::fprintf(stderr, "stackbench: unknown fault '%s'; valid names: %s\n",
                   FaultName.c_str(), fi::faultNameList().c_str());
      return 2;
    }
    Plan = fi::FaultPlan::single(F->Id);
    Scope.emplace(Plan);
  }

  std::unique_ptr<Workload> W;
  if (WorkloadName == "vc-corpus")
    W = makeVcCorpusWorkload();
  else if (WorkloadName == "diff-fleet")
    W = makeDiffFleetWorkload(Seed);
  else
    W = makeSoakWorkload(WorkloadName, Seed);
  if (!W) {
    std::fprintf(stderr, "stackbench: unknown workload '%s'\n",
                 WorkloadName.c_str());
    return usage();
  }

  uint64_t Attempted = 0, Failed = 0;
  std::string FirstError;
  auto Account = [&](const RoundResult &R) {
    Attempted += R.Attempted;
    Failed += R.Failed;
    if (FirstError.empty() && !R.FirstError.empty())
      FirstError = R.FirstError;
  };

  std::vector<double> SetupS;
  auto SetUp = [&] {
    uint64_t T0 = nowNs();
    W->setup();
    W->prepareRound(0);
    SetupS.push_back(seconds(T0));
  };
  for (unsigned K = 0; K != SetupRepeats; ++K)
    SetUp();

  uint64_t T0 = nowNs();
  const RoundResult Ref = W->runRound();
  const double ColdS = seconds(T0);
  Account(Ref);

  refUnitS(); // Faults in the kernel's table; untimed.
  std::vector<double> UnitS = {refUnitS()};
  uint64_t Items = 0;
  double WallS = 0, RefUnits = 0;
  const uint64_t Start = nowNs();
  do {
    W->prepareRound(UnitS.size());
    uint64_t R0 = nowNs();
    RoundResult R = W->runRound();
    double S = seconds(R0);
    UnitS.push_back(refUnitS());
    double Unit = (UnitS[UnitS.size() - 2] + UnitS.back()) / 2;
    Items += R.Items;
    WallS += S;
    RefUnits += S / Unit;
    std::fprintf(stderr,
                 "stackbench: round %zu: %.4f s, %.6g items/s, "
                 "ref unit %.5f s\n",
                 UnitS.size() - 1, S, double(R.Items) / S, Unit);
    Account(R);
    const uint64_t B0 = nowNs();
    do
      SetUp();
    while (seconds(B0) < SetupBatchS);
  } while (seconds(Start) < Seconds);
  const double PeakRss = peakRssMb();

  std::vector<std::pair<const MetricDesc *, double>> Report;
  if (Trace == 0) {
    Report.push_back({&EndToEnd[0], double(Items) / RefUnits});
    Report.push_back({&EndToEnd[1], median(SetupS)});
    Report.push_back({&EndToEnd[2], PeakRss});
  } else {
    // Round 0 again, warm and untraced: the baseline of the tracing
    // overhead and the registry window of the deterministic per-layer
    // counts. Same inputs, so it must reproduce the cold run exactly.
    LayerInputs In;
    W->prepareRound(0);
    metrics::resetAll();
    uint64_t U0 = nowNs();
    RoundResult Again = W->runRound();
    const double UntracedS = seconds(U0);
    In.Registry = metrics::snapshot();
    Account(Again);
    auto Reproduces = [&](const RoundResult &R, const char *What) {
      if (R.Fingerprint == Ref.Fingerprint)
        return true;
      ++Failed;
      if (FirstError.empty())
        FirstError = std::string(What) + " results differ from round 0's";
      return false;
    };
    Reproduces(Again, "a repeat of round 0:");

    Tracer T;
    uint64_t Tr0 = nowNs();
    T.span("setup", [&] { W->setupTraced(T); });
    RoundResult R = W->runTraced(T);
    In.TracedWallS = seconds(Tr0);
    Account(R);
    // A rebuilt call sequence that does not reproduce round 0 describes a
    // different program: its spans are discarded and the run fails.
    const bool TraceValid = Reproduces(R, "the traced rebuild:");

    LayerValues V;
    if (TraceValid) {
      In.SpanSelfNs = T.selfNs();
      Account(W->layerMetrics(In, V));
      V["trace.overhead_ratio"] =
          In.TracedWallS / (median(SetupS) + UntracedS) - 1;
      V["trace.span_coverage"] = double(T.coveredNs()) * 1e-9 / In.TracedWallS;
      if (!SpansPath.empty() && !T.write(SpansPath, WorkloadName, Seed))
        std::fprintf(stderr, "stackbench: cannot write %s\n",
                     SpansPath.c_str());
    }
    V["process.items_per_s"] = double(Items) / WallS;
    V["process.ref_unit_s"] = median(UnitS);
    V["process.cold_round_s"] = ColdS;
    V["process.cold_penalty_ratio"] = ColdS / UntracedS;
    for (const MetricDesc &D : PerLayer) {
      auto It = V.find(D.Name);
      Report.push_back({&D, It == V.end() ? 0.0 : It->second});
      if (It != V.end())
        V.erase(It);
    }
    for (const auto &[Name, Val] : V) {
      (void)Val;
      std::fprintf(stderr, "stackbench: internal error: metric '%s' is not "
                   "in the per-layer table\n", Name.c_str());
      return 2;
    }
  }

  for (const auto &[D, Val] : Report)
    std::printf("%-34s %16.9g %s\n", D->Name, Val, D->Unit);
  std::printf("%-34s %16.9g (%llu failed / %llu attempted)\n", "fail_ratio",
              Attempted ? double(Failed) / double(Attempted) : 0.0,
              (unsigned long long)Failed, (unsigned long long)Attempted);
  if (!FirstError.empty())
    std::printf("first failure: %s\n", FirstError.c_str());

  std::string Json = "{\"correct\": ";
  Json += Failed == 0 ? "true" : "false";
  Json += ", \"attempted\": " + std::to_string(Attempted);
  Json += ", \"failed\": " + std::to_string(Failed);
  Json += ", \"metrics\": {";
  for (size_t I = 0; I != Report.size(); ++I) {
    char Buf[64];
    std::snprintf(Buf, sizeof Buf, "%.17g", Report[I].second);
    Json += std::string(I ? ", " : "") + "\"" + Report[I].first->Name +
            "\": {\"value\": " + Buf + ", \"unit\": \"" +
            Report[I].first->Unit + "\"}";
  }
  Json += "}}";
  std::printf("%s\n", Json.c_str());
  return Failed == 0 ? 0 : 1;
}
