//===- bench/interp_throughput.cpp - Interpreter statements/second ------------==//
//
// Part of the b2stack project (PLDI 2021 reproduction).
//
// Checking-interpreter throughput per execution engine: the reference AST
// walker, the bytecode fast path, and differential-both (which is also
// the correctness gate — any divergence between the engines fails the
// bench). Three workloads: the lightbulb firmware event loop under deviced
// MMIO traffic, a corpus of random UB-free programs like the ones the
// compiler differential checkers run (one Interp per program, reused
// across rounds), and the same corpus called the way diffCompile calls
// it (random_corpus_oneshot: a fresh Interp, so a fresh compilation, per
// call for each of DiffOptions' stackalloc salts). Emits
// BENCH_interp.json so the throughput is tracked change over change.
//
// Usage: interp_throughput [--quick]   (--quick shrinks the measurement
// for CI smoke runs)
//
//===----------------------------------------------------------------------===//

#include "../tests/RandomProgram.h"
#include "BenchUtil.h"
#include "app/Firmware.h"
#include "bedrock2/Semantics.h"
#include "devices/Net.h"
#include "devices/Platform.h"
#include "riscv/Mmio.h"
#include "support/Json.h"
#include "support/Metrics.h"
#include "verify/CompilerDiff.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

using namespace b2;
using namespace b2::bedrock2;

namespace {

double now() {
  using namespace std::chrono;
  return duration<double>(steady_clock::now().time_since_epoch()).count();
}

struct Throughput {
  uint64_t Statements = 0;
  uint64_t Calls = 0;
  double Seconds = 0;
  double Sps = 0; ///< Statements (interpreter steps) per second.
};

/// The firmware event loop under a fixed, deterministic traffic schedule:
/// a light-toggle command every fourth iteration. Identical across modes,
/// so the engines see the same work.
Throughput measureFirmware(const Program &P, ExecMode Mode,
                           double MinSeconds, bool &DiffOk,
                           std::string &Error) {
  // One interpreter for the whole measurement: compile once, run many,
  // as a long-running caller would. (CompilerDiff does not: see
  // measureCorpusOneShot.)
  devices::Platform Plat;
  MmioExtSpec Ext(Plat, 64 * 1024);
  Interp I(P, Ext, 50'000'000, StackallocPolicy(), Mode);
  Throughput T;
  ExecResult R = I.callFunction("lightbulb_init", {});
  if (!R.ok()) {
    Error = "lightbulb_init faulted: " + std::string(faultName(R.F));
    return T;
  }
  bool LightOn = true;
  uint64_t K = 0;
  double Start = now();
  do {
    if (K % 4 == 0) {
      Plat.injectNow(devices::buildCommandFrame(LightOn));
      LightOn = !LightOn;
    }
    ++K;
    R = I.callFunction("lightbulb_loop", {});
    T.Statements += R.StepsUsed;
    ++T.Calls;
    if (!R.ok()) {
      Error = "lightbulb_loop faulted: " + std::string(faultName(R.F));
      break;
    }
    T.Seconds = now() - Start;
  } while (T.Seconds < MinSeconds);
  if (I.divergenceCount() != 0) {
    DiffOk = false;
    Error = I.divergence();
  }
  T.Seconds = now() - Start;
  T.Sps = T.Statements / (T.Seconds > 0 ? T.Seconds : 1e-9);
  return T;
}

/// Books one corpus call into \p T; false, with \p Error set, when the
/// program faulted or the two engines diverged.
bool recordCorpusCall(Throughput &T, const ExecResult &R, Interp &I,
                      size_t PI, bool &DiffOk, std::string &Error) {
  T.Statements += R.StepsUsed;
  ++T.Calls;
  if (!R.ok()) {
    Error = "corpus program " + std::to_string(PI) +
            " faulted: " + faultName(R.F) + " (" + R.Detail + ")";
    return false;
  }
  if (I.divergenceCount() != 0) {
    DiffOk = false;
    Error = I.divergence();
    return false;
  }
  return true;
}

/// A corpus of random UB-free programs (the same generator the compiler
/// differential tests fuzz with), re-run round-robin until the clock
/// expires.
Throughput measureCorpus(const std::vector<Program> &Corpus, ExecMode Mode,
                         double MinSeconds, bool &DiffOk,
                         std::string &Error) {
  // One interpreter per corpus program, reused across rounds (compile
  // once, run many).
  riscv::NoDevice Dev;
  MmioExtSpec Ext(Dev, 64 * 1024);
  std::vector<std::unique_ptr<Interp>> Interps;
  for (const Program &P : Corpus)
    Interps.push_back(std::make_unique<Interp>(P, Ext, 10'000'000,
                                               StackallocPolicy(), Mode));
  Throughput T;
  double Start = now();
  uint64_t Round = 0;
  do {
    for (size_t PI = 0; PI != Corpus.size(); ++PI) {
      Interp &I = *Interps[PI];
      ExecResult R =
          I.callFunction("main", {Word(PI * 7 + Round), Word(~Round)});
      if (!recordCorpusCall(T, R, I, PI, DiffOk, Error))
        break;
    }
    ++Round;
    T.Seconds = now() - Start;
  } while (Error.empty() && T.Seconds < MinSeconds);
  T.Seconds = now() - Start;
  T.Sps = T.Statements / (T.Seconds > 0 ? T.Seconds : 1e-9);
  return T;
}

/// The corpus as verify::diffCompile runs its source side: for every
/// call, one fresh Interp per stackalloc salt in DiffOptions, each
/// compiling the program again before its single call. Compile cost is
/// part of every call here, which is what the CompilerDiff traffic pays.
Throughput measureCorpusOneShot(const std::vector<Program> &Corpus,
                                ExecMode Mode, double MinSeconds,
                                bool &DiffOk, std::string &Error) {
  const verify::DiffOptions Diff;
  Throughput T;
  double Start = now();
  uint64_t Round = 0;
  do {
    for (size_t PI = 0; PI != Corpus.size() && Error.empty(); ++PI) {
      for (Word Salt : Diff.StackallocSalts) {
        riscv::NoDevice Dev;
        MmioExtSpec Ext(Dev, Diff.RamBytes);
        StackallocPolicy Policy;
        Policy.Salt = Salt;
        Interp I(Corpus[PI], Ext, Diff.SourceFuel, Policy, Mode);
        ExecResult R =
            I.callFunction("main", {Word(PI * 7 + Round), Word(~Round)});
        if (!recordCorpusCall(T, R, I, PI, DiffOk, Error))
          break;
      }
    }
    ++Round;
    T.Seconds = now() - Start;
  } while (Error.empty() && T.Seconds < MinSeconds);
  T.Seconds = now() - Start;
  T.Sps = T.Statements / (T.Seconds > 0 ? T.Seconds : 1e-9);
  return T;
}

} // namespace

int main(int argc, char **argv) {
  bool Quick = false;
  for (int I = 1; I < argc; ++I)
    if (std::strcmp(argv[I], "--quick") == 0)
      Quick = true;
  const double MinSeconds = Quick ? 0.15 : 0.6;

  std::printf("== interp_throughput: checking-interpreter statements/second "
              "per engine ==\n\n");

  Program Firmware = app::buildFirmware();
  std::vector<Program> Corpus;
  for (uint64_t Seed = 0; Seed != 12; ++Seed)
    Corpus.push_back(b2::testing::RandomProgramGen(Seed).generate());

  const ExecMode Modes[] = {ExecMode::Reference, ExecMode::Fast,
                            ExecMode::Differential};
  struct Row {
    std::string Workload;
    std::string Mode;
    Throughput T;
  };
  std::vector<Row> Rows;
  bool DiffOk = true;
  // Best-of-N windows per engine: each window is a fresh measurement and
  // the highest throughput is kept, which rejects one-sided OS noise
  // (preemption, frequency dips) the same way for every engine.
  const int Reps = Quick ? 1 : 3;
  auto bestOf = [Reps](auto Measure) {
    Throughput Best;
    for (int K = 0; K != Reps; ++K) {
      Throughput T = Measure();
      if (T.Sps > Best.Sps)
        Best = T;
    }
    return Best;
  };
  for (ExecMode Mode : Modes) {
    std::string Error;
    Rows.push_back({"firmware_loop", execModeName(Mode), bestOf([&] {
                      return measureFirmware(Firmware, Mode, MinSeconds,
                                             DiffOk, Error);
                    })});
    if (!Error.empty())
      std::fprintf(stderr, "firmware_loop [%s]: %s\n", execModeName(Mode),
                   Error.c_str());
    Error.clear();
    Rows.push_back({"random_corpus", execModeName(Mode), bestOf([&] {
                      return measureCorpus(Corpus, Mode, MinSeconds, DiffOk,
                                           Error);
                    })});
    if (!Error.empty())
      std::fprintf(stderr, "random_corpus [%s]: %s\n", execModeName(Mode),
                   Error.c_str());
    Error.clear();
    Rows.push_back({"random_corpus_oneshot", execModeName(Mode), bestOf([&] {
                      return measureCorpusOneShot(Corpus, Mode, MinSeconds,
                                                  DiffOk, Error);
                    })});
    if (!Error.empty())
      std::fprintf(stderr, "random_corpus_oneshot [%s]: %s\n",
                   execModeName(Mode), Error.c_str());
  }

  bench::Table Tab({"workload", "engine", "stmts/sec", "statements", "calls"});
  for (const Row &R : Rows)
    Tab.row({R.Workload, R.Mode, bench::fixed(R.T.Sps / 1e6, 2) + " M",
             std::to_string(R.T.Statements), std::to_string(R.T.Calls)});
  Tab.print();

  auto spsOf = [&Rows](const std::string &W, const std::string &M) {
    for (const Row &R : Rows)
      if (R.Workload == W && R.Mode == M)
        return R.T.Sps;
    return 0.0;
  };
  double FwSpeedup =
      spsOf("firmware_loop", "fast") /
      std::max(spsOf("firmware_loop", "reference"), 1e-9);
  double CorpusSpeedup =
      spsOf("random_corpus", "fast") /
      std::max(spsOf("random_corpus", "reference"), 1e-9);
  double OneShotSpeedup =
      spsOf("random_corpus_oneshot", "fast") /
      std::max(spsOf("random_corpus_oneshot", "reference"), 1e-9);
  std::printf("\nbytecode speedup over reference walker: firmware %s, "
              "corpus %s, corpus one-shot %s\n",
              bench::withTimes(FwSpeedup, 2).c_str(),
              bench::withTimes(CorpusSpeedup, 2).c_str(),
              bench::withTimes(OneShotSpeedup, 2).c_str());
  std::printf("differential (walker vs bytecode): %s\n",
              DiffOk ? "identical" : "DIVERGED");

  support::JsonWriter J;
  J.beginObject();
  J.key("bench").value("interp_throughput");
  J.key("quick").value(Quick);
  J.key("reps").value(uint64_t(Reps));
  J.key("workloads").beginArray();
  for (const Row &R : Rows) {
    J.beginObject();
    J.key("workload").value(R.Workload);
    J.key("engine").value(R.Mode);
    J.key("statements").value(R.T.Statements);
    J.key("calls").value(R.T.Calls);
    J.key("seconds").value(R.T.Seconds);
    J.key("stmts_per_sec").value(R.T.Sps);
    J.endObject();
  }
  J.endArray();
  J.key("speedups").beginObject();
  J.key("firmware_fast_vs_reference").value(FwSpeedup);
  J.key("corpus_fast_vs_reference").value(CorpusSpeedup);
  J.key("corpus_oneshot_fast_vs_reference").value(OneShotSpeedup);
  J.endObject();
  J.key("differential_ok").value(DiffOk);
  J.endObject();
  const char *OutPath = "BENCH_interp.json";
  if (!support::writeFile(OutPath, J.str()))
    std::fprintf(stderr, "failed to write %s\n", OutPath);
  else
    std::printf("wrote %s\n", OutPath);

  const char *MetricsPath = "METRICS_interp.json";
  if (!metrics::writeMetricsFile(MetricsPath, "interp_throughput"))
    std::fprintf(stderr, "failed to write %s\n", MetricsPath);
  else
    std::printf("wrote %s\n", MetricsPath);

  return DiffOk ? 0 : 1;
}
