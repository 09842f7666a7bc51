//===- stackbench/Bench.h - Stack benchmark workloads and spans -*- C++ -*-===//
//
// Part of the b2stack project (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pieces the benchmark's main program (Main.cpp) composes: an in-memory
/// span recorder, the per-round result every workload returns, and the
/// workload interface.
///
/// A workload runs one *round* at a time (a soak shard, one pass over the
/// VC corpus, one pass over a program fleet), each on inputs the seed
/// derives for that round. Its untraced round calls the program's public
/// entry points exactly as a user would (runSoak, verifyFunction,
/// diffCompilePure). Its traced round rebuilds the same call sequence out
/// of each layer's public functions and records a span around every call
/// into a layer. Both return a fingerprint over every deterministic
/// result, so "traced equals untraced" is a plain comparison.
///
//===----------------------------------------------------------------------===//

#ifndef B2_STACKBENCH_BENCH_H
#define B2_STACKBENCH_BENCH_H

#include "support/Metrics.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace b2 {
namespace stackbench {

inline uint64_t nowNs() {
  return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now().time_since_epoch())
                      .count());
}

/// Spans kept in memory for the whole traced run and written once at the
/// end. Spans nest by construction (a span's parent is the innermost span
/// open when it started), so a span's self time is its duration minus the
/// durations of its direct children.
class Tracer {
public:
  struct Span {
    const char *Name;
    uint64_t StartNs;
    uint64_t EndNs;
    int64_t Parent; ///< Index of the enclosing span, or -1.
  };

  Tracer() { Spans.reserve(1 << 16); }

  /// Runs \p Fn inside a span named \p Name and returns its result
  /// (references pass through unchanged).
  template <class F> decltype(auto) span(const char *Name, F &&Fn) {
    Open O(*this, Name);
    return Fn();
  }

  /// Self time (ns) per span name.
  std::map<std::string, uint64_t> selfNs() const;

  /// Time inside the children of root spans: the part of the run the
  /// named layer calls account for. Root spans only group one unit of
  /// work (a shard, a verdict, a program, the set-up).
  uint64_t coveredNs() const;

  /// Writes the spans as JSON to \p Path; false on I/O failure.
  bool write(const std::string &Path, const std::string &Workload,
             uint64_t Seed) const;

private:
  struct Open {
    Tracer &T;
    size_t Idx;
    Open(Tracer &T, const char *Name) : T(T), Idx(T.Spans.size()) {
      T.Spans.push_back(Span{Name, nowNs(), 0, T.Current});
      T.Current = int64_t(Idx);
    }
    ~Open() {
      T.Spans[Idx].EndNs = nowNs();
      T.Current = T.Spans[Idx].Parent;
    }
    Open(const Open &) = delete;
    Open &operator=(const Open &) = delete;
  };

  std::vector<Span> Spans;
  int64_t Current = -1;
};

/// What one round produced.
struct RoundResult {
  uint64_t Items = 0;     ///< Frames, verdicts or programs completed.
  uint64_t Attempted = 0; ///< Checked units (shards, verdicts, programs).
  uint64_t Failed = 0;    ///< Checked units whose output was wrong.
  uint64_t Fingerprint = 0; ///< Hash over every deterministic result.
  std::string FirstError;
};

/// FNV-1a accumulator for fingerprints.
struct Fnv {
  uint64_t H = 0xcbf29ce484222325ull;
  Fnv &mix(uint64_t V) {
    for (int I = 0; I < 8; ++I) {
      H ^= (V >> (I * 8)) & 0xFF;
      H *= 0x100000001b3ull;
    }
    return *this;
  }
};

/// Inputs to the per-layer metrics a workload derives after its run.
struct LayerInputs {
  /// Registry totals over the untraced round 0 (deterministic).
  metrics::Snapshot Registry;
  /// Self time per span name, from the traced set-up + traced round 0.
  std::map<std::string, uint64_t> SpanSelfNs;
  double TracedWallS = 0; ///< Wall of that traced setup + round.
};

/// Per-layer metric values by name (see the table in Main.cpp). Names a
/// workload leaves unset are layers it bypasses and report 0.
using LayerValues = std::map<std::string, double>;

class Workload {
public:
  virtual ~Workload() = default;

  /// Builds what every round shares (the firmware, the corpus).
  virtual void setup() = 0;

  /// Builds round \p Round's own inputs from the seed (a fresh shard, a
  /// fresh program fleet). Round 0's are part of the set-up; later rounds
  /// prepare theirs outside the timed region.
  virtual void prepareRound(uint64_t Round) = 0;

  /// setup() and prepareRound(0), with spans around the calls into the
  /// layers.
  virtual void setupTraced(Tracer &T) = 0;

  /// One round, on the inputs prepared last, through the program's public
  /// entry points.
  virtual RoundResult runRound() = 0;

  /// Round 0 rebuilt from the layers' public calls, under spans.
  virtual RoundResult runTraced(Tracer &T) = 0;

  /// Per-layer metrics of the run, from the registry window and the spans.
  /// Measurements that run more of the program here (the actuation probe)
  /// check their outputs too and report them in the result; its
  /// fingerprint is unused.
  virtual RoundResult layerMetrics(const LayerInputs &In,
                                   LayerValues &Out) = 0;
};

/// Workload factories; null for an unknown soak workload name. A seeded
/// fault, when requested, is armed on the calling thread for the whole
/// run (every workload runs on that one thread).
std::unique_ptr<Workload> makeSoakWorkload(const std::string &Name,
                                           uint64_t Seed);
std::unique_ptr<Workload> makeVcCorpusWorkload();
std::unique_ptr<Workload> makeDiffFleetWorkload(uint64_t Seed);

/// Self seconds of span \p Name in \p In (0 when it never ran).
double spanSeconds(const LayerInputs &In, const std::string &Name);

/// \p Num / \p Den, or 0 when \p Den is 0 (layers a workload bypasses
/// report 0).
inline double ratio(double Num, double Den) { return Den != 0 ? Num / Den : 0; }

} // namespace stackbench
} // namespace b2

#endif // B2_STACKBENCH_BENCH_H
