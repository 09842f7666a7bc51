//===- traffic/Soak.cpp - Sharded pcap-driven soak harness -------------------==//
//
// Part of the b2stack project (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//

#include "traffic/Soak.h"

#include "app/Firmware.h"
#include "app/LightbulbSpec.h"
#include "support/Json.h"
#include "support/Metrics.h"
#include "support/ThreadPool.h"
#include "traffic/Checkpoint.h"

#include <algorithm>
#include <memory>
#include <optional>

using namespace b2;
using namespace b2::traffic;
using namespace b2::devices;

const char *b2::traffic::soakCoreName(SoakCore C) {
  switch (C) {
  case SoakCore::Pipelined:
    return "pipelined";
  case SoakCore::IsaSim:
    return "isa-sim";
  case SoakCore::SpecCore:
    return "spec-core";
  }
  return "?";
}

namespace {

ShardStats runShardRange(const compiler::CompiledProgram &Prog,
                         const ScheduledFrame *Begin, const ScheduledFrame *End,
                         const SoakOptions &Options) {
  metrics::Timed Wall(metrics::Id::SoakShardWall);
  // Arm the requested plan, if any. When none is requested the ambient
  // thread-local plan (e.g. one the adequacy driver armed around this
  // call) is left in place rather than masked with an empty scope. The
  // warm-boot cache keys on whatever plan ends up armed, so arming must
  // precede the machine lookup.
  std::optional<fi::FaultScope> Scope;
  if (Options.Plan)
    Scope.emplace(*Options.Plan);

  const size_t NumFrames = size_t(End - Begin);

  // Warm-boot fleet: fork this shard's machine from the cached
  // post-init snapshot instead of re-simulating the boot sequence.
  // Empty shards run cold (the warm path's budget math assumes at least
  // one injection), as does everything when the boot never reaches
  // injection readiness (warmBootMachine returns null).
  std::unique_ptr<SoakMachine> M;
  if (Options.Checkpoint && NumFrames > 0)
    M = warmBootMachine(Prog, Options);
  if (!M)
    M = std::make_unique<SoakMachine>(Prog, Options.Core, Options.RamBytes,
                                      Options.SimExec);

  ShardExit Exit = runShardLoop(*M, Begin, End, Options);
  ShardStats S = collectShardStats(*M, Exit, Begin, End, Options);

  // GroundTruthOk is true exactly when every earlier gate (monitor, UB,
  // drain) passed — the point where the original inline loop reached
  // its cross-check.
  if (Options.CrossCheck && S.GroundTruthOk) {
    SoakOptions Other = Options;
    Other.CrossCheck = false;
    Other.Core = Options.Core == SoakCore::IsaSim ? SoakCore::SpecCore
                                                  : SoakCore::IsaSim;
    ShardStats O = runShardRange(Prog, Begin, End, Other);
    // Traces are not compared verbatim: delivery points fall on chunk
    // boundaries, which land on different op counts across substrates.
    // What must agree is everything op-sequence-determined: the accepted
    // frames, the valid commands, and the lightbulb history.
    S.CrossCheckOk = O.MonitorOk && O.GroundTruthOk &&
                     O.FramesAccepted == S.FramesAccepted &&
                     O.ValidCommands == S.ValidCommands &&
                     O.LightTransitions == S.LightTransitions;
    if (!S.CrossCheckOk)
      S.Error = "cross-check on " + std::string(soakCoreName(Other.Core)) +
                " disagrees: " +
                (O.Error.empty() ? std::string("accepted/commands/lights "
                                               "counters differ")
                                 : O.Error);
    S.Ok = S.MonitorOk && S.GroundTruthOk && S.CrossCheckOk;
  }

  return S;
}

} // namespace

ShardStats
b2::traffic::runSoakShard(const compiler::CompiledProgram &Prog,
                          const std::vector<ScheduledFrame> &Frames,
                          const SoakOptions &Options) {
  return runShardRange(Prog, Frames.data(), Frames.data() + Frames.size(),
                       Options);
}

const ShardStats *SoakReport::firstFailure() const {
  for (const ShardStats &S : Shards)
    if (!S.Ok)
      return &S;
  return nullptr;
}

compiler::CompileResult b2::traffic::compileSoakFirmware(Word RamBytes) {
  bedrock2::Program P = app::buildFirmware(app::FirmwareOptions());
  return compiler::compileProgram(
      P, compiler::CompilerOptions::o0(),
      compiler::Entry::eventLoop("lightbulb_init", "lightbulb_loop"),
      RamBytes);
}

SoakReport b2::traffic::runSoak(const TrafficStream &Stream,
                                const SoakOptions &Options,
                                const std::string &Scenario, uint64_t Seed) {
  compiler::CompileResult C = compileSoakFirmware(Options.RamBytes);
  if (!C.ok()) {
    SoakReport R;
    R.Scenario = Scenario;
    R.Seed = Seed;
    R.Core = Options.Core;
    R.TotalFrames = Stream.Frames.size();
    ShardStats S;
    S.Error = "firmware compilation failed: " + C.Error;
    R.Shards.push_back(std::move(S));
    return R;
  }
  return runSoak(*C.Prog, Stream, Options, Scenario, Seed);
}

SoakReport b2::traffic::runSoak(const compiler::CompiledProgram &Prog,
                                const TrafficStream &Stream,
                                const SoakOptions &Options,
                                const std::string &Scenario, uint64_t Seed) {
  SoakReport R;
  R.Scenario = Scenario;
  R.Seed = Seed;
  R.Core = Options.Core;
  R.TotalFrames = Stream.Frames.size();

  // Build the shared goodHlTrace automaton before fanning out, so the
  // workers never contend on its one-time construction.
  (void)goodHlMatcher();

  const size_t N = Stream.Frames.size();
  size_t ShardCount =
      Options.Shards
          ? Options.Shards
          : std::max<size_t>(1, (N + Options.FramesPerShard - 1) /
                                    std::max<uint64_t>(1, Options.FramesPerShard));
  ShardCount = std::min(ShardCount, std::max<size_t>(1, N));

  // Contiguous balanced slices; the shard count is a function of the
  // stream and options only (never the thread count), and results land
  // in pre-sized slots, so the report is thread-count invariant.
  R.Shards.resize(ShardCount);
  const size_t Base = N / ShardCount, Rem = N % ShardCount;
  const ScheduledFrame *Data = Stream.Frames.data();
  support::parallelFor(ShardCount, Options.Threads, [&](size_t I) {
    size_t Lo = I * Base + std::min(I, Rem);
    size_t Len = Base + (I < Rem ? 1 : 0);
    R.Shards[I] = runShardRange(Prog, Data + Lo, Data + Lo + Len, Options);
  });

  R.Ok = true;
  for (const ShardStats &S : R.Shards)
    R.Ok = R.Ok && S.Ok;
  return R;
}

std::string b2::traffic::soakJson(const SoakReport &Report) {
  support::JsonWriter J;
  J.beginObject();
  J.key("schema").value("b2stack-soak-v1");
  J.key("scenario").value(Report.Scenario);
  J.key("seed").value(Report.Seed);
  J.key("core").value(soakCoreName(Report.Core));
  J.key("frames").value(Report.TotalFrames);
  J.key("shard_count").value(uint64_t(Report.Shards.size()));
  J.key("ok").value(Report.Ok);

  uint64_t Delivered = 0, Accepted = 0, Commands = 0, Events = 0, Lights = 0,
           Cycles = 0, Retired = 0;
  for (const ShardStats &S : Report.Shards) {
    Delivered += S.FramesDelivered;
    Accepted += S.FramesAccepted;
    Commands += S.ValidCommands;
    Events += S.MmioEvents;
    Lights += S.LightTransitions;
    Cycles += S.Cycles;
    Retired += S.Retired;
  }
  J.key("aggregate").beginObject();
  J.key("frames_delivered").value(Delivered);
  J.key("frames_accepted").value(Accepted);
  J.key("valid_commands").value(Commands);
  J.key("mmio_events").value(Events);
  J.key("light_transitions").value(Lights);
  J.key("cycles").value(Cycles);
  J.key("retired").value(Retired);
  // Deterministic throughput figure (model cycles, not wall-clock, so
  // the file stays bit-identical at any thread count).
  J.key("frames_per_mcycle")
      .value(Cycles ? double(Delivered) * 1e6 / double(Cycles) : 0.0);
  J.endObject();

  J.key("violations").beginArray();
  for (size_t I = 0; I != Report.Shards.size(); ++I) {
    const ShardStats &S = Report.Shards[I];
    if (S.MonitorOk)
      continue;
    J.beginObject();
    J.key("shard").value(uint64_t(I));
    J.key("violation_index").value(S.ViolationIndex);
    J.key("error").value(S.Error);
    J.endObject();
  }
  J.endArray();

  J.key("shards").beginArray();
  for (const ShardStats &S : Report.Shards) {
    J.beginObject();
    J.key("ok").value(S.Ok);
    J.key("monitor_ok").value(S.MonitorOk);
    J.key("ground_truth_ok").value(S.GroundTruthOk);
    J.key("cross_check_ok").value(S.CrossCheckOk);
    J.key("drained").value(S.Drained);
    J.key("frames_delivered").value(S.FramesDelivered);
    J.key("frames_accepted").value(S.FramesAccepted);
    J.key("valid_commands").value(S.ValidCommands);
    J.key("mmio_events").value(S.MmioEvents);
    J.key("monitor_events_seen").value(S.MonitorEventsSeen);
    J.key("light_transitions").value(S.LightTransitions);
    J.key("cycles").value(S.Cycles);
    J.key("retired").value(S.Retired);
    J.key("trace_hash").value(S.TraceHash);
    if (!S.Error.empty())
      J.key("error").value(S.Error);
    J.endObject();
  }
  J.endArray();

  J.endObject();
  return J.str();
}
