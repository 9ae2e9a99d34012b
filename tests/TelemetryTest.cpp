//===- TelemetryTest.cpp - TraceSink / MetricsRegistry / PcProfile ----------===//
//
// Part of the Ocelot reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The telemetry subsystem's contract:
///
///  * Trace export is valid Chrome trace_event JSON (checked by a
///    minimal in-test JSON parser, no external library) containing the
///    event kinds a monitored intermittent run must produce, and is
///    byte-stable across runs for a fixed seed — simulated-time events
///    carry no wall clock.
///  * Telemetry never perturbs execution: a traced and an untraced run
///    of the same config produce identical RunResults and final device
///    state, on every engine.
///  * The bounded ring drops oldest-first and reports the drop count.
///  * PcProfile counters agree between the threaded engine's runs over an
///    unfused and a fused image and sum to the executed step count.
///  * MetricsRegistry dumps are deterministically ordered and round
///    numbers through counter/summary accessors.
///
//===----------------------------------------------------------------------===//

#include "harness/Experiment.h"
#include "ir/Opcode.h"
#include "runtime/Simulation.h"
#include "telemetry/MetricsRegistry.h"
#include "telemetry/Profile.h"
#include "telemetry/TraceSink.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <iterator>
#include <map>
#include <numeric>
#include <string>
#include <vector>

using namespace ocelot;

namespace {

// -- Minimal JSON validity checker -----------------------------------------
// Accepts the JSON subset exportChromeJson emits (objects, arrays,
// strings with escapes, numbers, booleans, null). Strictness over speed:
// trailing garbage and unbalanced structure are failures.

class JsonChecker {
public:
  explicit JsonChecker(const std::string &S) : S(S) {}

  bool valid() {
    Pos = 0;
    skipWs();
    if (!value())
      return false;
    skipWs();
    return Pos == S.size();
  }

private:
  const std::string &S;
  size_t Pos = 0;

  void skipWs() {
    while (Pos < S.size() && (S[Pos] == ' ' || S[Pos] == '\t' ||
                              S[Pos] == '\n' || S[Pos] == '\r'))
      ++Pos;
  }
  bool eat(char C) {
    if (Pos < S.size() && S[Pos] == C) {
      ++Pos;
      return true;
    }
    return false;
  }
  bool string() {
    if (!eat('"'))
      return false;
    while (Pos < S.size() && S[Pos] != '"') {
      if (S[Pos] == '\\') {
        ++Pos;
        if (Pos >= S.size())
          return false;
      }
      ++Pos;
    }
    return eat('"');
  }
  bool number() {
    size_t Start = Pos;
    if (Pos < S.size() && (S[Pos] == '-' || S[Pos] == '+'))
      ++Pos;
    while (Pos < S.size() &&
           (std::isdigit(static_cast<unsigned char>(S[Pos])) ||
            S[Pos] == '.' || S[Pos] == 'e' || S[Pos] == 'E' ||
            S[Pos] == '-' || S[Pos] == '+'))
      ++Pos;
    return Pos > Start;
  }
  bool literal(const char *Word) {
    size_t Len = std::string(Word).size();
    if (S.compare(Pos, Len, Word) != 0)
      return false;
    Pos += Len;
    return true;
  }
  bool value() {
    skipWs();
    if (Pos >= S.size())
      return false;
    switch (S[Pos]) {
    case '{': {
      ++Pos;
      skipWs();
      if (eat('}'))
        return true;
      do {
        skipWs();
        if (!string())
          return false;
        skipWs();
        if (!eat(':'))
          return false;
        if (!value())
          return false;
        skipWs();
      } while (eat(','));
      return eat('}');
    }
    case '[': {
      ++Pos;
      skipWs();
      if (eat(']'))
        return true;
      do {
        if (!value())
          return false;
        skipWs();
      } while (eat(','));
      return eat(']');
    }
    case '"':
      return string();
    case 't':
      return literal("true");
    case 'f':
      return literal("false");
    case 'n':
      return literal("null");
    default:
      return number();
    }
  }
};

// -- Shared run helpers ----------------------------------------------------

/// A monitored, energy-driven intermittent config: the configuration that
/// produces every simulated-time event kind (reboots, checkpoints,
/// regions, retries, monitor checks, sensor reads, recharges).
RunConfig tracedConfig() {
  RunConfig Cfg;
  Cfg.Plan = FailurePlan::energyDriven();
  Cfg.MonitorBitVector = true;
  Cfg.MonitorFormal = true;
  Cfg.RecordTrace = true;
  return Cfg;
}

/// Runs \p Runs activations of tire/Ocelot under \p Engine with \p Sink
/// attached (null = telemetry off) and returns every RunResult.
std::vector<RunResult> runTire(DispatchEngine Engine, TraceSink *Sink,
                               int Runs, uint64_t Seed,
                               std::vector<std::vector<int64_t>> *NvmOut =
                                   nullptr) {
  const BenchmarkDef &B = *findBenchmark("tire");
  CompiledBenchmark CB = compileBenchmark(B, ExecModel::Ocelot);
  RunConfig Cfg = tracedConfig();
  Cfg.Sensors = B.scenario(Seed);
  Cfg.Seed = Seed;
  Cfg.Dispatch = Engine;
  Cfg.Telemetry = Sink;
  Simulation Sim(CB.Artifact, std::move(Cfg));
  std::vector<RunResult> Out;
  for (int R = 0; R < Runs; ++R)
    Out.push_back(Sim.runOnce());
  if (NvmOut)
    *NvmOut = Sim.nvmSnapshot();
  return Out;
}

void expectIdentical(const RunResult &A, const RunResult &B,
                     const std::string &What) {
  EXPECT_EQ(A.Completed, B.Completed) << What;
  EXPECT_EQ(A.Starved, B.Starved) << What;
  EXPECT_EQ(A.Trap, B.Trap) << What;
  EXPECT_EQ(A.OnCycles, B.OnCycles) << What;
  EXPECT_EQ(A.OffCycles, B.OffCycles) << What;
  EXPECT_EQ(A.Steps, B.Steps) << What;
  EXPECT_EQ(A.Reboots, B.Reboots) << What;
  EXPECT_EQ(A.Checkpoints, B.Checkpoints) << What;
  EXPECT_EQ(A.UndoLogEntries, B.UndoLogEntries) << What;
  EXPECT_EQ(A.AtomicCommits, B.AtomicCommits) << What;
  EXPECT_EQ(A.AtomicAborts, B.AtomicAborts) << What;
  EXPECT_EQ(A.ViolatedFresh, B.ViolatedFresh) << What;
  EXPECT_EQ(A.ViolatedConsistent, B.ViolatedConsistent) << What;
  EXPECT_EQ(A.FinalTau, B.FinalTau) << What;
  EXPECT_EQ(A.Violations.size(), B.Violations.size()) << What;
}

// -- Trace export ----------------------------------------------------------

TEST(TraceExport, IsValidChromeJsonWithExpectedEvents) {
  TraceSink Sink;
  Sink.compileStart("tire");
  Sink.compileEnd("tire");
  runTire(DispatchEngine::Threaded, &Sink, 5, /*Seed=*/7);
  ASSERT_GT(Sink.size(), 0u);

  std::string Json = Sink.exportChromeJson();
  EXPECT_TRUE(JsonChecker(Json).valid()) << Json.substr(0, 400);

  // Structural markers of the trace_event format.
  EXPECT_NE(Json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(Json.find("\"displayTimeUnit\""), std::string::npos);

  // A monitored intermittent run must produce all of these.
  for (const char *Name :
       {"reboot", "checkpoint", "region", "monitor_check", "sensor_read",
        "energy_recharge", "compile"})
    EXPECT_NE(Json.find(std::string("\"name\":\"") + Name + "\""),
              std::string::npos)
        << "missing event kind " << Name;
}

TEST(TraceExport, ByteStableAcrossRunsForFixedSeed) {
  // Simulated-time events are pure functions of (artifact, config, seed):
  // two fresh simulations must export the same bytes. No compile events
  // here — those live on the wall-clock track by design.
  TraceSink A, B;
  runTire(DispatchEngine::Threaded, &A, 4, /*Seed=*/11);
  runTire(DispatchEngine::Threaded, &B, 4, /*Seed=*/11);
  EXPECT_EQ(A.exportChromeJson(), B.exportChromeJson());
}

TEST(TraceExport, EngineInvariant) {
  // The two engines are pinned bitwise; their trace streams must be too.
  TraceSink Tree, Threaded;
  runTire(DispatchEngine::Tree, &Tree, 4, /*Seed=*/13);
  runTire(DispatchEngine::Threaded, &Threaded, 4, /*Seed=*/13);
  EXPECT_EQ(Threaded.exportChromeJson(), Tree.exportChromeJson());
}

TEST(TraceExport, WriteChromeJsonRoundTrips) {
  TraceSink Sink;
  Sink.reboot(100, 1);
  std::string Path = ::testing::TempDir() + "telemetry-trace.json";
  std::string Error;
  ASSERT_TRUE(Sink.writeChromeJson(Path, &Error)) << Error;
  std::FILE *F = std::fopen(Path.c_str(), "r");
  ASSERT_NE(F, nullptr);
  std::string Bytes;
  char Buf[4096];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Bytes.append(Buf, N);
  std::fclose(F);
  std::remove(Path.c_str());
  EXPECT_EQ(Bytes, Sink.exportChromeJson());

  TraceSink Unwritable;
  EXPECT_FALSE(Unwritable.writeChromeJson("/nonexistent-dir/x.json",
                                          &Error));
  EXPECT_FALSE(Error.empty());
}

// -- Zero-perturbation invariant -------------------------------------------

TEST(TraceSinkTest, TelemetryOnAndOffProduceIdenticalResults) {
  for (DispatchEngine E : {DispatchEngine::Tree, DispatchEngine::Threaded}) {
    TraceSink Sink;
    std::vector<std::vector<int64_t>> NvmOn, NvmOff;
    std::vector<RunResult> On = runTire(E, &Sink, 5, /*Seed=*/3, &NvmOn);
    std::vector<RunResult> Off =
        runTire(E, nullptr, 5, /*Seed=*/3, &NvmOff);
    ASSERT_EQ(On.size(), Off.size());
    for (size_t R = 0; R < On.size(); ++R)
      expectIdentical(On[R], Off[R],
                      "engine " + std::to_string(static_cast<int>(E)) +
                          " run " + std::to_string(R));
    EXPECT_EQ(NvmOn, NvmOff);
    EXPECT_GT(Sink.size(), 0u) << "the traced run must actually trace";
  }
}

// -- Ring behavior ---------------------------------------------------------

TEST(TraceSinkTest, BoundedRingDropsOldest) {
  TraceSink Sink(/*Capacity=*/4);
  for (uint64_t T = 1; T <= 6; ++T)
    Sink.reboot(/*Tau=*/T * 10, /*Epoch=*/T);
  EXPECT_EQ(Sink.size(), 4u);
  EXPECT_EQ(Sink.dropped(), 2u);
  std::vector<TraceEvent> Events = Sink.events();
  ASSERT_EQ(Events.size(), 4u);
  // Oldest two (ts 10, 20) are gone; the survivors stay in order.
  EXPECT_EQ(Events.front().Ts, 30u);
  EXPECT_EQ(Events.back().Ts, 60u);
  EXPECT_NE(Sink.exportChromeJson().find("\"dropped\":2"),
            std::string::npos);

  Sink.clear();
  EXPECT_EQ(Sink.size(), 0u);
  EXPECT_EQ(Sink.dropped(), 0u);
}

// -- PcProfile -------------------------------------------------------------

TEST(PcProfileTest, FusionInvariantAndSumToSteps) {
  // Superinstruction slots count individually, so the per-PC histogram of
  // the taint-off checked loop, which runs fused pairs, equals the taint
  // loop's, which dispatches every PC's plain code (tracedConfig arms the
  // formal monitor, an observer that changes no step), and both account
  // for every executed step.
  const BenchmarkDef &B = *findBenchmark("tire");
  CompiledBenchmark CB = compileBenchmark(B, ExecModel::Ocelot);
  ASSERT_GT(CB.Artifact.image().fusedPairCount(), 0u);
  auto profiled = [&](RunConfig Cfg, PcProfile &P) {
    P.prepare(CB.Artifact.image().size(), static_cast<size_t>(NumOpcodes));
    Cfg.Sensors = B.scenario(5);
    Cfg.Seed = 5;
    Cfg.Profile = &P;
    Simulation Sim(CB.Artifact, std::move(Cfg));
    uint64_t Steps = 0;
    for (int R = 0; R < 4; ++R)
      Steps += Sim.runOnce().Steps;
    return Steps;
  };

  RunConfig TaintOff = tracedConfig();
  TaintOff.MonitorFormal = false;
  PcProfile Fused, Plain;
  uint64_t FusedSteps = profiled(TaintOff, Fused);
  uint64_t PlainSteps = profiled(tracedConfig(), Plain);

  EXPECT_EQ(FusedSteps, PlainSteps);
  EXPECT_EQ(Fused.Steps, FusedSteps);
  EXPECT_EQ(Plain.Steps, PlainSteps);
  EXPECT_EQ(Fused.PcCounts, Plain.PcCounts);
  EXPECT_EQ(Fused.PairCounts, Plain.PairCounts);
  uint64_t PcSum = std::accumulate(Fused.PcCounts.begin(),
                                   Fused.PcCounts.end(),
                                   static_cast<uint64_t>(0));
  EXPECT_EQ(PcSum, FusedSteps);
}

TEST(PcProfileTest, MergeAccumulates) {
  PcProfile A, B;
  A.prepare(4, 3);
  B.prepare(4, 3);
  A.step(0, 1, ~0u, 0);
  A.step(1, 2, 0, 1);
  B.step(1, 2, ~0u, 0);
  A.merge(B);
  EXPECT_EQ(A.Steps, 3u);
  EXPECT_EQ(A.PcCounts[1], 2u);
  EXPECT_EQ(A.PairCounts[1 * 3 + 2], 1u); // Only A's adjacent pair.
}

// -- MetricsRegistry -------------------------------------------------------

TEST(MetricsRegistryTest, CountersSummariesAndDeterministicDump) {
  MetricsRegistry M;
  M.add("z.last");
  M.add("a.first", 41);
  M.add("a.first");
  M.observe("lat.ms", 2.0);
  M.observe("lat.ms", 8.0);

  EXPECT_EQ(M.counter("a.first"), 42u);
  EXPECT_EQ(M.counter("absent"), 0u);
  MetricsRegistry::Summary S = M.summary("lat.ms");
  EXPECT_EQ(S.Count, 2u);
  EXPECT_DOUBLE_EQ(S.Sum, 10.0);
  EXPECT_DOUBLE_EQ(S.Min, 2.0);
  EXPECT_DOUBLE_EQ(S.Max, 8.0);

  std::string Text = M.dumpText();
  // Sorted by name: a.first before z.last.
  EXPECT_LT(Text.find("a.first"), Text.find("z.last"));
  EXPECT_TRUE(JsonChecker(M.dumpJson()).valid()) << M.dumpJson();

  M.reset();
  EXPECT_EQ(M.counter("a.first"), 0u);
  EXPECT_EQ(M.summary("lat.ms").Count, 0u);
}

TEST(MetricsRegistryTest, ToolchainFeedsGlobalRegistry) {
  MetricsRegistry &M = MetricsRegistry::global();
  uint64_t Before = M.counter("toolchain.compile.count");
  double SumBefore = M.summary("toolchain.compile.wall_ms").Sum;
  CompileOptions Opts;
  Opts.Model = ExecModel::Ocelot;
  Compilation C =
      Toolchain().compile(findBenchmark("tire")->AnnotatedSrc, Opts);
  ASSERT_TRUE(C.ok());
  EXPECT_EQ(M.counter("toolchain.compile.count"), Before + 1);
  EXPECT_GE(M.summary("toolchain.compile.wall_ms").Sum, SumBefore);
}

TEST(MetricsRegistryTest, ToolchainFeedsOneSummaryPerPass) {
  const char *const Passes[] = {"parse",    "sema",     "lower",
                                "verify",   "callgraph", "taint",
                                "policies", "regions",  "war",
                                "image"};
  ASSERT_EQ(std::size(Passes), NumCompilePasses);
  MetricsRegistry &M = MetricsRegistry::global();
  std::map<std::string, MetricsRegistry::Summary> Before;
  for (const char *P : Passes) {
    std::string Name = std::string("toolchain.compile.") + P + "_ms";
    Before[Name] = M.summary(Name);
  }
  MetricsRegistry::Summary WallBefore = M.summary("toolchain.compile.wall_ms");

  Compilation C = Toolchain().compile(findBenchmark("cem")->AnnotatedSrc);
  ASSERT_TRUE(C.ok());

  double PassSum = 0;
  for (const auto &[Name, B] : Before) {
    MetricsRegistry::Summary S = M.summary(Name);
    EXPECT_EQ(S.Count, B.Count + 1) << Name;
    EXPECT_GE(S.Sum, B.Sum) << Name;
    PassSum += S.Sum - B.Sum;
  }
  // The passes, image build included, all lie inside the wall time.
  double Wall = M.summary("toolchain.compile.wall_ms").Sum - WallBefore.Sum;
  EXPECT_LE(PassSum, Wall + 1e-6);
  EXPECT_GT(M.summary("toolchain.compile.image_ms").Sum -
                Before["toolchain.compile.image_ms"].Sum,
            0.0);
}

} // namespace
