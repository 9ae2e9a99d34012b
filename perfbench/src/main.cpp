//===- main.cpp - perfbench: the end-to-end + per-layer benchmark ----------===//
//
// Part of the Ocelot reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
///   perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
///             [--work-dir DIR] [--expected-dir DIR] [--trace-out FILE]
///             [--commit ID] [--bless]
///
/// Measures one workload in this process and prints, as its last stdout
/// line, one JSON object {correct, attempted, failed, metrics}. With
/// `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
/// per-layer ones, and the spans go to a Chrome-trace file. `--bless`
/// rewrites the workload's expected records at its default seed.
///
/// Refuses to measure (exit 3) in a Debug or sanitizer build.
///
//===----------------------------------------------------------------------===//

#include "Driver.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

using namespace perfbench;

namespace {

int usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME [--seed N] "
               "[--seconds S] [--trace 0|1] [--work-dir DIR] "
               "[--expected-dir DIR] [--trace-out FILE] [--commit ID] "
               "[--bless]\nworkloads:",
               Why);
  for (const Workload &W : workloads())
    std::fprintf(stderr, " %s", W.Name);
  std::fprintf(stderr, "\n");
  return 2;
}

bool parseU64(const std::string &S, uint64_t &Out) {
  if (S.empty())
    return false;
  char *End = nullptr;
  unsigned long long V = std::strtoull(S.c_str(), &End, 10);
  if (*End != '\0' || S[0] == '-')
    return false;
  Out = V;
  return true;
}

/// JSON string body for a value known to hold no control characters.
std::string jsonEscape(const std::string &S) {
  std::string Out;
  for (char Ch : S) {
    if (Ch == '"' || Ch == '\\')
      Out += '\\';
    Out += Ch;
  }
  return Out;
}

} // namespace

int main(int argc, char **argv) {
  std::string WorkloadName, WorkDir = ".", ExpectedDir = ".", TraceOut,
                            Commit = "unknown";
  uint64_t Seed = 0, Seconds = 10, Trace = 0;
  bool HaveSeed = false, Bless = false;
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I], Value;
    if (Arg == "--bless") {
      Bless = true;
      continue;
    }
    size_t Eq = Arg.find('=');
    if (Eq != std::string::npos) {
      Value = Arg.substr(Eq + 1);
      Arg.resize(Eq);
    } else if (I + 1 < argc) {
      Value = argv[++I];
    } else {
      return usage(("missing value for " + Arg).c_str());
    }
    if (Arg == "--workload")
      WorkloadName = Value;
    else if (Arg == "--seed") {
      if (!parseU64(Value, Seed))
        return usage("bad --seed");
      HaveSeed = true;
    } else if (Arg == "--seconds") {
      if (!parseU64(Value, Seconds) || Seconds == 0)
        return usage("bad --seconds");
    } else if (Arg == "--trace") {
      if (!parseU64(Value, Trace) || Trace > 1)
        return usage("bad --trace (want 0 or 1)");
    } else if (Arg == "--work-dir")
      WorkDir = Value;
    else if (Arg == "--expected-dir")
      ExpectedDir = Value;
    else if (Arg == "--trace-out")
      TraceOut = Value;
    else if (Arg == "--commit")
      Commit = Value;
    else
      return usage(("unknown flag " + Arg).c_str());
  }
  const Workload *W = findWorkload(WorkloadName);
  if (!W)
    return usage(("unknown workload '" + WorkloadName + "'").c_str());

  // Numbers from an unoptimized or instrumented build measure the build,
  // not the code.
  const std::string BuildType = PERFBENCH_BUILD_TYPE;
#ifndef NDEBUG
  const bool Asserts = true;
#else
  const bool Asserts = false;
#endif
  if (BuildType.empty() || BuildType == "Debug" || PERFBENCH_SANITIZE ||
      Asserts) {
    std::fprintf(stderr,
                 "perfbench: refusing to report from a '%s'%s build; "
                 "configure with -DCMAKE_BUILD_TYPE=Release\n",
                 BuildType.c_str(),
                 PERFBENCH_SANITIZE ? " sanitizer" : "");
    return 3;
  }

  RunContext C;
  C.W = W;
  C.Seed = HaveSeed ? Seed : W->DefaultSeed;
  C.Seconds = static_cast<double>(Seconds);
  unsigned Hw = std::max(1u, std::thread::hardware_concurrency());
  C.Workers = std::min(W->Workers, Hw);
  C.WorkDir = WorkDir;
  C.Expected = ExpectedDir + "/" + W->Name + ".txt";
  C.TracePath = TraceOut.empty() ? WorkDir + "/" + W->Name + ".trace.json"
                                 : TraceOut;
  C.G = W->Make(C.Seed);
  C.Spec = C.G.sweepSpec();
  std::error_code EC;
  std::filesystem::create_directories(WorkDir, EC);

  if (Bless) {
    C.Seed = W->DefaultSeed;
    C.G = W->Make(C.Seed);
    C.Spec = C.G.sweepSpec();
    UnitResult U = runUnit(C);
    if (!U.Ok || !writeExpected(C.Expected, W->Name, C.Seed, U.Records)) {
      std::fprintf(stderr, "perfbench: cannot bless %s: %s\n",
                   C.Expected.c_str(), U.Error.c_str());
      return 1;
    }
    std::fprintf(stderr, "perfbench: wrote %zu records to %s\n",
                 U.Records.size(), C.Expected.c_str());
    return 0;
  }

  double Load[3] = {0, 0, 0};
  if (getloadavg(Load, 3) != 3)
    Load[0] = Load[1] = Load[2] = -1;
  std::printf("perfbench: workload=%s seed=%llu seconds=%llu trace=%llu "
              "cells=%zu workers=%u\n",
              W->Name, static_cast<unsigned long long>(C.Seed),
              static_cast<unsigned long long>(Seconds),
              static_cast<unsigned long long>(Trace), C.G.cells(),
              C.Workers);
  std::printf("env: {\"commit\": \"%s\", \"build_type\": \"%s\", "
              "\"compiler\": \"%s\", \"nproc\": %u, \"loadavg\": [%.2f, "
              "%.2f, %.2f]}\n",
              jsonEscape(Commit).c_str(), BuildType.c_str(),
              PERFBENCH_COMPILER, Hw, Load[0], Load[1], Load[2]);
  std::fflush(stdout);

  Outcome Out;
  bool Ok = Trace ? runTraced(C, Out) : runUntraced(C, Out);
  if (!Ok) {
    std::fprintf(stderr, "perfbench: run failed\n");
    return 1;
  }

  for (const Metric &M : Out.Metrics)
    std::printf("  %-32s %16.6f %s\n", M.Name.c_str(), M.Value,
                M.Unit.c_str());
  std::printf("  %-32s %16llu count\n  %-32s %16llu count\n", "cells",
              static_cast<unsigned long long>(Out.Attempted), "cells_wrong",
              static_cast<unsigned long long>(Out.Failed));

  std::string Json = "{\"correct\": ";
  Json += Out.Failed == 0 ? "true" : "false";
  Json += ", \"attempted\": " + std::to_string(Out.Attempted);
  Json += ", \"failed\": " + std::to_string(Out.Failed);
  Json += ", \"metrics\": {";
  for (size_t I = 0; I < Out.Metrics.size(); ++I) {
    const Metric &M = Out.Metrics[I];
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.17g",
                  std::isfinite(M.Value) ? M.Value : 0.0);
    Json += (I ? ", \"" : "\"") + M.Name + "\": {\"value\": " + Buf +
            ", \"unit\": \"" + M.Unit + "\"}";
  }
  Json += "}}";
  std::printf("%s\n", Json.c_str());
  return 0;
}
