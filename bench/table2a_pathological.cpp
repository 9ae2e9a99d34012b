//===- table2a_pathological.cpp - Paper Table 2(a) -------------------------------===//
//
// Part of the Ocelot reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Regenerates Table 2(a): the fraction of runs violating a freshness or
/// consistency policy when simulated power failures are injected at the
/// pathological points — immediately before each use of a fresh variable
/// and between the input operations of each consistent set (§7.3). The
/// paper reports Ocelot 0% everywhere, JIT 100% everywhere.
///
//===----------------------------------------------------------------------===//

#include "harness/Experiment.h"
#include "harness/TableFmt.h"
#include "telemetry/TraceSink.h"

#include <cstdio>
#include <string>

using namespace ocelot;

int main(int argc, char **argv) {
  // --trace-out=FILE attaches a TraceSink to every measured run and dumps
  // a Chrome trace_event JSON at exit; the table itself is byte-identical
  // with or without it (telemetry observes tau-time, it never spends it).
  std::string TracePath;
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (Arg.rfind("--trace-out=", 0) == 0) {
      TracePath = Arg.substr(12);
    } else {
      std::fprintf(stderr, "usage: %s [--trace-out=FILE]\n", argv[0]);
      return 1;
    }
  }
  TraceSink Sink;
  TraceSink *Trace = TracePath.empty() ? nullptr : &Sink;

  std::printf("== Table 2(a): Violating %% with pathological power failure "
              "points ==\n\n");
  const int Runs = benchSmokeMode() ? 10 : 100;
  constexpr uint64_t Seed = 7;

  Table T({"Exec. Model", "Activity", "CEM", "Greenhouse", "Photo",
           "Send Photo", "Tire"});
  const char *Names[3] = {"Ocelot", "Atomics(manual)", "JIT"};
  const ExecModel Models[3] = {ExecModel::Ocelot, ExecModel::AtomicsOnly,
                               ExecModel::JitOnly};
  const char *Order[6] = {"activity", "cem",        "greenhouse",
                          "photo",    "send_photo", "tire"};
  for (int M = 0; M < 3; ++M) {
    std::vector<std::string> Row = {Names[M]};
    for (const char *Name : Order) {
      const BenchmarkDef &B = *findBenchmark(Name);
      if (Trace)
        Trace->compileStart(Name);
      CompiledBenchmark CB = compileBenchmark(B, Models[M]);
      if (Trace)
        Trace->compileEnd(Name);
      Row.push_back(
          fmtPct(pathologicalViolationPct(CB, B, Runs, Seed, Trace)));
    }
    T.addRow(std::move(Row));
  }
  std::printf("%s\n", T.str().c_str());
  std::printf("Paper: Ocelot 0%% on all benchmarks; JIT 100%% on all "
              "benchmarks.\n");
  if (Trace) {
    std::string Error;
    if (!Sink.writeChromeJson(TracePath, &Error)) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote %zu trace event(s) to %s%s\n", Sink.size(),
                 TracePath.c_str(),
                 Sink.dropped() ? " (ring overflow dropped oldest)" : "");
  }
  return 0;
}
