//===- ocelotc.cpp - The Ocelot command-line compiler/runner ---------------------===//
//
// Part of the Ocelot reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Command-line front end for the toolchain:
///
///   ocelotc FILE.ocl [options]
///
///   --model=jit|atomics|ocelot|check   execution model (default ocelot)
///   --dispatch=tree|threaded           interpreter engine (default
///                                      threaded; the two are pinned
///                                      bitwise-identical)
///   --emit-ir                          print the compiled IR
///   --disasm                           print the flat executable image
///                                      (PC, opcode, resolved targets,
///                                      cost, region/monitor annotations)
///   --emit-policies                    print derived policies and regions
///   --run[=N]                          run N main() activations (default 1;
///                                      N is a non-negative integer)
///   --intermittent                     energy-driven power failures
///   --power=P                          harvesting environment: a profile
///                                      name (see src/power/PowerProfiles.h)
///                                      or a power-trace CSV path; implies
///                                      --intermittent
///   --sensors=S                        sensed world: a scenario preset
///                                      name (see
///                                      src/sensors/SensorScenarios.h) or a
///                                      sensor-trace CSV path (default:
///                                      per-sensor seeded noise)
///   --monitor                          arm both violation detectors
///   --seed=S                           simulation seed (a non-negative
///                                      integer)
///   --trace-out=FILE                   write a Chrome trace_event JSON
///                                      timeline of the run (reboots,
///                                      regions, monitor checks, sensor
///                                      reads; load in Perfetto /
///                                      chrome://tracing)
///   --profile                          after --run, print per-PC and
///                                      opcode-pair execution counts and
///                                      how the superinstruction pattern
///                                      table covers the measured pairs
///
/// Exit status: 0 on success; 1 on compile/check/run failure (including an
/// unknown --model=, --dispatch=, --power= or --sensors= value, or a
/// malformed --run= or --seed= number); for --monitor runs, 2 when any
/// timing violation was detected.
///
//===----------------------------------------------------------------------===//

#include "ir/IRPrinter.h"
#include "ocelot/Toolchain.h"
#include "power/PowerProfiles.h"
#include "runtime/Simulation.h"
#include "sensors/SensorScenarios.h"
#include "telemetry/Profile.h"
#include "telemetry/TraceSink.h"

#include <algorithm>
#include <charconv>
#include <climits>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

using namespace ocelot;

namespace {

struct ModelName {
  const char *Name;
  ExecModel Model;
};

constexpr ModelName ModelNames[] = {
    {"jit", ExecModel::JitOnly},
    {"atomics", ExecModel::AtomicsOnly},
    {"ocelot", ExecModel::Ocelot},
    {"check", ExecModel::CheckOnly},
};

struct EngineName {
  const char *Name;
  DispatchEngine Engine;
};

constexpr EngineName EngineNames[] = {
    {"tree", DispatchEngine::Tree},
    {"threaded", DispatchEngine::Threaded},
};

void usage() {
  std::fprintf(
      stderr,
      "usage: ocelotc FILE.ocl [--model=jit|atomics|ocelot|check]\n"
      "               [--dispatch=tree|threaded]\n"
      "               [--emit-ir] [--disasm] [--emit-policies] [--run[=N]]\n"
      "               [--intermittent] [--power=profile|trace.csv]\n"
      "               [--sensors=scenario|trace.csv] [--monitor] "
      "[--seed=S]\n"
      "               [--trace-out=FILE] [--profile]\n");
}

/// Parses \p Text as a whole non-negative decimal integer no larger than
/// \p Max into \p Out. A sign, trailing text or overflow is rejected.
bool parseCount(const std::string &Text, uint64_t Max, uint64_t &Out) {
  const char *End = Text.data() + Text.size();
  auto [Ptr, Ec] = std::from_chars(Text.data(), End, Out);
  return Ec == std::errc() && Ptr == End && Out <= Max;
}

int invalidNumber(const char *Flag, const std::string &Text) {
  std::fprintf(stderr,
               "error: invalid %s value '%s' (expected a non-negative "
               "integer)\n",
               Flag, Text.c_str());
  return 1;
}

/// `--profile` report: per-PC execution counts with disassembly context,
/// and the PC-adjacent opcode-pair histogram annotated with the current
/// superinstruction pattern table's coverage — measured data for choosing
/// the next fusion candidates.
void printProfile(const CompiledArtifact &A, const PcProfile &Prof) {
  const ExecutableImage &Img = A.image();
  const Program &P = A.program();
  const std::vector<FlatInst> &Code = Img.code();

  std::printf("\nprofile: %llu step(s) over %u PC(s)\n",
              static_cast<unsigned long long>(Prof.Steps), Img.size());

  std::vector<uint32_t> Pcs;
  for (uint32_t Pc = 0; Pc < Prof.PcCounts.size(); ++Pc)
    if (Prof.PcCounts[Pc])
      Pcs.push_back(Pc);
  std::sort(Pcs.begin(), Pcs.end(), [&](uint32_t L, uint32_t R) {
    if (Prof.PcCounts[L] != Prof.PcCounts[R])
      return Prof.PcCounts[L] > Prof.PcCounts[R];
    return L < R;
  });
  size_t TopPcs = std::min<size_t>(Pcs.size(), 20);
  std::printf("hot PCs (top %zu of %zu executed):\n", TopPcs, Pcs.size());
  for (size_t I = 0; I < TopPcs; ++I) {
    uint32_t Pc = Pcs[I];
    const FlatInst &FI = Code[Pc];
    ThreadedOp TOp = Img.threadedOps()[Pc];
    std::string FusedNote;
    if (TOp >= FirstFusedOp)
      FusedNote = std::string("  [fused head: ") + threadedOpName(TOp) + "]";
    std::printf("  pc %5u  %12llu  %-9s %s@%u%s\n", Pc,
                static_cast<unsigned long long>(Prof.PcCounts[Pc]),
                opcodeName(FI.Op), P.function(FI.Func)->name().c_str(),
                FI.Label, FusedNote.c_str());
  }

  struct PairRow {
    uint16_t Prev, Cur;
    uint64_t N;
  };
  std::vector<PairRow> Pairs;
  for (uint16_t Prev = 0; Prev < Prof.NumOpcodes; ++Prev)
    for (uint16_t Cur = 0; Cur < Prof.NumOpcodes; ++Cur) {
      uint64_t N = Prof.PairCounts[static_cast<size_t>(Prev) *
                                       Prof.NumOpcodes +
                                   Cur];
      if (N)
        Pairs.push_back({Prev, Cur, N});
    }
  std::sort(Pairs.begin(), Pairs.end(), [](const PairRow &L,
                                           const PairRow &R) {
    if (L.N != R.N)
      return L.N > R.N;
    if (L.Prev != R.Prev)
      return L.Prev < R.Prev;
    return L.Cur < R.Cur;
  });
  size_t TopPairs = std::min<size_t>(Pairs.size(), 15);
  std::printf("hot PC-adjacent opcode pairs (top %zu of %zu; feed for the "
              "superinstruction table):\n",
              TopPairs, Pairs.size());
  for (size_t I = 0; I < TopPairs; ++I) {
    const PairRow &Row = Pairs[I];
    const Opcode Prev = static_cast<Opcode>(Row.Prev);
    const Opcode Cur = static_cast<Opcode>(Row.Cur);
    std::string Name = std::string(opcodeName(Prev)) + "+" + opcodeName(Cur);
    const bool Covered =
        std::any_of(std::begin(FusedPairTable), std::end(FusedPairTable),
                    [&](const FusedPair &P) {
                      return P.Head == Prev && P.Tail == Cur;
                    });
    std::printf("  %-20s %12llu  %s\n", Name.c_str(),
                static_cast<unsigned long long>(Row.N),
                Covered ? "[in pattern table]" : "[unfused]");
  }
}

} // namespace

int main(int argc, char **argv) {
  std::string Path;
  ExecModel Model = ExecModel::Ocelot;
  DispatchEngine Engine = RunConfig().Dispatch;
  bool EmitIr = false, Disasm = false, EmitPolicies = false,
       Intermittent = false, Monitor = false, Profile = false;
  std::string TracePath;
  std::shared_ptr<const PowerSource> Power;
  std::shared_ptr<const SensorScenario> Sensors;
  int Runs = 0;
  uint64_t Seed = 1;

  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (Arg == "--emit-ir") {
      EmitIr = true;
    } else if (Arg == "--disasm") {
      Disasm = true;
    } else if (Arg == "--emit-policies") {
      EmitPolicies = true;
    } else if (Arg == "--run") {
      Runs = 1;
    } else if (Arg.rfind("--run=", 0) == 0) {
      uint64_t N = 0;
      if (!parseCount(Arg.substr(6), INT_MAX, N))
        return invalidNumber("--run", Arg.substr(6));
      Runs = static_cast<int>(N);
    } else if (Arg == "--intermittent") {
      Intermittent = true;
    } else if (Arg.rfind("--power=", 0) == 0) {
      std::string Error;
      Power = resolvePowerSource(Arg.substr(8), Error);
      if (!Power) {
        std::fprintf(stderr, "error: %s\n", Error.c_str());
        return 1;
      }
      Intermittent = true; // A harvesting environment implies failures.
    } else if (Arg.rfind("--sensors=", 0) == 0) {
      std::string Error;
      Sensors = resolveSensorScenario(Arg.substr(10), Error);
      if (!Sensors) {
        std::fprintf(stderr, "error: %s\n", Error.c_str());
        return 1;
      }
    } else if (Arg == "--monitor") {
      Monitor = true;
    } else if (Arg == "--profile") {
      Profile = true;
    } else if (Arg.rfind("--trace-out=", 0) == 0) {
      TracePath = Arg.substr(12);
    } else if (Arg.rfind("--seed=", 0) == 0) {
      if (!parseCount(Arg.substr(7), UINT64_MAX, Seed))
        return invalidNumber("--seed", Arg.substr(7));
    } else if (Arg.rfind("--dispatch=", 0) == 0) {
      std::string E = Arg.substr(11);
      bool Known = false;
      for (const EngineName &EN : EngineNames)
        if (E == EN.Name) {
          Engine = EN.Engine;
          Known = true;
          break;
        }
      if (!Known) {
        std::fprintf(
            stderr,
            "error: unknown engine '%s' (valid: tree|threaded)\n",
            E.c_str());
        return 1;
      }
    } else if (Arg.rfind("--model=", 0) == 0) {
      std::string M = Arg.substr(8);
      bool Known = false;
      for (const ModelName &MN : ModelNames)
        if (M == MN.Name) {
          Model = MN.Model;
          Known = true;
          break;
        }
      if (!Known) {
        std::string Valid;
        for (const ModelName &MN : ModelNames) {
          if (!Valid.empty())
            Valid += ", ";
          Valid += MN.Name;
        }
        std::fprintf(stderr, "error: unknown model '%s' (valid models: %s)\n",
                     M.c_str(), Valid.c_str());
        return 1;
      }
    } else if (!Arg.empty() && Arg[0] != '-' && Path.empty()) {
      Path = Arg;
    } else {
      usage();
      return 1;
    }
  }
  if (Path.empty()) {
    usage();
    return 1;
  }

  std::ifstream In(Path);
  if (!In) {
    std::fprintf(stderr, "error: cannot open %s\n", Path.c_str());
    return 1;
  }
  std::stringstream Buf;
  Buf << In.rdbuf();
  std::string Source = Buf.str();

  TraceSink Sink;
  const bool Tracing = !TracePath.empty();

  CompileOptions Opts;
  Opts.Model = Model;
  if (Tracing)
    Sink.compileStart(Path);
  Compilation C = Toolchain().compile(Source, Opts);
  if (Tracing)
    Sink.compileEnd(Path);
  // Warnings (including checker-mode findings) always print.
  for (const Diagnostic &D : C.status().diagnostics())
    std::fprintf(stderr, "%s: %s\n", Path.c_str(), D.str().c_str());
  if (!C.ok())
    return 1;
  const CompiledArtifact &A = C.artifact();

  std::printf("compiled %s under model '%s': %zu policies, %zu inferred "
              "region(s)\n",
              Path.c_str(), execModelName(Model), A.policies().size(),
              A.inferredRegions().size());
  if (Model == ExecModel::CheckOnly) {
    std::printf("placement %s\n", A.placementValid() ? "VALID" : "INVALID");
    if (!A.placementValid())
      return 1;
  }

  if (EmitIr)
    std::printf("\n%s", printProgram(A.program()).c_str());

  if (Disasm)
    std::printf("\n%s", A.image().disassemble(A.program()).c_str());

  if (EmitPolicies)
    std::fputs(renderPolicies(A).c_str(), stdout);

  auto WriteTrace = [&]() -> bool {
    if (!Tracing)
      return true;
    std::string Error;
    if (!Sink.writeChromeJson(TracePath, &Error)) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      return false;
    }
    std::fprintf(stderr, "wrote %zu trace event(s) to %s%s\n", Sink.size(),
                 TracePath.c_str(),
                 Sink.dropped() ? " (ring overflow dropped oldest)" : "");
    return true;
  };

  if (Runs <= 0) {
    if (Profile)
      std::fprintf(stderr,
                   "note: --profile needs --run to collect any data\n");
    return WriteTrace() ? 0 : 1;
  }

  SimulationSpec Spec;
  Spec.Config.Sensors = Sensors; // Null = seeded noise per sensor.
  Spec.Config.Seed = Seed;
  Spec.Config.Dispatch = Engine;
  Spec.Config.RecordTrace = true;
  if (Intermittent) {
    Spec.Config.Plan = FailurePlan::energyDriven();
    Spec.Config.Power = Power; // Null = legacy-jitter default.
  }
  if (Monitor) {
    Spec.Config.MonitorBitVector = true;
    Spec.Config.MonitorFormal = true;
  }
  if (Tracing)
    Spec.Config.Telemetry = &Sink;
  PcProfile Prof;
  if (Profile) {
    Prof.prepare(A.image().size(), static_cast<size_t>(NumOpcodes));
    Spec.Config.Profile = &Prof;
  }
  Simulation Sim(A, std::move(Spec));
  uint64_t Reboots = 0, Violations = 0;
  for (int Run = 0; Run < Runs; ++Run) {
    RunResult Res = Sim.runOnce();
    if (!Res.Completed) {
      std::fprintf(stderr, "run %d failed: %s\n", Run,
                   Res.Starved ? "starved (region exceeds energy budget)"
                               : Res.Trap.c_str());
      return 1;
    }
    Reboots += Res.Reboots;
    if (Res.ViolatedFresh || Res.ViolatedConsistent)
      ++Violations;
    for (const OutputEvent &E : Res.TraceData.Outputs) {
      std::printf("[run %d @%llu] %s(", Run,
                  static_cast<unsigned long long>(E.Tau),
                  outputKindName(E.Kind));
      for (size_t Arg = 0; Arg < E.Args.size(); ++Arg)
        std::printf("%s%lld", Arg ? ", " : "",
                    static_cast<long long>(E.Args[Arg]));
      std::printf(")\n");
    }
  }
  std::printf("%d run(s), %llu reboot(s)", Runs,
              static_cast<unsigned long long>(Reboots));
  if (Monitor)
    std::printf(", %llu run(s) with timing violations",
                static_cast<unsigned long long>(Violations));
  std::printf("\n");
  if (Profile)
    printProfile(A, Prof);
  if (!WriteTrace())
    return 1;
  return Monitor && Violations ? 2 : 0;
}
