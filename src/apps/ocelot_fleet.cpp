//===- ocelot_fleet.cpp - Sharded sweep service CLI -------------*- C++ -*-===//
//
// Part of the Ocelot reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fleet sweep front end:
///
///   ocelot-fleet plan  [grid flags] --shards=K
///       Print the canonical spec, its hash, and every shard's cell range.
///   ocelot-fleet run   [grid flags] --shard=i/K --out=DIR
///       Evaluate (or resume) one shard, streaming results + checkpoints
///       into DIR. Exit 0 = shard complete, 3 = interrupted (--max-cells).
///   ocelot-fleet merge [grid flags] --shards=K --out=DIR [--merged=PATH]
///       Validate all K shards and write the merged file — byte-identical
///       to `run --shard=0/1` over the same grid.
///   ocelot-fleet status DIR
///       Render per-shard progress for every shard in DIR: durable cells
///       from the manifests, live throughput/ETA from the advisory
///       `.progress` heartbeats. Works on in-flight and completed sweeps
///       and never touches result bytes.
///
/// Grid flags (shared by all subcommands; the *same* flags must be passed
/// to every shard and to merge — the spec hash enforces this):
///
///   --benchmarks=a,b,..  default: all six paper benchmarks
///   --models=m,..        jit|atomics|ocelot|check (default: ocelot,jit)
///   --energy=CAP:RES[:RATE:CJ:RJ]   repeatable; default: one default config
///   --powers=p,..        power profiles / trace CSVs; `default` = legacy
///   --scenarios=s,..     sensor scenarios / trace CSVs; `default` = bench's
///   --seeds=n,..         default: 99
///   --tau=N              simulated-time budget per cell (required)
///   --no-monitors        disarm the violation detectors
///   --oracle             score outputs with the input-epoch consistency
///                        oracle (fills the oracle_* / *_enforced_runs
///                        columns; part of the spec hash)
///
/// Run flags: --format=jsonl|csv, --workers=N, --checkpoint-every=N,
/// --max-cells=N (stop early; exit 3), --quiet.
///
/// All bad input exits 1 with a message on stderr; nothing here aborts.
///
//===----------------------------------------------------------------------===//

#include "fleet/FleetRunner.h"
#include "fleet/ShardProgress.h"
#include "harness/Experiment.h"
#include "support/ParseNumber.h"

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#ifndef _WIN32
#include <dirent.h>
#include <sys/stat.h>
#endif

using namespace ocelot;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: ocelot-fleet <plan|run|merge> [grid flags] ...\n"
      "  plan  --shards=K                 show the spec hash and shard "
      "ranges\n"
      "  run   --shard=i/K --out=DIR      evaluate or resume one shard\n"
      "        [--format=jsonl|csv] [--workers=N] [--checkpoint-every=N]\n"
      "        [--max-cells=N] [--quiet]\n"
      "  merge --shards=K --out=DIR       validate + merge all shards\n"
      "        [--format=jsonl|csv] [--merged=PATH]\n"
      "  status DIR                       per-shard progress of a sweep "
      "directory\n"
      "grid flags: --benchmarks= --models= --energy=CAP:RES[:RATE:CJ:RJ]\n"
      "            --powers= --scenarios= --seeds= --tau=N --no-monitors\n"
      "            --oracle\n");
  return 1;
}

int fail(const std::string &Msg) {
  std::fprintf(stderr, "error: %s\n", Msg.c_str());
  return 1;
}

/// --energy=CAP:RES[:RATE:CJ:RJ]; trailing fields keep their defaults. A
/// configuration the energy model cannot run is rejected, naming the rule.
bool parseEnergyFlag(const std::string &Value, EnergyConfig &Out,
                     std::string &Error) {
  std::vector<std::string> Parts;
  size_t Start = 0;
  while (Start <= Value.size()) {
    size_t Colon = Value.find(':', Start);
    if (Colon == std::string::npos)
      Colon = Value.size();
    Parts.push_back(Value.substr(Start, Colon - Start));
    Start = Colon + 1;
  }
  auto Bad = [&](const char *Want) {
    Error = "bad --energy value '" + Value + "' (" + Want + ")";
    return false;
  };
  const char *Shape = "want CAP:RES[:RATE:CHARGE_JITTER:REFILL_JITTER]";
  if (Parts.size() < 2 || Parts.size() > 5 ||
      !parseUnsigned(Parts[0], Out.CapacityCycles) ||
      !parseUnsigned(Parts[1], Out.ReserveCycles))
    return Bad(Shape);
  double *Doubles[] = {&Out.ChargeRate, &Out.ChargeJitter, &Out.RefillJitter};
  for (size_t I = 2; I < Parts.size(); ++I)
    if (!parseDouble(Parts[I], *Doubles[I - 2]))
      return Bad(Shape);
  if (Out.ReserveCycles >= Out.CapacityCycles)
    return Bad("the reserve RES must be below the capacity CAP");
  if (!(Out.ChargeRate > 0))
    return Bad("the charge rate RATE must be finite and above 0");
  for (double Jitter : {Out.ChargeJitter, Out.RefillJitter})
    if (!(Jitter >= 0 && Jitter <= 1))
      return Bad("each jitter must lie in [0, 1]");
  return true;
}

bool ensureDir(const std::string &Path, std::string &Error) {
#ifndef _WIN32
  // mkdir -p: create each component, tolerating ones that exist.
  for (size_t I = 1; I <= Path.size(); ++I) {
    if (I != Path.size() && Path[I] != '/')
      continue;
    std::string Prefix = Path.substr(0, I);
    if (::mkdir(Prefix.c_str(), 0777) != 0 && errno != EEXIST) {
      Error = "cannot create directory " + Prefix + ": " +
              std::strerror(errno);
      return false;
    }
  }
#else
  (void)Path;
  (void)Error;
#endif
  return true;
}

/// `ocelot-fleet status DIR`: one row per manifest found in DIR. Durable
/// progress comes from the manifest (the source of truth); rate and ETA
/// come from the last `.progress` heartbeat when one exists. Needs no
/// grid flags — everything is read from the shard files themselves.
int runStatus(const std::string &Dir) {
#ifdef _WIN32
  return fail("status is not supported on this platform");
#else
  struct Row {
    unsigned Shard = 0, ShardCount = 1;
    ShardManifest M;
    ShardProgress P;
    bool HaveProgress = false;
  };
  std::vector<Row> Rows;
  DIR *D = ::opendir(Dir.c_str());
  if (!D)
    return fail("cannot open directory " + Dir + ": " +
                std::strerror(errno));
  while (struct dirent *E = ::readdir(D)) {
    unsigned Shard, Count;
    char Tail;
    // Only `shard-i-of-K.manifest` names; %c rejects longer suffixes.
    if (std::sscanf(E->d_name, "shard-%u-of-%u.manifes%c", &Shard, &Count,
                    &Tail) != 3 ||
        Tail != 't' ||
        std::strlen(E->d_name) !=
            static_cast<size_t>(std::snprintf(nullptr, 0,
                                              "shard-%u-of-%u.manifest",
                                              Shard, Count)))
      continue;
    Row R;
    R.Shard = Shard;
    R.ShardCount = Count;
    std::string Error;
    if (!loadShardManifest(Dir + "/" + E->d_name, R.M, Error)) {
      std::fprintf(stderr, "warning: %s\n", Error.c_str());
      continue;
    }
    ShardRunOptions Opts;
    Opts.OutDir = Dir;
    Opts.Shard = Shard;
    Opts.ShardCount = Count;
    R.HaveProgress = readLastShardProgress(shardProgressPath(Opts), R.P);
    Rows.push_back(std::move(R));
  }
  ::closedir(D);
  if (Rows.empty())
    return fail("no shard manifests in " + Dir);
  std::sort(Rows.begin(), Rows.end(), [](const Row &A, const Row &B) {
    return A.ShardCount != B.ShardCount ? A.ShardCount < B.ShardCount
                                        : A.Shard < B.Shard;
  });

  std::printf("%-8s %-16s %12s %12s %10s %8s  %s\n", "shard", "cells",
              "durable", "observed", "cells/s", "eta", "state");
  size_t TotalCells = 0, TotalDone = 0;
  unsigned Complete = 0;
  for (const Row &R : Rows) {
    size_t Range = R.M.CellsEnd - R.M.CellsBegin;
    size_t Durable = R.M.CellsNext - R.M.CellsBegin;
    TotalCells += Range;
    TotalDone += Durable;
    Complete += R.M.complete() ? 1 : 0;
    char Id[32], Cells[48], Dur[32], Obs[32], Rate[32], Eta[32];
    std::snprintf(Id, sizeof(Id), "%u/%u", R.Shard, R.ShardCount);
    std::snprintf(Cells, sizeof(Cells), "[%zu, %zu)", R.M.CellsBegin,
                  R.M.CellsEnd);
    std::snprintf(Dur, sizeof(Dur), "%zu/%zu", Durable, Range);
    if (R.HaveProgress) {
      std::snprintf(Obs, sizeof(Obs), "%zu/%zu", R.P.CellsDone, Range);
      std::snprintf(Rate, sizeof(Rate), "%.1f", R.P.CellsPerSec);
      if (R.M.complete() || R.P.done())
        std::snprintf(Eta, sizeof(Eta), "-");
      else
        std::snprintf(Eta, sizeof(Eta), "%.0fs", R.P.EtaSec);
    } else {
      std::snprintf(Obs, sizeof(Obs), "-");
      std::snprintf(Rate, sizeof(Rate), "-");
      std::snprintf(Eta, sizeof(Eta), "-");
    }
    std::printf("%-8s %-16s %12s %12s %10s %8s  %s\n", Id, Cells, Dur, Obs,
                Rate, Eta, R.M.complete() ? "complete" : "in progress");
  }
  std::printf("total: %zu/%zu cells durable, %u/%zu shard(s) complete\n",
              TotalDone, TotalCells, Complete, Rows.size());
  // Exit 0 when the sweep is done, 3 while shards remain — scripts can
  // poll `status` the way they check `run`'s interrupted exit code.
  return Complete == Rows.size() ? 0 : 3;
#endif
}

} // namespace

int main(int argc, char **argv) {
  if (argc < 2)
    return usage();
  std::string Cmd = argv[1];
  if (Cmd == "status") {
    std::string Dir;
    for (int I = 2; I < argc; ++I) {
      std::string Arg = argv[I];
      if (Arg.rfind("--out=", 0) == 0)
        Dir = Arg.substr(6);
      else if (!Arg.empty() && Arg[0] != '-' && Dir.empty())
        Dir = Arg;
      else
        return fail("unknown status argument '" + Arg + "'");
    }
    if (Dir.empty())
      return fail("status needs a sweep directory: ocelot-fleet status DIR");
    return runStatus(Dir);
  }
  if (Cmd != "plan" && Cmd != "run" && Cmd != "merge") {
    std::fprintf(stderr, "error: unknown subcommand '%s'\n", Cmd.c_str());
    return usage();
  }

  FleetSpec Fleet;
  Fleet.Models = {"ocelot", "jit"};
  for (const BenchmarkDef &B : allBenchmarks())
    Fleet.Benchmarks.push_back(B.Name);
  Fleet.Powers = {"default"};
  Fleet.Scenarios = {"default"};
  Fleet.Seeds = {99};

  ShardRunOptions Run;
  MergeOptions Merge;
  unsigned Shards = 1;
  bool HaveShard = false, HaveOut = false, HaveEnergy = false;
  std::string Error;

  for (int I = 2; I < argc; ++I) {
    std::string Arg = argv[I];
    auto Value = [&](const char *Prefix) {
      return Arg.substr(std::strlen(Prefix));
    };
    uint64_t U = 0;
    if (Arg.rfind("--benchmarks=", 0) == 0) {
      Fleet.Benchmarks = splitCommaList(Value("--benchmarks="));
    } else if (Arg.rfind("--models=", 0) == 0) {
      Fleet.Models = splitCommaList(Value("--models="));
    } else if (Arg.rfind("--energy=", 0) == 0) {
      EnergyConfig E;
      if (!parseEnergyFlag(Value("--energy="), E, Error))
        return fail(Error);
      if (!HaveEnergy)
        Fleet.Energies.clear();
      HaveEnergy = true;
      Fleet.Energies.push_back(E);
    } else if (Arg.rfind("--powers=", 0) == 0) {
      Fleet.Powers = splitCommaList(Value("--powers="));
    } else if (Arg.rfind("--scenarios=", 0) == 0) {
      Fleet.Scenarios = splitCommaList(Value("--scenarios="));
    } else if (Arg.rfind("--seeds=", 0) == 0) {
      Fleet.Seeds.clear();
      for (const std::string &S : splitCommaList(Value("--seeds="))) {
        if (!parseUnsigned(S, U))
          return fail("bad --seeds value '" + S + "'");
        Fleet.Seeds.push_back(U);
      }
    } else if (Arg.rfind("--tau=", 0) == 0) {
      if (!parseUnsigned(Value("--tau="), Fleet.TauBudget))
        return fail("bad --tau value '" + Value("--tau=") + "'");
    } else if (Arg == "--no-monitors") {
      Fleet.Monitors = false;
    } else if (Arg == "--oracle") {
      Fleet.Oracle = true;
    } else if (Arg.rfind("--shard=", 0) == 0) {
      if (!parseShardSpec(Value("--shard="), Run.Shard, Run.ShardCount,
                          Error))
        return fail(Error);
      HaveShard = true;
    } else if (Arg.rfind("--shards=", 0) == 0) {
      if (!parseUnsigned(Value("--shards="), Shards) || Shards == 0)
        return fail("bad --shards value '" + Value("--shards=") +
                    "' (want >= 1)");
    } else if (Arg.rfind("--out=", 0) == 0) {
      Run.OutDir = Merge.OutDir = Value("--out=");
      HaveOut = true;
    } else if (Arg.rfind("--format=", 0) == 0) {
      SinkFormat F;
      if (!parseSinkFormat(Value("--format="), F, Error))
        return fail(Error);
      Run.Format = Merge.Format = F;
    } else if (Arg.rfind("--workers=", 0) == 0) {
      if (!parseWorkersFlag(Value("--workers=").c_str(), Run.Workers))
        return 1;
    } else if (Arg.rfind("--checkpoint-every=", 0) == 0) {
      if (!parseUnsigned(Value("--checkpoint-every="), Run.CheckpointEvery) ||
          Run.CheckpointEvery == 0)
        return fail("bad --checkpoint-every value (want >= 1)");
    } else if (Arg.rfind("--max-cells=", 0) == 0) {
      if (!parseUnsigned(Value("--max-cells="), Run.MaxCells) ||
          Run.MaxCells == 0)
        return fail("bad --max-cells value (want >= 1)");
    } else if (Arg.rfind("--merged=", 0) == 0) {
      Merge.MergedPath = Value("--merged=");
    } else if (Arg == "--quiet") {
      Run.Quiet = true;
    } else {
      return fail("unknown flag '" + Arg + "'");
    }
  }
  if (Fleet.Energies.empty())
    Fleet.Energies.push_back(EnergyConfig());

  // Resolve early so every subcommand rejects a bad grid the same way.
  SweepSpec Spec;
  if (!Fleet.resolve(Spec, Error))
    return fail(Error);

  if (Cmd == "plan") {
    ShardPlan Plan(Spec.cellCount(), Shards);
    std::printf("%s", Fleet.canonical().c_str());
    std::printf("spec-hash %016" PRIx64 "\n", Fleet.hash());
    std::printf("cells %zu\n", Plan.cells());
    for (unsigned S = 0; S < Plan.shards(); ++S) {
      ShardRange R = Plan.range(S);
      std::printf("shard %u/%u cells [%zu, %zu) (%zu)\n", S, Plan.shards(),
                  R.Begin, R.End, R.size());
    }
    return 0;
  }

  if (!HaveOut)
    return fail("missing --out=DIR");
  if (Cmd == "run") {
    if (!HaveShard)
      return fail("missing --shard=i/K");
    if (!ensureDir(Run.OutDir, Error))
      return fail(Error);
    ShardOutcome Outcome;
    if (!runShard(Fleet, Run, Outcome, Error))
      return fail(Error);
    return Outcome == ShardOutcome::Complete ? 0 : 3;
  }

  // merge
  Merge.ShardCount = Shards;
  MergeSummary Summary;
  if (!mergeShards(Fleet, Merge, Summary, Error))
    return fail(Error);
  std::printf("merged %zu cells: %" PRIu64 " completed runs, %" PRIu64
              " violating, %zu starved cell(s), %zu trapped cell(s)\n",
              Summary.Cells, Summary.CompletedRuns, Summary.ViolatingRuns,
              Summary.StarvedCells, Summary.TrappedCells);
  return 0;
}
