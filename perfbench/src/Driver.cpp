//===- Driver.cpp - One benchmark run: set-up, timed phase, checks ---------===//
//
// Part of the Ocelot reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Driver.h"

#include "fleet/FleetRunner.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <malloc.h>
#include <mutex>
#include <numeric>
#include <optional>
#include <random>
#include <string_view>
#include <sys/inotify.h>
#include <sys/resource.h>
#include <thread>
#include <unistd.h>

using namespace ocelot;
using namespace perfbench;

namespace fs = std::filesystem;

namespace {

/// Counts the shard manifests committed in one directory. A shard commits
/// its manifest by renaming a temporary file over `<stem>.manifest`: once
/// when it starts, then once per checkpoint. The watch takes both halves
/// of each rename: inotify merges an event into an identical unread one
/// before it, and the moved-from half keeps successive commits apart.
class ManifestWatch {
public:
  explicit ManifestWatch(const std::string &Dir)
      : Fd(inotify_init1(IN_NONBLOCK | IN_CLOEXEC)) {
    if (Fd >= 0 && inotify_add_watch(Fd, Dir.c_str(),
                                       IN_MOVED_FROM | IN_MOVED_TO) < 0) {
      ::close(Fd);
      Fd = -1;
    }
  }
  ~ManifestWatch() {
    if (Fd >= 0)
      ::close(Fd);
  }
  ManifestWatch(const ManifestWatch &) = delete;
  ManifestWatch &operator=(const ManifestWatch &) = delete;

  /// Reads the queued events. \returns the commits seen so far, or -1 when
  /// the watch is not available or its queue overflowed.
  int64_t commits() {
    alignas(inotify_event) char Buf[4096];
    ssize_t N;
    while (Fd >= 0 && (N = ::read(Fd, Buf, sizeof(Buf))) > 0)
      for (char *P = Buf; P < Buf + N;) {
        const auto *E = reinterpret_cast<const inotify_event *>(P);
        if (E->mask & IN_Q_OVERFLOW)
          Lost = true;
        if ((E->mask & IN_MOVED_TO) && E->len &&
            std::string_view(E->name).ends_with(".manifest"))
          ++Commits;
        P += sizeof(inotify_event) + E->len;
      }
    return Fd < 0 || Lost ? -1 : Commits;
  }

private:
  int Fd;
  int64_t Commits = 0;
  bool Lost = false;
};

} // namespace

double perfbench::quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

double perfbench::compileAll(const RunContext &C, unsigned Workers,
                             SpanRecorder *Rec, int Parent,
                             const PairHook &PerPair) {
  const size_t NB = C.Spec.Benchmarks.size();
  const size_t Pairs = C.Spec.Models.size() * NB;
  std::atomic<size_t> Next{0};
  std::atomic<bool> Failed{false};
  std::mutex ErrMu;
  auto Worker = [&](unsigned Tid) {
    for (size_t I = Next.fetch_add(1); I < Pairs; I = Next.fetch_add(1)) {
      const BenchmarkDef &B = *C.Spec.Benchmarks[I % NB];
      ExecModel Model = C.Spec.Models[I / NB];
      int Id = Rec ? Rec->open("ocelot.compile", Parent, Tid) : -1;
      Compilation X =
          Toolchain().compileCached(sourceFor(B, Model), optionsFor(Model));
      if (Rec)
        Rec->close(Id);
      if (!X.ok()) {
        std::lock_guard<std::mutex> L(ErrMu);
        std::fprintf(stderr, "perfbench: %s under %s failed to compile:\n%s",
                     B.Name.c_str(), execModelName(Model),
                     X.status().str().c_str());
        Failed = true;
      } else if (PerPair) {
        PerPair(B, Model, X.artifact());
      }
    }
  };

  auto Start = Clock::now();
  Toolchain::clearCache();
  size_t Threads = std::min<size_t>(Workers, Pairs);
  if (Threads <= 1) {
    Worker(0);
  } else {
    std::vector<std::thread> Pool;
    for (unsigned T = 0; T < Threads; ++T)
      Pool.emplace_back(Worker, T + 1);
    for (std::thread &T : Pool)
      T.join();
  }
  double Seconds = secondsSince(Start);
  return Failed ? -1 : Seconds;
}

CompiledArtifact perfbench::artifactFor(const RunContext &C, size_t Model,
                                        size_t Bench) {
  ExecModel M = C.Spec.Models[Model];
  const BenchmarkDef &B = *C.Spec.Benchmarks[Bench];
  return Toolchain().compileCached(sourceFor(B, M), optionsFor(M)).artifact();
}

bool perfbench::runFleet(const FleetSpec &Fleet, const std::string &Dir,
                         SpanRecorder *Rec, int Parent, double &ShardSec,
                         double &MergeSec, std::vector<std::string> &Records,
                         std::string &Error, int64_t *ManifestCommits) {
  std::error_code EC;
  fs::remove_all(Dir, EC);
  fs::create_directories(Dir, EC);
  if (EC) {
    Error = "cannot create '" + Dir + "': " + EC.message();
    return false;
  }
  std::optional<ManifestWatch> Watch;
  if (ManifestCommits)
    Watch.emplace(Dir);

  ShardRunOptions Opts;
  Opts.OutDir = Dir;
  Opts.ShardCount = FleetShards;
  Opts.Format = SinkFormat::Jsonl;
  Opts.Workers = 1;
  Opts.CheckpointEvery = FleetCheckpointEvery;
  Opts.Quiet = true;
  auto Start = Clock::now();
  for (unsigned S = 0; S < FleetShards; ++S) {
    Opts.Shard = S;
    int Id = Rec ? Rec->open("fleet.shard", Parent) : -1;
    ShardOutcome Outcome = ShardOutcome::Interrupted;
    bool Ok = runShard(Fleet, Opts, Outcome, Error);
    if (Rec)
      Rec->close(Id);
    if (!Ok)
      return false;
    if (Outcome != ShardOutcome::Complete) {
      Error = "shard stopped before the end of its range";
      return false;
    }
    if (Watch)
      *ManifestCommits = Watch->commits();
  }
  ShardSec = secondsSince(Start);

  MergeOptions Merge;
  Merge.OutDir = Dir;
  Merge.ShardCount = FleetShards;
  Merge.Format = SinkFormat::Jsonl;
  Merge.MergedPath = Dir + "/merged.jsonl";
  MergeSummary Summary;
  Start = Clock::now();
  {
    int Id = Rec ? Rec->open("fleet.merge", Parent) : -1;
    bool Ok = mergeShards(Fleet, Merge, Summary, Error);
    if (Rec)
      Rec->close(Id);
    if (!Ok)
      return false;
  }
  MergeSec = secondsSince(Start);

  std::vector<CellRecord> Cells;
  if (!readResultFile(Merge.MergedPath, SinkFormat::Jsonl, Cells, Error))
    return false;
  Records.clear();
  for (size_t I = 0; I < Cells.size(); ++I) {
    if (Cells[I].Cell != I) {
      Error = "merged file is not in cell order";
      return false;
    }
    Records.push_back(cellRecord(Cells[I].Result.Metrics));
  }
  return true;
}

UnitResult perfbench::runUnit(const RunContext &C) {
  UnitResult U;
  if (!C.W->Sharded) {
    auto Start = Clock::now();
    std::vector<SweepCellResult> Cells = SweepRunner(C.Workers).run(C.Spec);
    U.Seconds = secondsSince(Start);
    U.Records = cellRecords(Cells);
    return U;
  }
  std::string Dir = C.WorkDir + "/fleet-unit";
  double ShardSec = 0, MergeSec = 0;
  U.Ok = runFleet(C.G.fleetSpec(), Dir, nullptr, -1, ShardSec, MergeSec,
                  U.Records, U.Error);
  U.Seconds = ShardSec + MergeSec;
  std::error_code EC;
  fs::remove_all(Dir, EC);
  return U;
}

uint64_t perfbench::countMismatches(const std::vector<std::string> &Got,
                                    const std::vector<std::string> &Want) {
  size_t Common = std::min(Got.size(), Want.size());
  uint64_t Bad = std::max(Got.size(), Want.size()) - Common;
  for (size_t I = 0; I < Common; ++I)
    Bad += Got[I] != Want[I];
  return Bad;
}

namespace {

double peakRssMb() {
  struct rusage Ru {};
  getrusage(RUSAGE_SELF, &Ru);
  return static_cast<double>(Ru.ru_maxrss) / 1024.0; // Linux: kilobytes.
}

/// A seeded sample of distinct cell indices.
std::vector<size_t> sampleCells(size_t Cells, size_t K, uint64_t Seed) {
  std::vector<size_t> All(Cells);
  std::iota(All.begin(), All.end(), 0);
  std::mt19937_64 Rng(Seed ^ 0x9e3779b97f4a7c15ULL);
  std::shuffle(All.begin(), All.end(), Rng);
  All.resize(std::min(K, Cells));
  std::sort(All.begin(), All.end());
  return All;
}

/// Cells re-run on the reference engine per untraced run.
constexpr size_t TreeSample = 4;

} // namespace

bool perfbench::runUntraced(const RunContext &C, Outcome &Out) {
  const size_t Cells = C.G.cells();

  // Output check. The reference record of each cell is the committed one
  // at the workload's default seed, else the first evaluation's. A seeded
  // sample of cells re-runs on the tree engine, the reference semantics,
  // before anything is timed; a disagreement fails every evaluation of
  // that cell. Each evaluation is checked as it finishes and then dropped,
  // so the run's memory does not grow with the evaluations it fits.
  std::vector<std::string> Expected;
  bool HaveExpected = readExpected(C.Expected, Expected);
  if (!HaveExpected)
    std::fprintf(stderr, "perfbench: no expected records at %s\n",
                 C.Expected.c_str());
  bool DefaultSeed = C.Seed == C.W->DefaultSeed;
  std::optional<std::vector<std::string>> Want;
  if (DefaultSeed && HaveExpected)
    Want = Expected;
  std::vector<std::pair<size_t, std::string>> TreeRecords;
  for (size_t I : sampleCells(Cells, TreeSample, C.Seed)) {
    SweepSpec::CellCoords X = C.Spec.cellAt(I);
    CellCounts Ignored;
    TreeRecords.emplace_back(
        I, replayCell(C.Spec, I, artifactFor(C, X.Model, X.Bench),
                      DispatchEngine::Tree, Ignored));
  }
  std::vector<bool> Bad;
  auto Check = [&](const std::vector<std::string> &Got) {
    if (!Want)
      Want = Got;
    if (Bad.empty()) {
      Bad.resize(Cells);
      for (const auto &[I, Tree] : TreeRecords)
        if (I >= Want->size() || Tree != (*Want)[I]) {
          std::fprintf(stderr,
                       "perfbench: cell %zu differs on the tree engine\n", I);
          Bad[I] = true;
        }
    }
    uint64_t Failed = 0;
    for (size_t I = 0; I < Cells; ++I)
      Failed += Bad[I] || I >= Got.size() || I >= Want->size() ||
                Got[I] != (*Want)[I];
    Out.check(Cells, Failed);
  };

  // Set-up (what every invocation pays before its first cell) and grid
  // evaluations alternate until the time is up, so both sample the same
  // stretch of host load: each block is one cold set-up followed by as
  // many evaluations as fit in the time that set-up took (at least one).
  std::vector<double> Setups, Walls, Probes;
  auto Start = Clock::now();
  while (Setups.size() < 5 || Walls.size() < 3 ||
         secondsSince(Start) < C.Seconds) {
    // A user pays each block in a fresh process. Handing the heap pages
    // earlier blocks freed back to the system keeps them out of this
    // block's peak resident set.
    malloc_trim(0);
    double Setup = compileAll(C, C.Workers);
    if (Setup < 0)
      return false;
    Setups.push_back(Setup);
    Probes.push_back(hostProbeSeconds());
    double Spent = 0;
    do {
      UnitResult U = runUnit(C);
      if (!U.Ok)
        std::fprintf(stderr, "perfbench: grid evaluation failed: %s\n",
                     U.Error.c_str());
      Walls.push_back(U.Seconds);
      Spent += U.Seconds;
      Check(U.Records);
      Probes.push_back(hostProbeSeconds());
    } while (Spent < Setup);
  }
  // Neighbours on a shared host slow everything down, in bursts of
  // seconds and in stretches of minutes; they never speed a run up. The
  // fast tail of a run's repeated timings tracks the code within a run,
  // and the host probe, timed between them, rescales the run to the
  // reference host speed across runs.
  double HostScale = quantile(Probes, FastQuantile) / HostProbeReferenceS;
  double FastGrid = quantile(Walls, FastQuantile);
  double FastSetup = quantile(Setups, FastQuantile);
  std::fprintf(stderr,
               "perfbench: %zu set-ups (median %.4f s, fast %.4f s), %zu grid "
               "evaluations (fast %.4f s), host probe %.2fx reference\n",
               Setups.size(), median(Setups), FastSetup, Walls.size(),
               FastGrid, HostScale);
  Out.add("setup_s", median(Setups) / HostScale, "s");
  Out.add("cells_per_s",
          static_cast<double>(C.G.cells()) * HostScale / FastGrid, "cells/s");
  Out.add("wall_s", (FastSetup + FastGrid) / HostScale, "s");
  Out.add("peak_rss_mb", peakRssMb(), "MB");
  if (DefaultSeed && HaveExpected)
    return true;

  // Another seed: evaluate the default-seed grid once more, untimed, and
  // hold it to the committed records.
  RunContext D = C;
  D.Seed = C.W->DefaultSeed;
  D.G = C.W->Make(D.Seed);
  D.Spec = D.G.sweepSpec();
  UnitResult U = runUnit(D);
  uint64_t Failed = HaveExpected ? countMismatches(U.Records, Expected)
                                 : D.G.cells();
  if (Failed)
    std::fprintf(stderr,
                 "perfbench: %llu cell(s) of the default-seed grid differ "
                 "from %s\n",
                 static_cast<unsigned long long>(Failed), C.Expected.c_str());
  Out.check(D.G.cells(), Failed);
  return true;
}
