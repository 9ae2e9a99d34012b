//===- FleetRunner.cpp - Sharded, streaming, resumable sweeps --------------===//
//
// Part of the Ocelot reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "fleet/FleetRunner.h"

#include "fleet/ShardProgress.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>

using namespace ocelot;

namespace {

std::string shardStem(const std::string &OutDir, unsigned Shard,
                      unsigned Count) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "/shard-%u-of-%u", Shard, Count);
  return OutDir + Buf;
}

} // namespace

std::string ocelot::shardResultPath(const ShardRunOptions &Opts) {
  return shardStem(Opts.OutDir, Opts.Shard, Opts.ShardCount) + "." +
         sinkFormatExtension(Opts.Format);
}

std::string ocelot::shardManifestPath(const ShardRunOptions &Opts) {
  return shardStem(Opts.OutDir, Opts.Shard, Opts.ShardCount) + ".manifest";
}

bool ocelot::runShard(const FleetSpec &Fleet, const ShardRunOptions &Opts,
                      ShardOutcome &Outcome, std::string &Error) {
  SweepSpec Spec;
  if (!Fleet.resolve(Spec, Error))
    return false;
  if (Opts.ShardCount == 0 || Opts.Shard >= Opts.ShardCount) {
    Error = "shard index out of range";
    return false;
  }
  const uint64_t SpecHash = Fleet.hash();
  const ShardPlan Plan(Spec.cellCount(), Opts.ShardCount);
  const ShardRange Range = Plan.range(Opts.Shard);
  const std::string ResultPath = shardResultPath(Opts);
  const std::string ManifestPath = shardManifestPath(Opts);

  // Fresh start or resume? The manifest decides; its spec hash guards
  // against resuming under a silently different grid.
  ShardManifest M;
  int64_t ResumeOffset = -1;
  if (fileExists(ManifestPath)) {
    if (!loadShardManifest(ManifestPath, M, Error))
      return false;
    if (M.SpecHash != SpecHash) {
      char Buf[160];
      std::snprintf(Buf, sizeof(Buf),
                    "%016" PRIx64 ", this invocation describes %016" PRIx64,
                    M.SpecHash, SpecHash);
      Error = ManifestPath + " was written for a different sweep (spec hash " +
              Buf +
              "); re-run with the original grid flags, or delete the shard's "
              "manifest and result file to restart under the new grid";
      return false;
    }
    if (M.Shard != Opts.Shard || M.ShardCount != Opts.ShardCount ||
        M.CellsBegin != Range.Begin || M.CellsEnd != Range.End ||
        M.Format != Opts.Format) {
      Error = ManifestPath + " does not match --shard=" +
              std::to_string(Opts.Shard) + "/" +
              std::to_string(Opts.ShardCount) + " --format=" +
              sinkFormatName(Opts.Format) +
              " (wrong shard spec for this output directory?)";
      return false;
    }
    if (!fileExists(ResultPath)) {
      Error = ManifestPath + " exists but " + ResultPath +
              " is missing; delete the manifest to restart the shard";
      return false;
    }
    ResumeOffset = static_cast<int64_t>(M.SinkOffset);
  } else {
    M.SpecHash = SpecHash;
    M.Shard = Opts.Shard;
    M.ShardCount = Opts.ShardCount;
    M.Format = Opts.Format;
    M.CellsBegin = Range.Begin;
    M.CellsNext = Range.Begin;
    M.CellsEnd = Range.End;
  }

  auto Sink = openResultSink(ResultPath, Opts.Format, ResumeOffset, Error);
  if (!Sink)
    return false;
  if (ResumeOffset < 0) {
    // Record the (header-only) file before evaluating anything, so even a
    // crash during the first cell resumes cleanly. The manifest's
    // directory fsync also makes the sink's new entry durable.
    M.SinkOffset = Sink->durableOffset();
    if (!createShardManifest(ManifestPath, M, Error))
      return false;
  }

  const size_t Start = M.CellsNext;
  const size_t End =
      Opts.MaxCells ? std::min(Range.End, Start + Opts.MaxCells) : Range.End;
  const size_t Todo = End - Start;
  if (!Opts.Quiet)
    std::fprintf(stderr,
                 "[fleet: shard %u/%u cells [%zu, %zu) — running %zu of %zu "
                 "on %u worker(s)]\n",
                 Opts.Shard, Opts.ShardCount, Range.Begin, Range.End, Todo,
                 Range.size(), Opts.Workers);

  // Progress: throttled heartbeats to the advisory `.progress` sidecar
  // (what `ocelot-fleet status` renders) plus a periodic stderr line.
  // Both run on the writer thread only, observe wall time only, and never
  // touch result bytes — a traced, timed, or silent shard emits the same
  // result file byte for byte.
  ProgressWriter Progress(shardProgressPath(Opts));
  const auto WallStart = std::chrono::steady_clock::now();
  auto LastLine = WallStart;
  size_t DoneThisRun = 0;
  auto snapshotProgress = [&]() {
    auto Now = std::chrono::steady_clock::now();
    double Sec = std::chrono::duration<double>(Now - WallStart).count();
    ShardProgress P;
    P.Shard = Opts.Shard;
    P.ShardCount = Opts.ShardCount;
    P.CellsBegin = Range.Begin;
    P.CellsEnd = Range.End;
    P.CellsDone = M.CellsNext - Range.Begin;
    P.CellsPerSec = Sec > 0 ? static_cast<double>(DoneThisRun) / Sec : 0;
    P.EtaSec = P.CellsPerSec > 0 ? static_cast<double>(Range.End -
                                                       M.CellsNext) /
                                       P.CellsPerSec
                                 : 0;
    P.WallMs = static_cast<uint64_t>(Sec * 1000.0);
    return P;
  };
  auto reportProgress = [&](bool Final) {
    ShardProgress P = snapshotProgress();
    Progress.heartbeat(P, Final);
    if (Opts.Quiet)
      return;
    auto Now = std::chrono::steady_clock::now();
    if (!Final && Now - LastLine < std::chrono::seconds(1))
      return;
    LastLine = Now;
    std::fprintf(stderr,
                 "[fleet: shard %u/%u %zu/%zu cells (%.1f%%) %.1f cells/s "
                 "eta %.0fs]\n",
                 P.Shard, P.ShardCount, P.CellsDone,
                 P.CellsEnd - P.CellsBegin,
                 P.CellsEnd > P.CellsBegin
                     ? 100.0 * static_cast<double>(P.CellsDone) /
                           static_cast<double>(P.CellsEnd - P.CellsBegin)
                     : 100.0,
                 P.CellsPerSec, P.EtaSec);
  };
  // First heartbeat before any cell: an in-flight shard is visible to
  // `status` the moment it starts (and a resumed shard re-announces its
  // position).
  Progress.heartbeat(snapshotProgress(), /*Force=*/true);

  // evaluateCells emits cells strictly in order on this thread; checkpoint
  // sink-then-manifest so the manifest never points past durable bytes.
  size_t SinceCheckpoint = 0;
  auto Emit = [&](size_t Cell, SweepCellResult &&R) -> bool {
    Sink->append({Cell, std::move(R)});
    M.CellsNext = Cell + 1;
    ++SinceCheckpoint;
    ++DoneThisRun;
    if (SinceCheckpoint >= std::max<size_t>(Opts.CheckpointEvery, 1) ||
        M.CellsNext == End) {
      if (!Sink->flush(Error))
        return false;
      M.SinkOffset = Sink->durableOffset();
      if (!commitShardManifest(ManifestPath, M, Error))
        return false;
      SinceCheckpoint = 0;
    }
    reportProgress(/*Final=*/M.CellsNext == End);
    return true;
  };
  if (!evaluateCells(Spec, Start, End, Opts.Workers, Emit))
    return false;

  Outcome = End == Range.End ? ShardOutcome::Complete
                             : ShardOutcome::Interrupted;
  if (!Opts.Quiet && Outcome == ShardOutcome::Interrupted)
    std::fprintf(stderr,
                 "[fleet: shard %u/%u interrupted at cell %zu of [%zu, %zu); "
                 "re-run the same command to resume]\n",
                 Opts.Shard, Opts.ShardCount, End, Range.Begin, Range.End);
  return true;
}

bool ocelot::mergeShards(const FleetSpec &Fleet, const MergeOptions &Opts,
                         MergeSummary &Summary, std::string &Error) {
  SweepSpec Spec;
  if (!Fleet.resolve(Spec, Error))
    return false;
  const uint64_t SpecHash = Fleet.hash();
  const ShardPlan Plan(Spec.cellCount(), Opts.ShardCount);

  std::string MergedPath =
      Opts.MergedPath.empty()
          ? Opts.OutDir + "/merged." + sinkFormatExtension(Opts.Format)
          : Opts.MergedPath;
  auto Out = openResultSink(MergedPath, Opts.Format, -1, Error);
  if (!Out)
    return false;

  Summary = MergeSummary();
  for (unsigned S = 0; S < Opts.ShardCount; ++S) {
    ShardRunOptions ShardOpts;
    ShardOpts.OutDir = Opts.OutDir;
    ShardOpts.Shard = S;
    ShardOpts.ShardCount = Opts.ShardCount;
    ShardOpts.Format = Opts.Format;
    const std::string ManifestPath = shardManifestPath(ShardOpts);
    const std::string ResultPath = shardResultPath(ShardOpts);
    const ShardRange Range = Plan.range(S);

    ShardManifest M;
    if (!loadShardManifest(ManifestPath, M, Error))
      return false;
    if (M.SpecHash != SpecHash) {
      Error = ManifestPath + " belongs to a different sweep (spec hash "
              "mismatch); merge with the same grid flags its shards ran with";
      return false;
    }
    if (M.Shard != S || M.ShardCount != Opts.ShardCount ||
        M.CellsBegin != Range.Begin || M.CellsEnd != Range.End ||
        M.Format != Opts.Format) {
      Error = ManifestPath + " does not match shard " + std::to_string(S) +
              "/" + std::to_string(Opts.ShardCount) + " of this plan";
      return false;
    }
    if (!M.complete()) {
      Error = "shard " + std::to_string(S) + "/" +
              std::to_string(Opts.ShardCount) + " is incomplete (" +
              std::to_string(M.CellsNext - M.CellsBegin) + " of " +
              std::to_string(Range.size()) +
              " cells done); resume it first:\n  ocelot-fleet run --shard=" +
              std::to_string(S) + "/" + std::to_string(Opts.ShardCount) +
              " --out=" + Opts.OutDir + " <same grid flags>";
      return false;
    }

    std::vector<CellRecord> Records;
    if (!readResultFile(ResultPath, Opts.Format, Records, Error))
      return false;
    if (Records.size() != Range.size()) {
      Error = ResultPath + " holds " + std::to_string(Records.size()) +
              " records but the plan assigns " +
              std::to_string(Range.size()) +
              " cells; the shard file is stale or truncated — delete it and "
              "its manifest, then re-run the shard";
      return false;
    }
    for (size_t I = 0; I < Records.size(); ++I) {
      const CellRecord &R = Records[I];
      if (R.Cell != Range.Begin + I) {
        Error = ResultPath + ": record " + std::to_string(I) +
                " covers cell " + std::to_string(R.Cell) + ", expected " +
                std::to_string(Range.Begin + I);
        return false;
      }
      Out->append(R);
      ++Summary.Cells;
      Summary.CompletedRuns += R.Result.Metrics.CompletedRuns;
      Summary.ViolatingRuns += R.Result.Metrics.ViolatingRuns;
      Summary.StarvedCells += R.Result.Metrics.Starved ? 1 : 0;
      Summary.TrappedCells += R.Result.Metrics.Trapped ? 1 : 0;
    }
  }
  return Out->flush(Error);
}
