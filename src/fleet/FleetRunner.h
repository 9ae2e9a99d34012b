//===- FleetRunner.h - Sharded, streaming, resumable sweeps -----*- C++ -*-===//
//
// Part of the Ocelot reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fleet sweep service: evaluates one `ShardPlan` range of a
/// `FleetSpec` grid, streaming each cell to a `ResultSink` and
/// checkpointing a `ShardManifest` so a killed shard resumes from its
/// last durable cell — then merges K completed shard files into output
/// byte-identical to a sequential single-process run.
///
/// Determinism: every cell is seeded purely from the spec, cells are
/// *emitted* in flat cell-index order regardless of worker scheduling
/// (the grid evaluator `evaluateCells`, shared with `SweepRunner`),
/// and record serialization round-trips exactly — so
/// `run --shard=i/K` × K + `merge` ≡ `run --shard=0/1`, bitwise.
///
/// Memory: a shard holds the compiled artifacts of its (model, benchmark)
/// pairs, the reorder window of `evaluateCells` (max(4×workers, 16)
/// cells) and one Simulation per worker — never the whole grid. A
/// 10k-cell shard streams in the same bounded footprint as a 10-cell one.
///
//===----------------------------------------------------------------------===//

#ifndef OCELOT_FLEET_FLEETRUNNER_H
#define OCELOT_FLEET_FLEETRUNNER_H

#include "fleet/FleetSpec.h"
#include "fleet/ResultSink.h"
#include "fleet/ShardManifest.h"
#include "fleet/ShardPlan.h"

#include <string>

namespace ocelot {

/// How a shard invocation ended (when it returned success).
enum class ShardOutcome {
  Complete,    ///< Every cell of the range is evaluated and durable.
  Interrupted, ///< Stopped early (MaxCells); resume to continue.
};

/// Options for one `runShard` invocation.
struct ShardRunOptions {
  std::string OutDir;          ///< Directory for shard files + manifests.
  unsigned Shard = 0;          ///< Zero-based shard index.
  unsigned ShardCount = 1;     ///< Total shards in the plan.
  SinkFormat Format = SinkFormat::Jsonl;
  unsigned Workers = 1;        ///< Worker threads evaluating cells.
  /// Cells evaluated between checkpoints (sink fsync + in-place manifest
  /// slot commit). 1 = checkpoint every cell (maximum durability); larger
  /// values trade re-computed cells after a crash for fewer syncs.
  size_t CheckpointEvery = 1;
  /// Stop after this many cells *this invocation* (0 = run to the end of
  /// the range). The shard exits as Interrupted; used by the CI kill /
  /// resume drill and the resume tests.
  size_t MaxCells = 0;
  bool Quiet = false;          ///< Suppress the per-shard progress line.
};

/// Shard file paths, derived from the plan so every process agrees.
std::string shardResultPath(const ShardRunOptions &Opts);
std::string shardManifestPath(const ShardRunOptions &Opts);

/// Evaluates (or resumes) one shard of \p Fleet. Returns false with an
/// actionable \p Error on I/O failure, unresolvable spec, or a manifest
/// from a different sweep; never aborts on bad input. On success
/// \p Outcome says whether the range completed or was interrupted.
bool runShard(const FleetSpec &Fleet, const ShardRunOptions &Opts,
              ShardOutcome &Outcome, std::string &Error);

/// Options for `mergeShards`.
struct MergeOptions {
  std::string OutDir;          ///< Where the shard files live.
  unsigned ShardCount = 1;
  SinkFormat Format = SinkFormat::Jsonl;
  std::string MergedPath;      ///< Output file (default OutDir/merged.<ext>).
};

/// Aggregate counters merge reports after validating every record.
struct MergeSummary {
  size_t Cells = 0;
  uint64_t CompletedRuns = 0;
  uint64_t ViolatingRuns = 0;
  size_t StarvedCells = 0;
  size_t TrappedCells = 0;
};

/// Validates that all K shards of \p Fleet are complete and consistent
/// (spec hash, coverage, per-line syntax), then writes their records in
/// cell order to MergedPath — byte-identical to a single sequential
/// shard's output. Returns false with an actionable \p Error naming the
/// offending shard (including the exact resume command for an incomplete
/// one).
bool mergeShards(const FleetSpec &Fleet, const MergeOptions &Opts,
                 MergeSummary &Summary, std::string &Error);

} // namespace ocelot

#endif // OCELOT_FLEET_FLEETRUNNER_H
