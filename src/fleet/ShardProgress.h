//===- ShardProgress.h - Advisory per-shard progress heartbeats -*- C++ -*-===//
//
// Part of the Ocelot reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Live progress for fleet shards. A running shard appends throttled
/// heartbeat records (cells done, cells/sec, ETA) to a `.progress` JSONL
/// sidecar next to its result file; `ocelot-fleet status` renders the
/// last heartbeat of every shard in an output directory without touching
/// result bytes.
///
/// The sidecar is *advisory*: it is never fsynced, never read by resume
/// or merge, and a missing/truncated/corrupt one only degrades the
/// status display. The manifest stays the single durable source of truth
/// for what a shard has actually completed.
///
//===----------------------------------------------------------------------===//

#ifndef OCELOT_FLEET_SHARDPROGRESS_H
#define OCELOT_FLEET_SHARDPROGRESS_H

#include <chrono>
#include <cstddef>
#include <string>

namespace ocelot {

struct ShardRunOptions;

/// One heartbeat: a snapshot of a shard's position in its cell range.
struct ShardProgress {
  unsigned Shard = 0;
  unsigned ShardCount = 1;
  size_t CellsBegin = 0;
  size_t CellsEnd = 0;
  size_t CellsDone = 0;     ///< Cells durable from the range start.
  double CellsPerSec = 0;   ///< Throughput of this invocation so far.
  double EtaSec = 0;        ///< Remaining cells / CellsPerSec (0 if done).
  uint64_t WallMs = 0;      ///< Wall time since this invocation started.

  bool done() const { return CellsDone >= CellsEnd - CellsBegin; }
};

/// The shard's progress sidecar path (`<stem>.progress`), derived from
/// the plan like shardResultPath/shardManifestPath.
std::string shardProgressPath(const ShardRunOptions &Opts);

/// Throttled heartbeat appender. Each `heartbeat` call appends one JSONL
/// record unless the previous append was under MinInterval ago; `Force`
/// bypasses the throttle (used for the first and final heartbeats so a
/// shard is visible the moment it starts and accurate the moment it
/// ends). Append failures are deliberately ignored — progress must never
/// fail a shard.
class ProgressWriter {
public:
  explicit ProgressWriter(std::string Path, double MinIntervalSec = 0.5);

  void heartbeat(const ShardProgress &P, bool Force = false);

private:
  std::string Path;
  std::chrono::steady_clock::duration MinInterval;
  std::chrono::steady_clock::time_point LastAppend;
  bool Appended = false;
};

/// Reads the last well-formed heartbeat of \p Path into \p Out. Returns
/// false (without an error message — the sidecar is advisory) when the
/// file is missing, empty, or holds no parseable record. A line whose
/// counts fall outside their types or whose rates are not finite is not
/// parseable.
bool readLastShardProgress(const std::string &Path, ShardProgress &Out);

} // namespace ocelot

#endif // OCELOT_FLEET_SHARDPROGRESS_H
