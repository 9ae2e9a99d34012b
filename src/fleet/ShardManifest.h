//===- ShardManifest.h - Durable per-shard progress record ------*- C++ -*-===//
//
// Part of the Ocelot reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The checkpoint a fleet shard leaves behind so a killed process can
/// resume from its last durable cell. The manifest records the spec hash
/// (so a resume under a *different* grid is rejected, not silently
/// merged), the shard's range, the next cell to evaluate, the result
/// file's durable byte offset and a commit sequence number.
///
/// Format (`ocelot-fleet-manifest v2`): a fixed 512-byte file of two
/// 256-byte slots. Each slot holds the magic line, the fields as
/// `key value` lines, `seq N`, then `checksum` (FNV-1a 64 of the slot's
/// lines before it), padded with spaces to a final newline.
///
/// Write protocol, after LMDB's two meta pages: the shard's first commit
/// creates the file with both slots valid (seq 0 and 1), fsyncs it and
/// its directory. Every later commit increments `Seq` and overwrites slot
/// `Seq % 2` in place with one `pwrite` + `fdatasync`, so a checkpoint
/// never renames, truncates or grows the file. A crash mid-commit can
/// tear only the slot being written; the other slot still holds the
/// previous commit.
///
/// Recovery rule: the loader takes the slot with the highest `seq` whose
/// checksum holds. If neither holds, the manifest is reported corrupt
/// rather than trusted. A v1 manifest (the earlier tmp + rename format)
/// is rejected with the version and a remedy.
///
/// The ordering invariant the resume correctness rests on: the result
/// sink is flushed (fsync) *before* the manifest advances. Every slot's
/// SinkOffset therefore points at durable sink bytes; a resume truncates
/// the sink to it, dropping at most a torn tail that the restarted shard
/// recomputes deterministically. Falling back to the older slot is safe
/// for the same reason: it only recomputes more cells.
///
//===----------------------------------------------------------------------===//

#ifndef OCELOT_FLEET_SHARDMANIFEST_H
#define OCELOT_FLEET_SHARDMANIFEST_H

#include "fleet/ResultSink.h"

#include <cstddef>
#include <cstdint>
#include <string>

namespace ocelot {

/// Bytes per manifest slot; a manifest file is two slots.
constexpr size_t ManifestSlotBytes = 256;

/// The durable progress record of one shard of one sweep.
struct ShardManifest {
  uint64_t SpecHash = 0;      ///< FleetSpec::hash() of the grid.
  unsigned Shard = 0;         ///< This shard's index.
  unsigned ShardCount = 1;    ///< Total shards in the plan.
  SinkFormat Format = SinkFormat::Jsonl;
  size_t CellsBegin = 0;      ///< First cell of the shard's range.
  size_t CellsNext = 0;       ///< Next cell to evaluate (resume point).
  size_t CellsEnd = 0;        ///< One past the shard's last cell.
  uint64_t SinkOffset = 0;    ///< Durable byte size of the result file.
  uint64_t Seq = 0;           ///< Commit number; lives in slot Seq % 2.

  bool complete() const { return CellsNext == CellsEnd; }
  bool operator==(const ShardManifest &) const = default;
};

/// Creates \p Path, which must not exist, holding \p M in both slots (as
/// seq 0 and seq 1), then fsyncs the file and its directory. The
/// directory fsync also makes durable the entries of files created in
/// the same directory before it. Sets M.Seq to 1. Returns false with
/// \p Error on I/O failure.
bool createShardManifest(const std::string &Path, ShardManifest &M,
                         std::string &Error);

/// Commits \p M as the next checkpoint of the existing manifest \p Path:
/// increments M.Seq and overwrites slot M.Seq % 2 with one `pwrite` +
/// `fdatasync`. Returns false with \p Error on I/O failure; the other
/// slot still holds the previous commit.
bool commitShardManifest(const std::string &Path, ShardManifest &M,
                         std::string &Error);

/// Loads \p Path's newest slot whose checksum holds. When neither does,
/// or the file is not a v2 manifest, returns false with an error naming
/// the path and its remedy; it never aborts.
bool loadShardManifest(const std::string &Path, ShardManifest &M,
                       std::string &Error);

/// True if \p Path exists (distinguishes "fresh shard" from "resume").
bool fileExists(const std::string &Path);

} // namespace ocelot

#endif // OCELOT_FLEET_SHARDMANIFEST_H
