//===- ResultSink.h - Streaming per-cell result sinks -----------*- C++ -*-===//
//
// Part of the Ocelot reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Streaming sinks for `SweepCellResult`s: instead of aggregating a whole
/// grid in memory the fleet runner appends one self-contained record per
/// cell to a JSONL or CSV file, so a shard's resident memory is bounded by
/// its reorder window, not its cell count. Records are emitted in flat
/// cell-index order, one line per cell. Numbers are written by
/// `std::to_chars`: doubles with precision 17, the same bytes as `%.17g`
/// but independent of the process locale. A read-back (`readResultFile`)
/// reconstitutes every field bit-for-bit — the property the shard-merge
/// determinism invariant rests on: re-emitting a parsed record reproduces
/// the original line byte-for-byte.
///
/// The reader parses numbers with `std::from_chars`, which accepts no
/// leading '+' or whitespace, no hex and no out-of-range value (and no '-'
/// on a counter); it matches each JSONL key in place and decodes a string
/// only when it holds an escape. The CSV reader splits each line once,
/// resuming the split on the next line when a quoted field holds a newline.
///
/// Durability contract: `append` may buffer; after `flush` every appended
/// record is on stable storage (fsync) and `durableOffset` is the byte
/// offset a resume may truncate the file back to — any torn tail past it
/// is discarded and recomputed.
///
/// Adding a sink format safely: implement both the writer and the reader,
/// keep emission deterministic (fixed field order, `%.17g` doubles, no
/// locale dependence), and extend FleetTest's round-trip suite and its
/// pinned record bytes before wiring it into the CLI (docs/ARCHITECTURE.md,
/// "Fleet sweeps").
///
//===----------------------------------------------------------------------===//

#ifndef OCELOT_FLEET_RESULTSINK_H
#define OCELOT_FLEET_RESULTSINK_H

#include "harness/SweepRunner.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace ocelot {

/// The on-disk formats a fleet sweep can stream to.
enum class SinkFormat {
  Jsonl, ///< One JSON object per line.
  Csv,   ///< Header line + one row per cell (RFC-4180 quoting).
};

const char *sinkFormatName(SinkFormat F);
/// Parses a `--format=` value; returns false with \p Error on an unknown
/// name.
bool parseSinkFormat(const std::string &Name, SinkFormat &F,
                     std::string &Error);
/// Conventional file extension (without the dot) for \p F.
const char *sinkFormatExtension(SinkFormat F);

/// One streamed record: the flat cell index plus the evaluated cell.
struct CellRecord {
  size_t Cell = 0;
  SweepCellResult Result;
};

/// Append-only, in-order sink of cell records.
class ResultSink {
public:
  virtual ~ResultSink() = default;

  /// Appends one record. Records must arrive in increasing cell order;
  /// the writer buffers in user space until flush().
  virtual void append(const CellRecord &R) = 0;

  /// Flushes user-space buffers and fsyncs: every appended record is
  /// durable when this returns. \returns false (with \p Error set) when
  /// the OS reports a write failure — a shard must stop rather than
  /// record a manifest offset it cannot trust.
  virtual bool flush(std::string &Error) = 0;

  /// Byte offset of the end of the last flushed record. A resume
  /// truncates the file to the offset recorded in the manifest, which is
  /// always one of these values.
  virtual uint64_t durableOffset() const = 0;
};

/// Opens \p Path for streaming in \p Format.
///
/// \p ResumeAtOffset < 0 starts a fresh file (unlinks any old one, then
/// creates it; writes and flushes the CSV header when applicable). A fresh empty file is not
/// synced: `runShard` makes its directory entry durable with the fsync of
/// the manifest's directory. Otherwise the file is truncated to exactly
/// \p ResumeAtOffset — dropping any torn tail from an interrupted shard —
/// and appending continues from there. Returns nullptr with \p Error on
/// I/O failure.
std::unique_ptr<ResultSink> openResultSink(const std::string &Path,
                                           SinkFormat Format,
                                           int64_t ResumeAtOffset,
                                           std::string &Error);

/// Reads every record of a result file written by the sink above.
/// Validates per-line syntax and field presence; on failure returns false
/// with a line-numbered message in \p Error. \p Out is in file order
/// (which for shard files is increasing cell order; the reader does not
/// enforce it — merge validates coverage against the plan).
bool readResultFile(const std::string &Path, SinkFormat Format,
                    std::vector<CellRecord> &Out, std::string &Error);

/// Serializes one record as a single line (including the trailing
/// newline) — the exact bytes the corresponding sink appends. Merge uses
/// this to rewrite validated shard records into the merged file so the
/// result is byte-identical to a sequential single-process run.
std::string formatCellRecord(const CellRecord &R, SinkFormat Format);

/// The CSV header line (including the trailing newline).
std::string csvHeaderLine();

} // namespace ocelot

#endif // OCELOT_FLEET_RESULTSINK_H
