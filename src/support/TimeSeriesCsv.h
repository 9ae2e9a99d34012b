//===- TimeSeriesCsv.h - Shared piecewise-constant CSV time series -*- C++ -*-===//
//
// Part of the Ocelot reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One CSV time-series format, two recorded-environment subsystems: power
/// traces (src/power/PowerTrace.h) and sensor traces
/// (src/sensors/SensorTrace.h) both replay a piecewise-constant series of
/// `duration_tau,value` segments. This module owns everything about the
/// *format* — strict parsing with line-numbered complaints, segment
/// validation, exact `%.17g` round-trip rendering, file I/O — while each
/// client keeps its own semantic layer (what the value means, extra
/// validity rules, how the series is replayed).
///
/// ```csv
/// # ocelot power trace v1
/// # duration_tau,charge_rate
/// 50000,0.40
/// 150000,0.02
/// ```
///
/// A `TimeSeriesCsvSpec` parameterizes the client-visible vocabulary (the
/// header comment, the column names in error messages, what the value is
/// called) plus two validation hooks, so every client reports problems in
/// its own terms yet shares one parser. Segments are always required to be
/// non-empty, with every duration > 0, every value finite, and a total
/// duration that fits in 64 bits.
///
//===----------------------------------------------------------------------===//

#ifndef OCELOT_SUPPORT_TIMESERIESCSV_H
#define OCELOT_SUPPORT_TIMESERIESCSV_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace ocelot {

/// One segment of a piecewise-constant time series: `Value` holds for
/// `DurationTau` units of logical time.
struct TimeSeriesSegment {
  uint64_t DurationTau = 0;
  double Value = 0.0;
};

/// The client vocabulary and validity rules for one concrete series format.
/// All strings are borrowed (clients keep them as literals).
struct TimeSeriesCsvSpec {
  /// Full comment header emitted by toCsv, e.g.
  /// "# ocelot power trace v1\n# duration_tau,charge_rate\n".
  const char *Header;
  /// Column names quoted in malformed-line errors, e.g.
  /// "duration_tau,charge_rate".
  const char *Columns;
  /// What the value column is called in per-segment complaints, e.g.
  /// "charge rate" -> "line 3: charge rate must be finite and >= 0".
  const char *ValueName;
  /// Noun used in file-level errors, e.g. "power trace" ->
  /// "cannot open power trace 'x.csv'".
  const char *FileNoun;
  /// When true, values must additionally be >= 0 (power traces); sensor
  /// values may be negative.
  bool ValueNonNegative = false;
  /// Optional whole-series rule run after the per-segment checks, given
  /// the same \p Where prefixes as validate(); returns an error message or
  /// "" (e.g. power's "trace harvests no energy").
  std::string (*SeriesCheck)(const std::vector<TimeSeriesSegment> &,
                             const std::vector<std::string> &Where) = nullptr;
};

namespace timeseries {

/// Validates \p Segs under \p Spec. \p Where prefixes per-segment
/// complaints ("line 4" from the parser, "segment 2" from a builder) and
/// must be the same length as \p Segs. \returns "" when valid.
std::string validate(const std::vector<TimeSeriesSegment> &Segs,
                     const TimeSeriesCsvSpec &Spec,
                     const std::vector<std::string> &Where);

/// Parses and validates CSV text: `#` comments and blank lines are
/// skipped; every data line must be exactly an unsigned decimal duration,
/// a comma and a finite decimal number, read by ParseNumber.h (no '+',
/// inner whitespace or hex, and no value that rounds to 0 or overflows).
/// On success fills \p Out and returns true; otherwise sets \p Error to a
/// message naming the offending line.
bool parseCsv(std::string_view Text, const TimeSeriesCsvSpec &Spec,
              std::vector<TimeSeriesSegment> &Out, std::string &Error);

/// Renders \p Segs as CSV under \p Spec's header. `%.17g` round-trips any
/// double exactly, so parse(toCsv(x)) reproduces x bit-for-bit and
/// toCsv(parse(toCsv(x))) is the textual identity.
std::string toCsv(const TimeSeriesCsvSpec &Spec,
                  const std::vector<TimeSeriesSegment> &Segs);

/// Reads and parses \p Path; parse errors are prefixed with the path, and
/// unreadable files report "cannot open <FileNoun> '<Path>'".
bool loadFile(const std::string &Path, const TimeSeriesCsvSpec &Spec,
              std::vector<TimeSeriesSegment> &Out, std::string &Error);

/// Writes toCsv() to \p Path; on I/O failure returns false and sets
/// \p Error ("cannot write ..." / "error writing ...").
bool saveFile(const std::string &Path, const TimeSeriesCsvSpec &Spec,
              const std::vector<TimeSeriesSegment> &Segs, std::string &Error);

} // namespace timeseries

} // namespace ocelot

#endif // OCELOT_SUPPORT_TIMESERIESCSV_H
