//===- SensorTrace.cpp - Recorded sensor-value time series -----------------------===//
//
// Part of the Ocelot reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "sensors/SensorTrace.h"

#include <cmath>
#include <cstdio>
#include <utility>

using namespace ocelot;

namespace {

/// The sensor instantiation of the shared time-series CSV format: values
/// may be negative (temperatures, accelerations), and any non-empty,
/// finite series whose values round to an int64 sample is valid.
/// Segment == TimeSeriesSegment, so series pass through the shared layer
/// with no conversion.
const TimeSeriesCsvSpec &sensorCsvSpec() {
  static const TimeSeriesCsvSpec Spec = {
      /*Header=*/"# ocelot sensor trace v1\n# duration_tau,value\n",
      /*Columns=*/"duration_tau,value",
      /*ValueName=*/"sensor value",
      /*FileNoun=*/"sensor trace",
      /*ValueNonNegative=*/false,
      /*SeriesCheck=*/
      [](const std::vector<TimeSeriesSegment> &Segs,
         const std::vector<std::string> &Where) -> std::string {
        // The channel samples llround(value), which is unspecified outside
        // [-2^63, 2^63); every double inside rounds exactly.
        for (size_t I = 0; I < Segs.size(); ++I)
          if (!(Segs[I].Value >= -0x1p63 && Segs[I].Value < 0x1p63)) {
            char Buf[128];
            std::snprintf(Buf, sizeof(Buf),
                          ": sensor value %g is outside the int64 range "
                          "[-2^63, 2^63)",
                          Segs[I].Value);
            return Where[I] + Buf;
          }
        return "";
      }};
  return Spec;
}

} // namespace

SensorTrace::SensorTrace(std::vector<Segment> Segs) : Segs(std::move(Segs)) {
  for (const Segment &S : this->Segs)
    TotalTau += S.DurationTau;
}

std::shared_ptr<const SensorTrace>
SensorTrace::Builder::build(std::string &Error) const {
  std::vector<std::string> Where;
  Where.reserve(Segs.size());
  for (size_t I = 0; I < Segs.size(); ++I)
    Where.push_back("segment " + std::to_string(I));
  Error = timeseries::validate(Segs, sensorCsvSpec(), Where);
  if (!Error.empty())
    return nullptr;
  return std::shared_ptr<const SensorTrace>(new SensorTrace(Segs));
}

double SensorTrace::valueAt(uint64_t Tau) const {
  uint64_t T = Tau % TotalTau;
  for (const Segment &S : Segs) {
    if (T < S.DurationTau)
      return S.Value;
    T -= S.DurationTau;
  }
  return Segs.back().Value; // Unreachable for a valid trace.
}

std::string SensorTrace::toCsv() const {
  return timeseries::toCsv(sensorCsvSpec(), Segs);
}

std::shared_ptr<const SensorTrace>
SensorTrace::parseCsv(std::string_view Text, std::string &Error) {
  std::vector<TimeSeriesSegment> Series;
  if (!timeseries::parseCsv(Text, sensorCsvSpec(), Series, Error))
    return nullptr;
  return std::shared_ptr<const SensorTrace>(
      new SensorTrace(std::move(Series)));
}

std::shared_ptr<const SensorTrace>
SensorTrace::loadCsv(const std::string &Path, std::string &Error) {
  std::vector<TimeSeriesSegment> Series;
  if (!timeseries::loadFile(Path, sensorCsvSpec(), Series, Error))
    return nullptr;
  return std::shared_ptr<const SensorTrace>(
      new SensorTrace(std::move(Series)));
}

bool SensorTrace::saveCsv(const std::string &Path, std::string &Error) const {
  return timeseries::saveFile(Path, sensorCsvSpec(), Segs, Error);
}

namespace {

class TraceChannel final : public SensorChannel {
public:
  explicit TraceChannel(std::shared_ptr<const SensorTrace> Trace)
      : Trace(std::move(Trace)) {}

  const char *name() const override { return "trace"; }

  int64_t sample(uint64_t Tau) const override {
    return std::llround(Trace->valueAt(Tau));
  }

private:
  std::shared_ptr<const SensorTrace> Trace;
};

} // namespace

SensorChannelPtr
ocelot::traceChannel(std::shared_ptr<const SensorTrace> Trace) {
  return std::make_shared<const TraceChannel>(std::move(Trace));
}
