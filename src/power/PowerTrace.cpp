//===- PowerTrace.cpp - Recorded harvest-rate time series ------------------------===//
//
// Part of the Ocelot reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "power/PowerTrace.h"

#include "support/TimeSeriesCsv.h"

#include <cmath>

using namespace ocelot;

PowerTrace::PowerTrace(std::vector<Segment> Segs) : Segs(std::move(Segs)) {
  for (const Segment &S : this->Segs) {
    TotalTau += S.DurationTau;
    CycleEnergy += S.Rate * static_cast<double>(S.DurationTau);
  }
}

namespace {

/// The power instantiation of the shared time-series CSV format
/// (support/TimeSeriesCsv.h): rates must be >= 0 and some segment must
/// actually harvest, on top of the format-level rules.
const TimeSeriesCsvSpec &powerCsvSpec() {
  static const TimeSeriesCsvSpec Spec = {
      /*Header=*/"# ocelot power trace v1\n# duration_tau,charge_rate\n",
      /*Columns=*/"duration_tau,charge_rate",
      /*ValueName=*/"charge rate",
      /*FileNoun=*/"power trace",
      /*ValueNonNegative=*/true,
      /*SeriesCheck=*/
      [](const std::vector<TimeSeriesSegment> &Segs,
         const std::vector<std::string> &) -> std::string {
        double CycleEnergy = 0.0;
        for (const TimeSeriesSegment &S : Segs)
          CycleEnergy += S.Value * static_cast<double>(S.DurationTau);
        if (CycleEnergy <= 0.0)
          return "trace harvests no energy (all rates are 0)";
        return "";
      }};
  return Spec;
}

std::vector<TimeSeriesSegment>
toSeries(const std::vector<PowerTrace::Segment> &Segs) {
  std::vector<TimeSeriesSegment> Out;
  Out.reserve(Segs.size());
  for (const PowerTrace::Segment &S : Segs)
    Out.push_back({S.DurationTau, S.Rate});
  return Out;
}

std::vector<PowerTrace::Segment>
fromSeries(const std::vector<TimeSeriesSegment> &Segs) {
  std::vector<PowerTrace::Segment> Out;
  Out.reserve(Segs.size());
  for (const TimeSeriesSegment &S : Segs)
    Out.push_back({S.DurationTau, S.Value});
  return Out;
}

} // namespace

std::shared_ptr<const PowerTrace>
PowerTrace::Builder::build(std::string &Error) const {
  std::vector<std::string> Where;
  Where.reserve(Segs.size());
  for (size_t I = 0; I < Segs.size(); ++I)
    Where.push_back("segment " + std::to_string(I));
  Error = timeseries::validate(toSeries(Segs), powerCsvSpec(), Where);
  if (!Error.empty())
    return nullptr;
  return std::shared_ptr<const PowerTrace>(new PowerTrace(Segs));
}

double PowerTrace::rateAt(uint64_t Tau) const {
  uint64_t T = Tau % TotalTau;
  for (const Segment &S : Segs) {
    if (T < S.DurationTau)
      return S.Rate;
    T -= S.DurationTau;
  }
  return Segs.back().Rate; // Unreachable for a valid trace.
}

std::string PowerTrace::toCsv() const {
  return timeseries::toCsv(powerCsvSpec(), toSeries(Segs));
}

std::shared_ptr<const PowerTrace> PowerTrace::parseCsv(std::string_view Text,
                                                       std::string &Error) {
  std::vector<TimeSeriesSegment> Series;
  if (!timeseries::parseCsv(Text, powerCsvSpec(), Series, Error))
    return nullptr;
  return std::shared_ptr<const PowerTrace>(new PowerTrace(fromSeries(Series)));
}

std::shared_ptr<const PowerTrace>
PowerTrace::loadCsv(const std::string &Path, std::string &Error) {
  std::vector<TimeSeriesSegment> Series;
  if (!timeseries::loadFile(Path, powerCsvSpec(), Series, Error))
    return nullptr;
  return std::shared_ptr<const PowerTrace>(new PowerTrace(fromSeries(Series)));
}

bool PowerTrace::saveCsv(const std::string &Path, std::string &Error) const {
  return timeseries::saveFile(Path, powerCsvSpec(), toSeries(Segs), Error);
}

namespace {

/// Replays a PowerTrace cyclically against absolute logical time. Fully
/// deterministic: refills to capacity, off-time integrated exactly over
/// the trace's piecewise-constant segments.
class TracePowerSource final : public PowerSource {
public:
  explicit TracePowerSource(std::shared_ptr<const PowerTrace> Trace)
      : Trace(std::move(Trace)) {}

  const char *name() const override { return "trace"; }

  RechargePlan planRecharge(uint64_t Tau, uint64_t StoredEnergy,
                            const EnergyConfig &Cfg, Rng &) const override {
    uint64_t Target = Cfg.CapacityCycles;
    double Deficit =
        static_cast<double>(Target > StoredEnergy ? Target - StoredEnergy : 0);
    if (Deficit <= 0.0)
      return {Target, 1};

    // Off-times saturate here: a valid trace may still harvest almost
    // nothing per cycle (e.g. one tau at rate 1e-30), and the refill would
    // need astronomically many cycles — far past any simulation budget and
    // past what a float->uint64 cast can express. ~30k saturated reboots
    // still fit in uint64 tau, so the device reads as "effectively dead"
    // instead of hanging the planner.
    constexpr double MaxOffTau = 1e15;
    double EnergyPerCycle = Trace->energyPerCycle();
    double TotalTau = static_cast<double>(Trace->totalDurationTau());

    // Walk whole trace cycles first, then finish segment by segment.
    double WholeCycles = std::floor(Deficit / EnergyPerCycle);
    if (WholeCycles * TotalTau >= MaxOffTau)
      return {Target, static_cast<uint64_t>(MaxOffTau)};
    double Elapsed = WholeCycles * TotalTau;
    Deficit -= WholeCycles * EnergyPerCycle;

    uint64_t Offset = Tau % Trace->totalDurationTau();
    // Locate the segment containing Offset, then march. One full cycle's
    // gain exceeds the remaining deficit, so the march ends within about
    // one lap; the lap cap only guards float rounding at the extremes.
    size_t Idx = 0;
    uint64_t Into = Offset;
    while (Into >= Trace->segments()[Idx].DurationTau) {
      Into -= Trace->segments()[Idx].DurationTau;
      Idx = (Idx + 1) % Trace->segments().size();
    }
    size_t MaxSegs = 4 * Trace->segments().size();
    for (size_t N = 0; Deficit > 0.0 && N < MaxSegs; ++N) {
      const PowerTrace::Segment &S = Trace->segments()[Idx];
      double Span = static_cast<double>(S.DurationTau - Into);
      double Gain = S.Rate * Span;
      if (S.Rate > 0.0 && Gain >= Deficit) {
        Elapsed += Deficit / S.Rate;
        Deficit = 0.0;
        break;
      }
      Deficit -= Gain;
      Elapsed += Span;
      Into = 0;
      Idx = (Idx + 1) % Trace->segments().size();
    }
    if (Deficit > 0.0) // Rounding leftovers: settle at the average rate.
      Elapsed += Deficit / (EnergyPerCycle / TotalTau);
    if (Elapsed >= MaxOffTau)
      Elapsed = MaxOffTau;
    uint64_t T = static_cast<uint64_t>(std::ceil(Elapsed));
    return {Target, T == 0 ? 1 : T};
  }

private:
  std::shared_ptr<const PowerTrace> Trace;
};

} // namespace

std::shared_ptr<const PowerSource>
ocelot::traceSource(std::shared_ptr<const PowerTrace> Trace) {
  return std::make_shared<const TracePowerSource>(std::move(Trace));
}
