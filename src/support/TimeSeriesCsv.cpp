//===- TimeSeriesCsv.cpp - Shared piecewise-constant CSV time series -------------===//
//
// Part of the Ocelot reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/TimeSeriesCsv.h"

#include "support/ParseNumber.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

using namespace ocelot;

std::string timeseries::validate(const std::vector<TimeSeriesSegment> &Segs,
                                 const TimeSeriesCsvSpec &Spec,
                                 const std::vector<std::string> &Where) {
  if (Segs.empty())
    return "trace has no segments";
  uint64_t TotalTau = 0;
  for (size_t I = 0; I < Segs.size(); ++I) {
    if (Segs[I].DurationTau == 0)
      return Where[I] + ": segment duration must be > 0";
    if (Spec.ValueNonNegative) {
      if (!(Segs[I].Value >= 0.0) || !std::isfinite(Segs[I].Value))
        return Where[I] + ": " + Spec.ValueName +
               " must be finite and >= 0";
    } else if (!std::isfinite(Segs[I].Value)) {
      return Where[I] + ": " + Spec.ValueName + " must be finite";
    }
    if (TotalTau + Segs[I].DurationTau < TotalTau)
      return Where[I] + ": total trace duration overflows 64 bits";
    TotalTau += Segs[I].DurationTau;
  }
  if (Spec.SeriesCheck)
    return Spec.SeriesCheck(Segs, Where);
  return "";
}

bool timeseries::parseCsv(std::string_view Text,
                          const TimeSeriesCsvSpec &Spec,
                          std::vector<TimeSeriesSegment> &Out,
                          std::string &Error) {
  std::vector<TimeSeriesSegment> Segs;
  std::vector<std::string> Where;
  size_t LineNo = 0;
  size_t Pos = 0;
  while (Pos <= Text.size()) {
    size_t Eol = Text.find('\n', Pos);
    std::string_view Line = Text.substr(
        Pos, Eol == std::string_view::npos ? std::string_view::npos
                                           : Eol - Pos);
    Pos = Eol == std::string_view::npos ? Text.size() + 1 : Eol + 1;
    ++LineNo;
    // Trim whitespace; skip blanks and # comments.
    while (!Line.empty() && (Line.front() == ' ' || Line.front() == '\t' ||
                             Line.front() == '\r'))
      Line.remove_prefix(1);
    while (!Line.empty() && (Line.back() == ' ' || Line.back() == '\t' ||
                             Line.back() == '\r'))
      Line.remove_suffix(1);
    if (Line.empty() || Line.front() == '#')
      continue;

    // Parse strictly (ParseNumber.h's grammar): an unsigned decimal
    // duration, a comma, a finite decimal value, and nothing else. No
    // sign on the duration (it would wrap), and no '+', whitespace, hex
    // or underflow to 0 in either number, so toCsv writes back the text
    // it read.
    const std::string At = "line " + std::to_string(LineNo);
    const size_t Comma = Line.find(',');
    const std::string_view DurText = Line.substr(0, Comma);
    if (Comma == std::string_view::npos || DurText.empty() ||
        DurText.find_first_not_of("0123456789") != std::string_view::npos) {
      Error = At + ": expected '" + Spec.Columns + "', got '" +
              std::string(Line) + "'";
      return false;
    }
    TimeSeriesSegment S;
    if (!parseUnsigned(DurText, S.DurationTau)) {
      Error = At + ": segment duration exceeds 64 bits";
      return false;
    }
    const std::string_view ValText = Line.substr(Comma + 1);
    if (!parseDouble(ValText, S.Value)) {
      Error = At + ": " + Spec.ValueName +
              " must be a finite decimal number, got '" +
              std::string(ValText) + "'";
      return false;
    }
    Segs.push_back(S);
    Where.push_back(At);
  }
  Error = validate(Segs, Spec, Where);
  if (!Error.empty())
    return false;
  Out = std::move(Segs);
  return true;
}

std::string timeseries::toCsv(const TimeSeriesCsvSpec &Spec,
                              const std::vector<TimeSeriesSegment> &Segs) {
  std::string Out = Spec.Header;
  char Buf[64];
  for (const TimeSeriesSegment &S : Segs) {
    // %.17g round-trips any double exactly, so save -> load -> save is the
    // identity on the text as well as the segments.
    std::snprintf(Buf, sizeof(Buf), "%llu,%.17g\n",
                  static_cast<unsigned long long>(S.DurationTau), S.Value);
    Out += Buf;
  }
  return Out;
}

bool timeseries::loadFile(const std::string &Path,
                          const TimeSeriesCsvSpec &Spec,
                          std::vector<TimeSeriesSegment> &Out,
                          std::string &Error) {
  std::ifstream In(Path);
  if (!In) {
    Error = std::string("cannot open ") + Spec.FileNoun + " '" + Path + "'";
    return false;
  }
  std::stringstream Buf;
  Buf << In.rdbuf();
  if (!parseCsv(Buf.str(), Spec, Out, Error)) {
    Error = Path + ": " + Error;
    return false;
  }
  return true;
}

bool timeseries::saveFile(const std::string &Path,
                          const TimeSeriesCsvSpec &Spec,
                          const std::vector<TimeSeriesSegment> &Segs,
                          std::string &Error) {
  std::ofstream OutFile(Path);
  if (!OutFile) {
    Error = std::string("cannot write ") + Spec.FileNoun + " '" + Path + "'";
    return false;
  }
  OutFile << toCsv(Spec, Segs);
  OutFile.flush();
  if (!OutFile) {
    Error = std::string("error writing ") + Spec.FileNoun + " '" + Path + "'";
    return false;
  }
  return true;
}
