//===- TraceFuzzTest.cpp - Seeded mutations of the shipped trace CSVs ------===//
//
// Part of the Ocelot reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Flips, truncates and extends every bench/traces/*.csv and hands each
/// mutant to both trace parsers. A parser either rejects the text with a
/// diagnostic that names the offending line (or, for a whole-trace
/// problem, says which), or returns a trace whose toCsv() re-parses to the
/// same segments. It never crashes (the sanitize lane runs this too). A
/// token table pins which number spellings the shared parser accepts.
///
//===----------------------------------------------------------------------===//

#include "power/PowerTrace.h"
#include "sensors/SensorTrace.h"
#include "support/TimeSeriesCsv.h"

#include "Mutate.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

using namespace ocelot;
using ocelot::test::mutate;

namespace {

std::string slurp(const std::filesystem::path &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::stringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

/// True for the parsers' diagnostic shapes: "line N: ..." for a bad line,
/// or one of the whole-trace problems that no single line causes.
bool isDiagnostic(const std::string &Err) {
  if (Err.rfind("line ", 0) == 0) {
    size_t I = 5, Digits = 0;
    while (I < Err.size() && std::isdigit(static_cast<unsigned char>(Err[I])))
      ++I, ++Digits;
    return Digits > 0 && Err.compare(I, 2, ": ") == 0;
  }
  return Err == "trace has no segments" ||
         Err == "trace harvests no energy (all rates are 0)";
}

/// Parses \p Text with \p Trace's parser. \returns whether it was accepted;
/// an accepted trace must survive a toCsv round trip unchanged.
template <typename Trace> bool parsesOrFailsWithALine(const std::string &Text) {
  std::string Err;
  auto T = Trace::parseCsv(Text, Err);
  if (!T) {
    EXPECT_TRUE(isDiagnostic(Err)) << Err;
    return false;
  }
  EXPECT_TRUE(Err.empty()) << Err;
  auto Again = Trace::parseCsv(T->toCsv(), Err);
  EXPECT_TRUE(Again) << Err;
  if (!Again)
    return true;
  const auto &A = T->segments(), &B = Again->segments();
  EXPECT_EQ(A.size(), B.size());
  for (size_t I = 0; I < A.size() && I < B.size(); ++I) {
    EXPECT_EQ(A[I].DurationTau, B[I].DurationTau) << "segment " << I;
    if constexpr (std::is_same_v<Trace, PowerTrace>)
      EXPECT_EQ(A[I].Rate, B[I].Rate) << "segment " << I;
    else
      EXPECT_EQ(A[I].Value, B[I].Value) << "segment " << I;
  }
  return true;
}

TEST(TraceFuzz, MutatedTraceParsesOrFailsWithALine) {
  // OCELOT_TRACE_DIR points at bench/traces/ (set by tests/CMakeLists.txt).
  std::vector<std::filesystem::path> Files;
  for (const auto &E : std::filesystem::directory_iterator(OCELOT_TRACE_DIR))
    if (E.path().extension() == ".csv")
      Files.push_back(E.path());
  std::sort(Files.begin(), Files.end());
  ASSERT_GE(Files.size(), 4u);

  std::mt19937_64 Rng(0x5EED7ACE);
  size_t Parsed = 0, Rejected = 0;
  for (const std::filesystem::path &F : Files) {
    const std::string Valid = slurp(F);
    ASSERT_FALSE(Valid.empty()) << F;
    for (int Case = 0; Case < 300; ++Case) {
      SCOPED_TRACE(F.filename().string() + " case " + std::to_string(Case));
      const std::string Bytes =
          mutate(Valid, Case, Rng, "0123456789-+.eE,#\n ");
      for (bool Ok : {parsesOrFailsWithALine<PowerTrace>(Bytes),
                      parsesOrFailsWithALine<SensorTrace>(Bytes)})
        ++(Ok ? Parsed : Rejected);
    }
  }
  // Both outcomes occur: a flip inside a comment or a digit still parses;
  // most damage to a data line is rejected.
  EXPECT_GT(Parsed, 0u);
  EXPECT_GT(Rejected, 0u);
}

// What the shared trace parser accepts in each column, one data line per
// case. "Stricter" names the spellings the strtoull/strtod parser read
// that this one rejects: each loaded as a different number than its text
// says, and toCsv then wrote that number back.
TEST(TraceTokens, TokenTable) {
  const TimeSeriesCsvSpec Spec{"# test trace\n# duration_tau,value\n",
                               "duration_tau,value", "value", "test trace"};
  struct TokenCase {
    const char *Line;
    bool Ok;
    uint64_t Duration; ///< When Ok.
    double Value;      ///< When Ok.
    const char *Error;    ///< When rejected: a fragment of the message.
    const char *Stricter; ///< "" or what strtoull/strtod made of it.
  } Cases[] = {
      {"100,0", true, 100, 0.0, "", ""},
      {"007,1.5", true, 7, 1.5, "", ""},
      {"100,-0", true, 100, -0.0, "", ""},
      {"100,-17.25", true, 100, -17.25, "", ""},
      {"100,1E5", true, 100, 1e5, "", ""},
      {"100,.5", true, 100, 0.5, "", ""},
      {"100,5.", true, 100, 5.0, "", ""},
      {"100,5e-324", true, 100, 5e-324, "", ""}, // Smallest subnormal.
      {"18446744073709551615,1", true, UINT64_MAX, 1.0, "", ""},
      {" 100,5 ", true, 100, 5.0, "", ""}, // The line is trimmed.
      {"18446744073709551616,1", false, 0, 0, "exceeds 64 bits", ""},
      {"-100,1", false, 0, 0, "expected 'duration_tau,value'",
       "strtoull: 2^64 - 100"},
      {"+100,1", false, 0, 0, "expected 'duration_tau,value'",
       "strtoull: 100"},
      {"1e3,1", false, 0, 0, "expected 'duration_tau,value'", ""},
      {"100", false, 0, 0, "expected 'duration_tau,value'", ""},
      {"100,", false, 0, 0, "value must be a finite decimal number", ""},
      {"100,1e400", false, 0, 0, "value must be a finite", ""},
      {"100,inf", false, 0, 0, "value must be a finite", ""},
      {"100,nan", false, 0, 0, "value must be a finite", ""},
      {"100,5,6", false, 0, 0, "got '5,6'", ""},
      {"100,0x10", false, 0, 0, "got '0x10'", "strtod: 16"},
      {"100, 5", false, 0, 0, "got ' 5'", "strtod: 5"},
      {"100,+5", false, 0, 0, "got '+5'", "strtod: 5"},
      {"100,1e-400", false, 0, 0, "got '1e-400'", "strtod: 0"},
  };
  for (const TokenCase &C : Cases) {
    SCOPED_TRACE(std::string("line '") + C.Line + "'");
    std::vector<TimeSeriesSegment> Segs;
    std::string Err;
    ASSERT_EQ(timeseries::parseCsv(C.Line, Spec, Segs, Err), C.Ok) << Err;
    if (!C.Ok) {
      EXPECT_EQ(Err.rfind("line 1: ", 0), 0u) << Err;
      EXPECT_NE(Err.find(C.Error), std::string::npos) << Err;
      continue;
    }
    ASSERT_EQ(Segs.size(), 1u);
    EXPECT_EQ(Segs[0].DurationTau, C.Duration);
    EXPECT_EQ(std::memcmp(&Segs[0].Value, &C.Value, sizeof(double)), 0)
        << Segs[0].Value;
  }
}

} // namespace
