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
/// same segments. It never crashes (the sanitize lane runs this too).
///
//===----------------------------------------------------------------------===//

#include "power/PowerTrace.h"
#include "sensors/SensorTrace.h"

#include "Mutate.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
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

} // namespace
