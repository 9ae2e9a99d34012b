//===- SourceFuzzTest.cpp - Seeded mutations of the benchmark sources ------===//
//
// Part of the Ocelot reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Flips, truncates and extends the bytes, or drops, duplicates and swaps
/// the lines, of the OCL sources of the six paper and two fusion benchmarks
/// and compiles every mutant under one of the four ExecModels. The
/// toolchain either rejects the text with at least one error diagnostic or
/// returns an artifact; it never crashes (the sanitize lane runs this too,
/// so the whole pipeline, taint analysis included, sees malformed programs
/// under ASan and UBSan).
///
//===----------------------------------------------------------------------===//

#include "apps/Benchmarks.h"
#include "fusion/FusionBenchmarks.h"
#include "ocelot/Toolchain.h"

#include "Mutate.h"

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

using namespace ocelot;
using ocelot::test::mutate;
using ocelot::test::mutateLines;

namespace {

TEST(SourceFuzz, MutatedBenchmarkCompilesOrFailsWithAnError) {
  std::vector<const BenchmarkDef *> Benches;
  for (const BenchmarkDef &B : allBenchmarks())
    Benches.push_back(&B);
  for (const BenchmarkDef &B : fusionBenchmarks())
    Benches.push_back(&B);
  ASSERT_EQ(Benches.size(), 8u);

  const ExecModel Models[] = {ExecModel::Ocelot, ExecModel::JitOnly,
                              ExecModel::AtomicsOnly, ExecModel::CheckOnly};
  std::mt19937_64 Rng(0x0C150CE5);
  size_t Compiled = 0, Rejected = 0;
  for (const BenchmarkDef *B : Benches) {
    for (int Case = 0; Case < 48; ++Case) {
      // Odd cases mutate the manually placed atomics variant; every other
      // pair edits lines instead of bytes.
      const std::string Valid = Case % 2 ? B->AtomicsSrc : B->AnnotatedSrc;
      const std::string Src =
          Case / 2 % 2
              ? mutateLines(Valid, Rng)
              : mutate(Valid, Case / 4, Rng,
                       "(){}[];:,.=+-*/%<>!&|^ \n0123456789_aefil");
      CompileOptions Opts;
      Opts.Model = Models[(Case / 4) % 4];
      SCOPED_TRACE(B->Name + " case " + std::to_string(Case) + " under " +
                   execModelName(Opts.Model) + ":\n" + Src);
      Compilation C = Toolchain().compile(Src, Opts);
      if (C.ok()) {
        EXPECT_TRUE(static_cast<bool>(C.artifact()));
        ++Compiled;
        continue;
      }
      EXPECT_FALSE(static_cast<bool>(C.artifact()));
      EXPECT_FALSE(C.status().summary().empty()) << C.status().str();
      ++Rejected;
    }
  }
  // Both outcomes occur: a flip inside a comment, a name or a literal often
  // still compiles; most damage to the syntax is rejected.
  EXPECT_GT(Compiled, 0u);
  EXPECT_GT(Rejected, 0u);
  RecordProperty("compiled", static_cast<int>(Compiled));
  RecordProperty("rejected", static_cast<int>(Rejected));
}

} // namespace
