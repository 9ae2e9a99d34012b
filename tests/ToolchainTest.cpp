//===- ToolchainTest.cpp - The public compilation API ----------------------------===//
//
// Part of the Ocelot reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Contract tests for the Toolchain / CompiledArtifact / Status API:
/// structured error reporting, artifact immutability and sharing, and the
/// thread-safety guarantee — concurrent compiles on one Toolchain and
/// concurrent Simulations over one artifact produce identical results —
/// plus a compile-time bound on the largest loop OCL allows.
///
//===----------------------------------------------------------------------===//

#include "ocelot/Toolchain.h"
#include "runtime/Simulation.h"

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

using namespace ocelot;

namespace {

const char *GoodSrc = R"(
io tmp;

fn main() {
  let x = tmp();
  Fresh(x);
  if x > 30 {
    alarm();
  }
  log(x);
}
)";

TEST(Toolchain, SuccessCarriesArtifactAndOkStatus) {
  Compilation C = Toolchain().compile(GoodSrc);
  ASSERT_TRUE(C.ok()) << C.status().str();
  EXPECT_TRUE(static_cast<bool>(C.status()));
  EXPECT_EQ(C.status().summary(), "");
  ASSERT_TRUE(static_cast<bool>(C.artifact()));
  EXPECT_EQ(C.artifact().model(), ExecModel::Ocelot);
  EXPECT_EQ(C.artifact().policies().Fresh.size(), 1u);
  EXPECT_FALSE(C.artifact().inferredRegions().empty());
  EXPECT_TRUE(C.artifact().placementValid());
}

TEST(Toolchain, FailureCarriesDiagnosticsNotArtifact) {
  Compilation C = Toolchain().compile("fn main() { let x = ; }");
  EXPECT_FALSE(C.ok());
  EXPECT_FALSE(static_cast<bool>(C.artifact()));
  EXPECT_FALSE(C.status().diagnostics().empty());
  EXPECT_NE(C.status().summary(), "");
  EXPECT_NE(C.status().str(), "");
}

TEST(Toolchain, WarningsSurviveOnSuccess) {
  // A Fresh annotation on input-free data compiles with a warning; the
  // Status must carry it even though the compile succeeded.
  Compilation C =
      Toolchain().compile("fn main() { let x = 1 + 2; Fresh(x); }");
  ASSERT_TRUE(C.ok()) << C.status().str();
  EXPECT_TRUE(C.status().contains("depends on no input operations"));
  EXPECT_EQ(C.status().summary(), "") << "warnings are not errors";
}

TEST(Toolchain, DefaultOptionsAreApplied) {
  CompileOptions Opts;
  Opts.Model = ExecModel::JitOnly;
  Toolchain TC(Opts);
  Compilation C = TC.compile(GoodSrc);
  ASSERT_TRUE(C.ok());
  EXPECT_EQ(C.artifact().model(), ExecModel::JitOnly);
  EXPECT_TRUE(C.artifact().inferredRegions().empty());
}

TEST(Toolchain, ArtifactCopiesShareState) {
  Compilation C = Toolchain().compile(GoodSrc);
  ASSERT_TRUE(C.ok());
  CompiledArtifact A = C.artifact();
  CompiledArtifact B = A; // Cheap handle copy.
  EXPECT_EQ(&A.program(), &B.program());
  EXPECT_EQ(&A.monitorPlan(), &B.monitorPlan());
}

TEST(Toolchain, ConcurrentCompilesAgree) {
  Toolchain TC;
  constexpr int NThreads = 4;
  std::vector<Compilation> Results(NThreads);
  {
    std::vector<std::thread> Pool;
    for (int T = 0; T < NThreads; ++T)
      Pool.emplace_back(
          [&TC, &Results, T] { Results[T] = TC.compile(GoodSrc); });
    for (std::thread &Th : Pool)
      Th.join();
  }
  for (const Compilation &C : Results) {
    ASSERT_TRUE(C.ok()) << C.status().str();
    EXPECT_EQ(C.artifact().policies().Fresh.size(), 1u);
    EXPECT_EQ(C.artifact().inferredRegions().size(),
              Results[0].artifact().inferredRegions().size());
  }
}

TEST(Toolchain, OneArtifactBacksConcurrentSimulations) {
  Compilation C = Toolchain().compile(GoodSrc);
  ASSERT_TRUE(C.ok());
  const CompiledArtifact &A = C.artifact();

  // One immutable sensor world shared by every simulation below: like the
  // artifact, a SensorScenario is safe to share across threads.
  std::shared_ptr<const SensorScenario> World =
      SensorScenario::Builder()
          .channel(0, noiseChannel(10, 40, 400, 42))
          .build();

  auto Campaign = [&A, &World](uint64_t Seed) {
    RunConfig Cfg;
    Cfg.Sensors = World;
    Cfg.Seed = Seed;
    Cfg.Plan = FailurePlan::energyDriven();
    Cfg.MonitorBitVector = true;
    Cfg.MonitorFormal = true;
    Simulation Sim(A, std::move(Cfg));
    uint64_t OnCycles = 0;
    for (int Run = 0; Run < 40; ++Run) {
      RunResult Res = Sim.runOnce();
      EXPECT_TRUE(Res.Completed) << Res.Trap;
      EXPECT_FALSE(Res.ViolatedFresh);
      OnCycles += Res.OnCycles;
    }
    return OnCycles;
  };

  // Reference results, computed alone.
  uint64_t Want1 = Campaign(1), Want2 = Campaign(2);
  // The same campaigns, racing on one shared artifact.
  uint64_t Got1 = 0, Got2 = 0, Got1b = 0;
  {
    std::thread T1([&] { Got1 = Campaign(1); });
    std::thread T2([&] { Got2 = Campaign(2); });
    std::thread T3([&] { Got1b = Campaign(1); });
    T1.join();
    T2.join();
    T3.join();
  }
  EXPECT_EQ(Got1, Want1);
  EXPECT_EQ(Got2, Want2);
  EXPECT_EQ(Got1b, Want1);
}

// Compile time must stay near-linear in program size. OCL unrolls loops, so
// a 4,096-iteration loop whose accumulator depends on every iteration's
// input is the largest single loop a program may hold, and its taint grows
// with every iteration. The quadratic analysis this bound guards against
// took 13.6 s in a Release build; it now takes about 0.1 s. Sanitizer
// builds are too slow for a wall-clock bound and skip it.
TEST(CompileScaling, LargestUnrolledLoopCompilesUnderFiveSeconds) {
#if defined(__SANITIZE_ADDRESS__)
  GTEST_SKIP() << "wall-clock bound skipped under AddressSanitizer";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
  GTEST_SKIP() << "wall-clock bound skipped under AddressSanitizer";
#endif
#endif
  const std::string Src =
      "io s;\nfn main() { let acc = 0; for i in 0..4096 { let c = s(); "
      "if c > i { acc = acc + c; } } log(acc); }\n";
  CompileOptions Opts;
  Opts.Model = ExecModel::Ocelot;
  auto Start = std::chrono::steady_clock::now();
  Compilation C = Toolchain().compile(Src, Opts);
  double Seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - Start)
                       .count();
  ASSERT_TRUE(C.ok()) << C.status().str();
  EXPECT_LT(Seconds, 5.0);
  RecordProperty("compile_ms", static_cast<int>(Seconds * 1000));
}

} // namespace
