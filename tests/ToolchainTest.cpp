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
/// concurrent Simulations over one artifact produce identical results.
///
//===----------------------------------------------------------------------===//

#include "ocelot/Toolchain.h"
#include "runtime/Simulation.h"

#include <gtest/gtest.h>

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

} // namespace
