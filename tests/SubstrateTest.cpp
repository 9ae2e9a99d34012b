//===- SubstrateTest.cpp - Runtime substrate unit tests -------------------------===//
//
// Part of the Ocelot reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for the simulator substrate: deterministic RNG, diagnostics,
/// the capacitor/harvester energy model, failure plans, the undo log, the
/// table formatter, and the §7.4 effort models. (Sensor signals and
/// scenarios are covered by SensorSignalTest and SensorScenarioTest.)
///
//===----------------------------------------------------------------------===//

#include "harness/EffortModel.h"
#include "harness/Experiment.h"
#include "harness/TableFmt.h"
#include "runtime/EnergyModel.h"
#include "runtime/FailurePlan.h"
#include "runtime/UndoLog.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <cstdint>

using namespace ocelot;

namespace {

// -- Rng -----------------------------------------------------------------------

TEST(Rng, DeterministicAcrossInstances) {
  Rng A(42), B(42);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(Rng, BoundsRespected) {
  Rng R(7);
  for (int I = 0; I < 1000; ++I) {
    uint64_t V = R.nextBelow(13);
    EXPECT_LT(V, 13u);
    int64_t W = R.nextInRange(-5, 5);
    EXPECT_GE(W, -5);
    EXPECT_LE(W, 5);
    double D = R.nextDouble();
    EXPECT_GE(D, 0.0);
    EXPECT_LT(D, 1.0);
  }
}

TEST(Rng, ForkedStreamsDiffer) {
  Rng A(1);
  Rng B = A.fork();
  int Same = 0;
  for (int I = 0; I < 64; ++I)
    if (A.next() == B.next())
      ++Same;
  EXPECT_LT(Same, 4);
}

TEST(Rng, RoughlyUniform) {
  Rng R(99);
  int Buckets[10] = {0};
  for (int I = 0; I < 10000; ++I)
    ++Buckets[R.nextBelow(10)];
  for (int Count : Buckets)
    EXPECT_NEAR(Count, 1000, 200);
}

// -- EnergyModel -----------------------------------------------------------------

TEST(Energy, ComparatorFiresAtReserve) {
  EnergyConfig Cfg;
  Cfg.CapacityCycles = 1000;
  Cfg.ReserveCycles = 200;
  Cfg.RefillJitter = 0.0;
  Cfg.ChargeJitter = 0.0;
  EnergyModel E(Cfg, 1);
  EXPECT_FALSE(E.consume(700)); // 300 left > 200
  EXPECT_TRUE(E.consume(150));  // 150 left <= 200
  EXPECT_TRUE(E.low());
}

TEST(Energy, RechargeTimeProportionalToDeficit) {
  EnergyConfig Cfg;
  Cfg.CapacityCycles = 1000;
  Cfg.ReserveCycles = 100;
  Cfg.ChargeRate = 0.5;
  Cfg.ChargeJitter = 0.0;
  Cfg.RefillJitter = 0.0;
  EnergyModel E(Cfg, 1);
  E.consume(600);
  uint64_t T = E.recharge();
  EXPECT_EQ(T, 1200u); // 600 deficit / 0.5 per tau
  EXPECT_EQ(E.remaining(), 1000u);
}

TEST(Energy, RefillJitterVariesTargets) {
  EnergyConfig Cfg;
  Cfg.CapacityCycles = 10000;
  Cfg.RefillJitter = 0.3;
  Cfg.ChargeJitter = 0.0;
  EnergyModel E(Cfg, 5);
  std::set<uint64_t> Levels;
  for (int I = 0; I < 20; ++I) {
    E.consume(5000);
    E.recharge();
    Levels.insert(E.remaining());
    EXPECT_GT(E.remaining(), Cfg.ReserveCycles);
    EXPECT_LE(E.remaining(), Cfg.CapacityCycles);
  }
  EXPECT_GT(Levels.size(), 10u) << "refills must desynchronize phase";
}

// -- FailurePlan -----------------------------------------------------------------

TEST(FailurePlan, PathologicalFiresOncePerRun) {
  InstrRef Point(0, 5);
  FailurePlan P = FailurePlan::pathological({Point});
  Rng R(1);
  EXPECT_TRUE(P.firesBefore(Point, R));
  EXPECT_FALSE(P.firesBefore(Point, R)); // Re-execution: no refire.
  EXPECT_FALSE(P.firesBefore(InstrRef(0, 6), R));
  P.resetRun();
  EXPECT_TRUE(P.firesBefore(Point, R));
}

TEST(FailurePlan, OffTimeWithinConfiguredRange) {
  FailurePlan P = FailurePlan::none();
  P.setOffTime(100, 200);
  Rng R(3);
  for (int I = 0; I < 100; ++I) {
    uint64_t T = P.drawOffTime(R);
    EXPECT_GE(T, 100u);
    EXPECT_LE(T, 200u);
  }
}

TEST(FailurePlan, OffTimeBoundsAboveInt64MaxDoNotNarrow) {
  // Regression: drawOffTime used to route uint64_t bounds through
  // Rng::nextInRange(int64_t), silently narrowing anything above
  // INT64_MAX. The draw must respect the full unsigned range.
  FailurePlan P = FailurePlan::none();
  const uint64_t Lo = static_cast<uint64_t>(INT64_MAX); // The old boundary.
  const uint64_t Hi = Lo + 1000;
  P.setOffTime(Lo, Hi);
  Rng R(17);
  for (int I = 0; I < 200; ++I) {
    uint64_t T = P.drawOffTime(R);
    ASSERT_GE(T, Lo);
    ASSERT_LE(T, Hi);
  }
}

TEST(FailurePlan, RandomRateMatchesProbability) {
  FailurePlan P = FailurePlan::random(0.1);
  Rng R(9);
  int Fires = 0;
  for (int I = 0; I < 10000; ++I)
    if (P.firesBefore(InstrRef(0, 1), R))
      ++Fires;
  EXPECT_NEAR(Fires, 1000, 150);
}

// -- UndoLog ---------------------------------------------------------------------

TEST(UndoLog, FirstWriteWinsAndRestores) {
  UndoLog Log;
  EXPECT_TRUE(Log.logIfFirst(0, 0, RtValue(10)));
  EXPECT_FALSE(Log.logIfFirst(0, 0, RtValue(99))); // Old value kept.
  EXPECT_TRUE(Log.logIfFirst(1, 3, RtValue(-7)));
  EXPECT_EQ(Log.size(), 2u);

  std::map<std::pair<int, int64_t>, int64_t> Restored;
  Log.restore([&](int G, int64_t Idx, const RtValue &Old) {
    Restored[std::make_pair(G, Idx)] = Old.V;
  });
  EXPECT_EQ(Restored[std::make_pair(0, int64_t(0))], 10);
  EXPECT_EQ(Restored[std::make_pair(1, int64_t(3))], -7);
  Log.clear();
  EXPECT_TRUE(Log.empty());
}

// -- TableFmt / EffortModel --------------------------------------------------------

TEST(TableFmt, AlignsColumns) {
  Table T({"a", "bbbb"});
  T.addRow({"xxxxx", "y"});
  std::string S = T.str();
  EXPECT_NE(S.find("a      bbbb"), std::string::npos);
  EXPECT_NE(S.find("xxxxx  y"), std::string::npos);
}

TEST(TableFmt, GeomeanAndFormat) {
  EXPECT_DOUBLE_EQ(geomean({4.0, 1.0}), 2.0);
  EXPECT_EQ(fmt(1.23456, 2), "1.23");
  EXPECT_EQ(fmtPct(50.0), "50%");
  EXPECT_EQ(fmtPct(12.5, 1), "12.5%");
}

TEST(EffortModel, OcelotFewestOnEveryBenchmark) {
  for (const BenchmarkDef &B : allBenchmarks()) {
    CompiledBenchmark Ann = compileBenchmark(B, ExecModel::Ocelot);
    CompiledBenchmark Man = compileBenchmark(B, ExecModel::AtomicsOnly);
    EffortInputs In = effortInputs(Ann.Artifact, Man.Artifact);
    int O = ocelotLoc(In);
    EXPECT_GT(O, 0) << B.Name;
    EXPECT_LE(O, ticsLoc(In)) << B.Name;
    EXPECT_LE(O, samoyedLoc(In)) << B.Name;
    EXPECT_LE(O, atomicsLoc(In)) << B.Name;
  }
}

TEST(EffortModel, CemMatchesPaperFormulaShape) {
  // CEM has exactly one fresh datum: TICS = 3 + 5 = 8 (the paper's value).
  const BenchmarkDef &B = *findBenchmark("cem");
  CompiledBenchmark Ann = compileBenchmark(B, ExecModel::Ocelot);
  CompiledBenchmark Man = compileBenchmark(B, ExecModel::AtomicsOnly);
  EffortInputs In = effortInputs(Ann.Artifact, Man.Artifact);
  EXPECT_EQ(ticsLoc(In), 8);
  EXPECT_EQ(ocelotLoc(In), 2); // one io decl + one annotation
}

// -- Diagnostics -----------------------------------------------------------------

TEST(Diagnostics, RenderingAndQueries) {
  DiagnosticEngine D;
  D.error(SourceLoc(3, 7), "bad thing");
  D.warning({}, "odd thing");
  D.note(SourceLoc(1, 1), "context");
  EXPECT_TRUE(D.hasErrors());
  EXPECT_EQ(D.errorCount(), 1u);
  EXPECT_TRUE(D.contains("bad thing"));
  EXPECT_FALSE(D.contains("missing"));
  std::string S = D.str();
  EXPECT_NE(S.find("3:7: error: bad thing"), std::string::npos);
  EXPECT_NE(S.find("warning: odd thing"), std::string::npos);
  D.clear();
  EXPECT_FALSE(D.hasErrors());
}

} // namespace
