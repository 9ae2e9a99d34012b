//===- TaintTableTest.cpp - Interned runtime taint ----------------------------===//
//
// Part of the Ocelot reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Unit tests of the TaintTable behind RtValue::Taint: merge order and dedup
// against a plain vector model of the taint-augmented semantics, the merge
// identities, epoch summaries, memo invalidation and root-preserving
// compaction, and a simulated device lifetime whose table stays bounded.
//
//===----------------------------------------------------------------------===//

#include "harness/Experiment.h"
#include "runtime/Simulation.h"
#include "runtime/TaintTable.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>

using namespace ocelot;

namespace {

using Events = std::vector<InputEvent>;

/// The vector semantics the table replaces: A, then B's events not in A.
Events modelMerge(Events A, const Events &B) {
  for (const InputEvent &E : B)
    if (std::find(A.begin(), A.end(), E) == A.end())
      A.push_back(E);
  return A;
}

Events contents(const TaintTable &T, TaintId Id) {
  Events Out;
  T.appendTo(Id, Out);
  return Out;
}

InputEvent event(int Sensor, uint64_t Tau, uint64_t Epoch, int64_t Value) {
  InputEvent E;
  E.Sensor = Sensor;
  E.Tau = Tau;
  E.Epoch = Epoch;
  E.Value = Value;
  return E;
}

/// The epochs of \p Es in first-appearance order: what an epoch-grain
/// table keeps of the event sequence \p Es.
std::vector<uint64_t> epochsOf(const Events &Es) {
  std::vector<uint64_t> Out;
  for (const InputEvent &E : Es)
    if (std::find(Out.begin(), Out.end(), E.Epoch) == Out.end())
      Out.push_back(E.Epoch);
  return Out;
}

/// Drives \p T with a random script of singles and merges, mirrored on
/// the event-grain vector model, and calls \p Check(Id, Model, MaxEpoch)
/// after every operation and again for every id at the end (entries are
/// immutable, so earlier ids must still name their sequences).
template <typename CheckFn>
void runRandomScript(TaintTable &T, std::mt19937_64 &Rng,
                     const CheckFn &Check) {
  std::vector<TaintId> Ids{0};
  std::vector<Events> Model{{}};
  uint64_t Tau = 0, Epoch = 0;
  for (int Op = 0; Op < 400; ++Op) {
    if (Rng() % 4 == 0 || Ids.size() < 3) {
      // Tau never runs backward; equal-tau inputs (zero-cost steps) can
      // repeat an event exactly, which must dedup by value.
      Tau += Rng() % 3;
      if (Rng() % 16 == 0)
        ++Epoch;
      InputEvent E = event(static_cast<int>(Rng() % 3), Tau, Epoch,
                           static_cast<int64_t>(Rng() % 2));
      Ids.push_back(T.single(E));
      Model.push_back({E});
    } else {
      size_t A = Rng() % Ids.size(), B = Rng() % Ids.size();
      Ids.push_back(T.merge(Ids[A], Ids[B]));
      Model.push_back(modelMerge(Model[A], Model[B]));
    }
    SCOPED_TRACE("op " + std::to_string(Op));
    Check(Ids.back(), Model.back(), Epoch);
  }
  for (size_t I = 0; I < Ids.size(); ++I) {
    SCOPED_TRACE("id " + std::to_string(I));
    Check(Ids[I], Model[I], Epoch);
  }
}

/// allInEpoch agrees with the model for every epoch up to \p MaxEpoch.
void expectAllInEpochMatches(const TaintTable &T, TaintId Id,
                             const Events &Model, uint64_t MaxEpoch) {
  for (uint64_t Ep = 0; Ep <= MaxEpoch; ++Ep) {
    bool Want = std::all_of(Model.begin(), Model.end(),
                            [&](const InputEvent &E) { return E.Epoch == Ep; });
    ASSERT_EQ(T.allInEpoch(Id, Ep), Want) << "epoch " << Ep;
  }
}

TEST(TaintTable, MergeMatchesVectorSemanticsOnRandomEvents) {
  std::mt19937_64 Rng(42);
  for (int Round = 0; Round < 20; ++Round) {
    SCOPED_TRACE("round " + std::to_string(Round));
    TaintTable T;
    runRandomScript(T, Rng, [&](TaintId Id, const Events &Model,
                                uint64_t MaxEpoch) {
      ASSERT_EQ(contents(T, Id), Model);
      expectAllInEpochMatches(T, Id, Model, MaxEpoch);
    });
  }
}

TEST(TaintTable, EpochGrainKeepsTheEventModelsEpochs) {
  // The same scripts as above: an epoch-grain table's sequence is the
  // event-grain model's epochs in first-appearance order, because mapping
  // events to epochs commutes with merge.
  std::mt19937_64 Rng(42);
  for (int Round = 0; Round < 20; ++Round) {
    SCOPED_TRACE("round " + std::to_string(Round));
    TaintTable T(TaintTable::Grain::Epoch);
    runRandomScript(T, Rng, [&](TaintId Id, const Events &Model,
                                uint64_t MaxEpoch) {
      ASSERT_EQ(epochsOf(contents(T, Id)), epochsOf(Model));
      expectAllInEpochMatches(T, Id, Model, MaxEpoch);
    });
  }
}

TEST(TaintTable, EpochGrainInternsOneSequencePerEpoch) {
  TaintTable T(TaintTable::Grain::Epoch);
  EXPECT_EQ(T.grain(), TaintTable::Grain::Epoch);
  TaintId A = T.single(event(0, 1, 0, 5));
  EXPECT_EQ(T.single(event(1, 2, 0, 6)), A);
  EXPECT_EQ(T.single(event(2, 2, 0, 7)), A);
  EXPECT_EQ(T.merge(A, T.single(event(0, 3, 0, 8))), A);
  TaintId B = T.single(event(0, 4, 1, 5));
  EXPECT_NE(B, A);
  EXPECT_EQ(T.numEvents(), 2u);
  TaintId AB = T.merge(A, B);
  EXPECT_EQ(T.length(AB), 2u);
  EXPECT_EQ(T.at(AB, 0).Epoch, 0u);
  EXPECT_EQ(T.at(AB, 1).Epoch, 1u);
  // Compaction renumbers; a later single of the current epoch reuses the
  // surviving event and yields a sequence equal to the root's.
  std::vector<RtValue> Roots{RtValue(0, B)};
  T.compact(Roots);
  EXPECT_EQ(T.numEvents(), 1u);
  TaintId B2 = T.single(event(1, 9, 1, 0));
  EXPECT_EQ(T.numEvents(), 1u);
  EXPECT_EQ(T.merge(Roots[0].Taint, B2), Roots[0].Taint);
  EXPECT_EQ(T.single(event(2, 9, 1, 1)), B2);
}

TEST(TaintTable, MergeIdentitiesAndSubsetReturnExistingIds) {
  TaintTable T;
  TaintId A = T.single(event(0, 10, 0, 1));
  TaintId B = T.single(event(1, 20, 0, 2));
  TaintId AB = T.merge(A, B);
  size_t Size = T.size();
  EXPECT_EQ(T.merge(AB, 0), AB);
  EXPECT_EQ(T.merge(0, AB), AB);
  EXPECT_EQ(T.merge(AB, AB), AB);
  EXPECT_EQ(T.merge(AB, A), AB); // A ⊆ AB.
  EXPECT_EQ(T.merge(AB, B), AB); // B ⊆ AB.
  EXPECT_EQ(T.merge(0, 0), 0u);
  EXPECT_EQ(T.size(), Size) << "identities must not create entries";
  // The memo answers a repeated union with the same id.
  EXPECT_EQ(T.merge(A, B), AB);
  // Order is the left operand's, then the right's new events.
  TaintId BA = T.merge(B, A);
  EXPECT_NE(BA, AB);
  EXPECT_EQ(contents(T, BA),
            (Events{event(1, 20, 0, 2), event(0, 10, 0, 1)}));
  EXPECT_EQ(T.length(0), 0u);
}

TEST(TaintTable, EqualEventsDedupAcrossSingles) {
  TaintTable T;
  InputEvent E = event(2, 5, 0, 7);
  TaintId A = T.single(E);
  TaintId Other = T.single(event(1, 5, 0, 3)); // Same tau, other sensor.
  TaintId B = T.single(E);
  EXPECT_EQ(T.numEvents(), 2u);
  EXPECT_EQ(T.merge(A, B), A);
  EXPECT_EQ(contents(T, T.merge(T.merge(A, Other), B)),
            (Events{E, event(1, 5, 0, 3)}));
}

TEST(TaintTable, AllInEpoch) {
  TaintTable T;
  EXPECT_TRUE(T.allInEpoch(0, 0));
  EXPECT_TRUE(T.allInEpoch(0, 9));
  TaintId A = T.single(event(0, 1, 3, 0));
  TaintId B = T.single(event(0, 2, 3, 0));
  TaintId C = T.single(event(0, 3, 4, 0));
  EXPECT_TRUE(T.allInEpoch(A, 3));
  EXPECT_FALSE(T.allInEpoch(A, 4));
  EXPECT_TRUE(T.allInEpoch(T.merge(A, B), 3));
  TaintId Mixed = T.merge(T.merge(A, B), C);
  EXPECT_FALSE(T.allInEpoch(Mixed, 3));
  EXPECT_FALSE(T.allInEpoch(Mixed, 4));
}

TEST(TaintTable, CompactionKeepsRootsAndDropsUnreachable) {
  TaintTable T;
  InputEvent E1 = event(0, 1, 0, 1), E2 = event(1, 2, 0, 2),
             E3 = event(2, 3, 1, 3), E4 = event(0, 4, 1, 4);
  TaintId A = T.single(E1), B = T.single(E2), C = T.single(E3),
          D = T.single(E4);
  TaintId BA = T.merge(B, A);
  TaintId BAC = T.merge(BA, C);
  (void)T.merge(D, A); // Unreachable after compaction.
  std::vector<RtValue> Roots{RtValue(5, BAC), RtValue(6), RtValue(7, B),
                             RtValue(8, BAC)};
  T.compact(Roots);
  // Empty + {B} + {B,A,C}: D, the singles of A and C, and both
  // intermediate merges are gone, and so is E4.
  EXPECT_EQ(T.size(), 3u);
  EXPECT_EQ(T.numEvents(), 3u);
  EXPECT_EQ(Roots[1].Taint, 0u);
  EXPECT_EQ(Roots[0].Taint, Roots[3].Taint);
  EXPECT_EQ(Roots[0].V, 5);
  EXPECT_EQ(contents(T, Roots[0].Taint), (Events{E2, E1, E3}));
  EXPECT_EQ(contents(T, Roots[2].Taint), (Events{E2}));
  EXPECT_FALSE(T.allInEpoch(Roots[0].Taint, 0));
  EXPECT_TRUE(T.allInEpoch(Roots[2].Taint, 0));
  // Tables keep working after compaction, dedup included: E3 is the
  // latest surviving event, so a repeat of it reuses its ordinal.
  TaintId E3Again = T.single(E3);
  EXPECT_EQ(T.numEvents(), 3u);
  EXPECT_EQ(T.merge(Roots[0].Taint, E3Again), Roots[0].Taint);
}

TEST(TaintTable, CompactionInvalidatesMemo) {
  TaintTable T;
  InputEvent E1 = event(0, 1, 0, 1), E2 = event(0, 2, 0, 2),
             E3 = event(0, 3, 0, 3);
  TaintId X = T.single(E1), Y = T.single(E2), Z = T.single(E3);
  TaintId XY = T.merge(X, Y); // Memoized as (X, Y).
  ASSERT_EQ(contents(T, XY), (Events{E1, E2}));
  // Renumber so the pair (X, Y) names other sequences: Z takes X's id.
  std::vector<RtValue> Roots{RtValue(0, Z), RtValue(0, Y)};
  T.compact(Roots);
  ASSERT_EQ(Roots[0].Taint, X);
  ASSERT_EQ(Roots[1].Taint, Y);
  EXPECT_EQ(contents(T, T.merge(X, Y)), (Events{E3, E2}));
}

TEST(TaintTable, DeviceLifetimeStaysBounded) {
  // A monitored device runs many activations; NVM keeps a bounded amount
  // of taint live, so the table must not grow with the number of runs.
  // With the oracle armed the table keeps every event and goes through
  // compaction cycles (a compaction shows as a smaller table after the
  // next run); with the formal monitor alone it keeps epochs and never
  // reaches CompactFloor entries.
  for (bool Oracle : {true, false}) {
    for (const char *Name : {"tire", "cem"}) {
      SCOPED_TRACE(std::string(Name) + (Oracle ? " oracle" : " formal"));
      const BenchmarkDef &B = *findBenchmark(Name);
      CompiledBenchmark CB = compileBenchmark(B, ExecModel::Ocelot);
      RunConfig Cfg;
      Cfg.Plan = FailurePlan::energyDriven();
      Cfg.MonitorBitVector = true;
      Cfg.MonitorFormal = true;
      Cfg.Oracle = Oracle;
      Cfg.Sensors = B.scenario(5);
      Cfg.Seed = 5;
      Simulation Sim(CB.Artifact, Cfg);
      ASSERT_EQ(Sim.taints().grain(), Oracle ? TaintTable::Grain::Event
                                             : TaintTable::Grain::Epoch);
      // Linear growth would make the last third's peak 3x the first
      // third's; compaction keeps both at the same doubling ceiling. 3000
      // runs cover several compaction cycles of either benchmark.
      size_t EarlyMax = 0, LateMax = 0, AllMax = 0, Shrinks = 0, Last = 0;
      const int Runs = 3000;
      for (int Run = 0; Run < Runs; ++Run) {
        ASSERT_TRUE(Sim.runOnce().Completed) << "run " << Run;
        size_t Size = Sim.taints().size();
        if (Run < Runs / 3)
          EarlyMax = std::max(EarlyMax, Size);
        else if (Run >= 2 * Runs / 3)
          LateMax = std::max(LateMax, Size);
        AllMax = std::max(AllMax, Size);
        Shrinks += Size < Last;
        Last = Size;
      }
      EXPECT_GT(EarlyMax, 0u);
      EXPECT_LE(LateMax, 2 * EarlyMax);
      if (Oracle)
        EXPECT_GE(Shrinks, 2u) << "expected several compaction cycles";
      else
        EXPECT_LT(AllMax, TaintTable::CompactFloor);
    }
  }
}

} // namespace
