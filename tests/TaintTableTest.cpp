//===- TaintTableTest.cpp - Interned runtime taint ----------------------------===//
//
// Part of the Ocelot reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Unit tests of the TaintTable behind RtValue::Taint: merge order and dedup
// against a plain vector model of the taint-augmented semantics over whole
// input events (the table keeps the model's epochs, and its span verdict
// equals the oracle's rule on the model's events), the merge identities,
// epoch summaries, memo invalidation and root-preserving compaction, and a
// simulated device lifetime whose table stays bounded.
//
//===----------------------------------------------------------------------===//

#include "fusion/FusionOracle.h"
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
using Epochs = std::vector<uint64_t>;

/// The vector semantics the table replaces: A, then B's events not in A.
Events modelMerge(Events A, const Events &B) {
  for (const InputEvent &E : B)
    if (std::find(A.begin(), A.end(), E) == A.end())
      A.push_back(E);
  return A;
}

Epochs contents(const TaintTable &T, TaintId Id) {
  Epochs Out;
  for (size_t I = 0, N = T.length(Id); I < N; ++I)
    Out.push_back(T.at(Id, I));
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

/// The epochs of \p Es in first-appearance order: what the table keeps of
/// the event sequence \p Es.
Epochs epochsOf(const Events &Es) {
  Epochs Out;
  for (const InputEvent &E : Es)
    if (std::find(Out.begin(), Out.end(), E.Epoch) == Out.end())
      Out.push_back(E.Epoch);
  return Out;
}

/// The oracle's verdict rule over whole events: two or more distinct
/// epochs are CrossEpoch; otherwise an epoch older than \p EmitEpoch is
/// Stale; otherwise (no events included) Fresh.
OracleVerdict eventRule(const Events &Es, uint64_t EmitEpoch) {
  if (epochsOf(Es).size() >= 2)
    return OracleVerdict::CrossEpoch;
  for (const InputEvent &E : Es)
    if (E.Epoch < EmitEpoch)
      return OracleVerdict::Stale;
  return OracleVerdict::Fresh;
}

/// Drives \p T with a random script of singles and merges, mirrored on
/// the event-level vector model, and calls \p Check(Id, Model, MaxEpoch)
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
      // Tau and the epoch never run backward; equal-tau inputs (zero-cost
      // steps) can repeat an event exactly, which the model dedups by
      // value.
      Tau += Rng() % 3;
      if (Rng() % 16 == 0)
        ++Epoch;
      InputEvent E = event(static_cast<int>(Rng() % 3), Tau, Epoch,
                           static_cast<int64_t>(Rng() % 2));
      Ids.push_back(T.single(E.Epoch));
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

TEST(TaintTable, MergeKeepsTheEventModelsEpochs) {
  // A sequence is the event model's epochs in first-appearance order,
  // because mapping events to epochs commutes with merge:
  // A ++ (B \ A) maps to ep(A) ++ (ep(B) \ ep(A)). Its span classifies
  // exactly as the oracle's rule on the model's events, for every
  // emission epoch.
  std::mt19937_64 Rng(42);
  for (int Round = 0; Round < 20; ++Round) {
    SCOPED_TRACE("round " + std::to_string(Round));
    TaintTable T;
    runRandomScript(T, Rng, [&](TaintId Id, const Events &Model,
                                uint64_t MaxEpoch) {
      ASSERT_EQ(contents(T, Id), epochsOf(Model));
      expectAllInEpochMatches(T, Id, Model, MaxEpoch);
      for (uint64_t Emit = 0; Emit <= MaxEpoch + 1; ++Emit)
        ASSERT_EQ(classifyOracleInputs(T.span(Id), Emit),
                  eventRule(Model, Emit))
            << "emission epoch " << Emit;
    });
  }
}

TEST(TaintTable, InternsOneSequencePerEpoch) {
  TaintTable T;
  TaintId A = T.single(0);
  EXPECT_EQ(T.single(0), A);
  EXPECT_EQ(T.merge(A, T.single(0)), A);
  TaintId B = T.single(1);
  EXPECT_NE(B, A);
  EXPECT_EQ(T.numEpochs(), 2u);
  TaintId AB = T.merge(A, B);
  EXPECT_EQ(contents(T, AB), (Epochs{0, 1}));
  EXPECT_EQ(T.span(AB), (EpochSpan{0, 1}));
  EXPECT_EQ(T.span(B), (EpochSpan{1, 1}));
  EXPECT_TRUE(T.span(0).empty());
  // Compaction renumbers; a later single of the current epoch reuses the
  // surviving epoch and yields a sequence equal to the root's.
  std::vector<RtValue> Roots{RtValue(0, B)};
  T.compact(Roots);
  EXPECT_EQ(T.numEpochs(), 1u);
  TaintId B2 = T.single(1);
  EXPECT_EQ(T.numEpochs(), 1u);
  EXPECT_EQ(T.merge(Roots[0].Taint, B2), Roots[0].Taint);
  EXPECT_EQ(T.single(1), B2);
}

TEST(TaintTable, MergeIdentitiesAndSubsetReturnExistingIds) {
  TaintTable T;
  TaintId A = T.single(0);
  TaintId B = T.single(1);
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
  // Order is the left operand's, then the right's new epochs.
  TaintId BA = T.merge(B, A);
  EXPECT_NE(BA, AB);
  EXPECT_EQ(contents(T, BA), (Epochs{1, 0}));
  EXPECT_EQ(T.span(BA), T.span(AB));
  EXPECT_EQ(T.length(0), 0u);
}

TEST(TaintTable, AllInEpoch) {
  TaintTable T;
  EXPECT_TRUE(T.allInEpoch(0, 0));
  EXPECT_TRUE(T.allInEpoch(0, 9));
  TaintId A = T.single(3);
  TaintId B = T.single(3);
  TaintId C = T.single(4);
  EXPECT_TRUE(T.allInEpoch(A, 3));
  EXPECT_FALSE(T.allInEpoch(A, 4));
  EXPECT_TRUE(T.allInEpoch(T.merge(A, B), 3));
  TaintId Mixed = T.merge(T.merge(A, B), C);
  EXPECT_FALSE(T.allInEpoch(Mixed, 3));
  EXPECT_FALSE(T.allInEpoch(Mixed, 4));
}

TEST(TaintTable, CompactionKeepsRootsAndDropsUnreachable) {
  TaintTable T;
  TaintId D = T.single(0), A = T.single(1), B = T.single(2),
          C = T.single(3);
  TaintId BA = T.merge(B, A);
  TaintId BAC = T.merge(BA, C);
  (void)T.merge(D, A); // Unreachable after compaction.
  std::vector<RtValue> Roots{RtValue(5, BAC), RtValue(6), RtValue(7, B),
                             RtValue(8, BAC)};
  T.compact(Roots);
  // Empty + {B} + {B,A,C}: D, the singles of A and C, and both
  // intermediate merges are gone, and so is epoch 0.
  EXPECT_EQ(T.size(), 3u);
  EXPECT_EQ(T.numEpochs(), 3u);
  EXPECT_EQ(Roots[1].Taint, 0u);
  EXPECT_EQ(Roots[0].Taint, Roots[3].Taint);
  EXPECT_EQ(Roots[0].V, 5);
  EXPECT_EQ(contents(T, Roots[0].Taint), (Epochs{2, 1, 3}));
  EXPECT_EQ(contents(T, Roots[2].Taint), (Epochs{2}));
  EXPECT_EQ(T.span(Roots[0].Taint), (EpochSpan{1, 3}));
  EXPECT_FALSE(T.allInEpoch(Roots[0].Taint, 2));
  EXPECT_TRUE(T.allInEpoch(Roots[2].Taint, 2));
  // Tables keep working after compaction: epoch 3 is the latest surviving
  // one, so a single of it reuses its ordinal.
  TaintId C2 = T.single(3);
  EXPECT_EQ(T.numEpochs(), 3u);
  EXPECT_EQ(T.merge(Roots[0].Taint, C2), Roots[0].Taint);
}

TEST(TaintTable, CompactionInvalidatesMemo) {
  TaintTable T;
  TaintId X = T.single(0), Y = T.single(1), Z = T.single(2);
  TaintId XY = T.merge(X, Y); // Memoized as (X, Y).
  ASSERT_EQ(contents(T, XY), (Epochs{0, 1}));
  // Renumber so the pair (X, Y) names other sequences: Z takes X's id.
  std::vector<RtValue> Roots{RtValue(0, Z), RtValue(0, Y)};
  T.compact(Roots);
  ASSERT_EQ(Roots[0].Taint, X);
  ASSERT_EQ(Roots[1].Taint, Y);
  EXPECT_EQ(contents(T, T.merge(X, Y)), (Epochs{2, 1}));
}

TEST(TaintTable, DeviceLifetimeStaysBounded) {
  // A monitored device runs many activations; NVM keeps a bounded amount
  // of taint live, so the table must not grow with the number of runs. In
  // every configuration it goes through compaction cycles (a compaction
  // shows as a smaller table after the next run) and never reaches
  // CompactFloor entries.
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
      EXPECT_GE(Shrinks, 2u) << "expected several compaction cycles";
      EXPECT_LT(AllMax, TaintTable::CompactFloor);
    }
  }
}

} // namespace
