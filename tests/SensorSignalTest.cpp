//===- SensorSignalTest.cpp - SensorSignal determinism --------------------------===//
//
// Part of the Ocelot reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Determinism tests for SensorSignal::sample over all five signal kinds.
/// Every signal must be a pure function of (configuration, tau): the
/// reproduction's experiments — and the SweepRunner's parallel == sequential
/// guarantee — rest on sensors never carrying hidden state. Noise signals
/// get extra scrutiny at their Interval edges, where the value is re-drawn.
/// (The scenario subsystem built on these signals is covered by
/// SensorScenarioTest, including its bit-compat pin against the
/// pre-subsystem sample math.) The composing channel adaptors must stay
/// in int64 at its edges: they saturate instead of overflowing.
///
//===----------------------------------------------------------------------===//

#include "sensors/SensorChannel.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

using namespace ocelot;

namespace {

/// Two independently constructed copies of the same configuration must
/// agree everywhere, and repeated sampling must never change the answer.
void expectPure(const SensorSignal &A, const SensorSignal &B,
                uint64_t MaxTau) {
  for (uint64_t Tau = 0; Tau <= MaxTau; Tau += 13) {
    int64_t V = A.sample(Tau);
    EXPECT_EQ(V, B.sample(Tau)) << "tau=" << Tau;
    EXPECT_EQ(V, A.sample(Tau)) << "resampling tau=" << Tau;
  }
}

TEST(SensorSignal, ConstantIsPure) {
  expectPure(SensorSignal::constant(-42), SensorSignal::constant(-42),
             100000);
  EXPECT_EQ(SensorSignal::constant(7).sample(0), 7);
  EXPECT_EQ(SensorSignal::constant(7).sample(~0ull), 7);
}

TEST(SensorSignal, StepIsPureAndSwitchesExactlyAtStepTau) {
  SensorSignal S = SensorSignal::step(10, 5, 1000);
  expectPure(S, SensorSignal::step(10, 5, 1000), 5000);
  EXPECT_EQ(S.sample(999), 10);
  EXPECT_EQ(S.sample(1000), 15); // Inclusive edge.
  EXPECT_EQ(S.sample(1001), 15);
}

TEST(SensorSignal, RampIsPureAndQuantizedByInterval) {
  SensorSignal S = SensorSignal::ramp(100, 3, 10);
  expectPure(S, SensorSignal::ramp(100, 3, 10), 5000);
  // Constant within an interval, advancing by Slope across the edge.
  EXPECT_EQ(S.sample(0), 100);
  EXPECT_EQ(S.sample(9), 100);
  EXPECT_EQ(S.sample(10), 103);
  EXPECT_EQ(S.sample(19), 103);
  EXPECT_EQ(S.sample(20), 106);
}

TEST(SensorSignal, SquareIsPureAndTogglesAtIntervalEdges) {
  SensorSignal S = SensorSignal::square(1, 9, 50);
  expectPure(S, SensorSignal::square(1, 9, 50), 5000);
  EXPECT_EQ(S.sample(49), 1);
  EXPECT_EQ(S.sample(50), 10);
  EXPECT_EQ(S.sample(99), 10);
  EXPECT_EQ(S.sample(100), 1);
}

TEST(SensorSignal, NoiseIsPureAcrossInstances) {
  expectPure(SensorSignal::noise(100, 50, 20, 77),
             SensorSignal::noise(100, 50, 20, 77), 10000);
}

TEST(SensorSignal, NoiseRedrawsExactlyAtIntervalEdges) {
  SensorSignal S = SensorSignal::noise(0, 1'000'000, 100, 9);
  int Redraws = 0;
  for (uint64_t Bucket = 0; Bucket < 200; ++Bucket) {
    uint64_t Lo = Bucket * 100;
    // Piecewise-constant inside the bucket, including both edges.
    int64_t V = S.sample(Lo);
    EXPECT_EQ(S.sample(Lo + 1), V);
    EXPECT_EQ(S.sample(Lo + 50), V);
    EXPECT_EQ(S.sample(Lo + 99), V);
    // The re-draw happens at exactly Lo + 100, never before.
    if (S.sample(Lo + 100) != V)
      ++Redraws;
  }
  // With a 1e6 amplitude, two adjacent buckets almost surely differ; if
  // this were ~0 the signal would not vary, if buckets leaked the
  // piecewise checks above would already have failed.
  EXPECT_GT(Redraws, 150);
}

TEST(SensorSignal, NoiseSeedSelectsTheSequence) {
  SensorSignal A = SensorSignal::noise(0, 1000, 10, 1);
  SensorSignal B = SensorSignal::noise(0, 1000, 10, 2);
  int Differ = 0;
  for (uint64_t Bucket = 0; Bucket < 100; ++Bucket)
    if (A.sample(Bucket * 10) != B.sample(Bucket * 10))
      ++Differ;
  EXPECT_GT(Differ, 80) << "different seeds must give different sequences";
}

TEST(SensorSignal, NoiseStaysInRange) {
  SensorSignal S = SensorSignal::noise(-50, 100, 7, 123);
  for (uint64_t Tau = 0; Tau < 5000; ++Tau) {
    int64_t V = S.sample(Tau);
    EXPECT_GE(V, -50);
    EXPECT_LE(V, 50);
  }
}

constexpr int64_t Max = std::numeric_limits<int64_t>::max();
constexpr int64_t Min = std::numeric_limits<int64_t>::min();

TEST(SensorChannelEdges, OffsetSaturates) {
  EXPECT_EQ(offsetChannel(constantChannel(Max), 1)->sample(0), Max);
  EXPECT_EQ(offsetChannel(constantChannel(Max), Max)->sample(0), Max);
  EXPECT_EQ(offsetChannel(constantChannel(Min), -1)->sample(0), Min);
  EXPECT_EQ(offsetChannel(constantChannel(Min), Max)->sample(0), -1);
  EXPECT_EQ(offsetChannel(constantChannel(5), -8)->sample(0), -3);
}

TEST(SensorChannelEdges, ScaleSaturates) {
  EXPECT_EQ(scaleChannel(constantChannel(Min), 2.0)->sample(0), Min);
  EXPECT_EQ(scaleChannel(constantChannel(Max), 2.0)->sample(0), Max);
  EXPECT_EQ(scaleChannel(constantChannel(Min), -1.0)->sample(0), Max);
  // INT64_MAX reads as the double 2^63, one past the range.
  EXPECT_EQ(scaleChannel(constantChannel(Max), 1.0)->sample(0), Max);
  EXPECT_EQ(scaleChannel(constantChannel(Min), 1.0)->sample(0), Min);
  EXPECT_EQ(scaleChannel(constantChannel(Max), 1e300)->sample(0), Max);
  EXPECT_EQ(scaleChannel(constantChannel(7), 1.5)->sample(0), 11);
  EXPECT_EQ(scaleChannel(constantChannel(-7), 1.5)->sample(0), -11);
}

TEST(SensorChannelEdges, MixSaturates) {
  auto Hi = constantChannel(Max), Lo = constantChannel(Min);
  EXPECT_EQ(mixChannel(Hi, Lo, 0.5)->sample(0), 0);
  EXPECT_EQ(mixChannel(Hi, Lo, 1.0)->sample(0), Max);
  EXPECT_EQ(mixChannel(Hi, Lo, 0.0)->sample(0), Min);
  EXPECT_EQ(mixChannel(Hi, Lo, 2.0)->sample(0), Max);
  EXPECT_EQ(mixChannel(Hi, Lo, -1.0)->sample(0), Min);
  // Both terms overflow to opposite infinities: NaN reads as 0.
  EXPECT_EQ(mixChannel(Hi, Hi, 1e300)->sample(0), 0);
  EXPECT_EQ(mixChannel(constantChannel(10), constantChannel(20), 0.25)
                ->sample(0),
            18); // 17.5 rounds away from zero.
}

TEST(SensorChannelEdges, JitterSaturatesAndStaysInItsBand) {
  auto AtMax = jitterChannel(constantChannel(Max), 5, 11);
  auto AtMin = jitterChannel(constantChannel(Min), 5, 11);
  auto Wide = jitterChannel(constantChannel(Max), Max, 11);
  auto WideLow = jitterChannel(constantChannel(Min), Max, 11);
  bool SawMax = false, SawMin = false;
  for (uint64_t Tau = 0; Tau < 2000; ++Tau) {
    int64_t V = AtMax->sample(Tau);
    EXPECT_GE(V, Max - 5) << "tau=" << Tau;
    SawMax |= V == Max;
    int64_t W = AtMin->sample(Tau);
    EXPECT_LE(W, Min + 5) << "tau=" << Tau;
    SawMin |= W == Min;
    EXPECT_GE(Wide->sample(Tau), 0) << "tau=" << Tau;
    EXPECT_LE(WideLow->sample(Tau), -1) << "tau=" << Tau;
    EXPECT_EQ(V, AtMax->sample(Tau)) << "resampling tau=" << Tau;
  }
  EXPECT_TRUE(SawMax) << "positive jitter at INT64_MAX must saturate";
  EXPECT_TRUE(SawMin) << "negative jitter at INT64_MIN must saturate";
  // Away from the edges the band is exact: [-3, 3] around 100.
  auto Mid = jitterChannel(constantChannel(100), 3, 4);
  for (uint64_t Tau = 0; Tau < 500; ++Tau) {
    EXPECT_GE(Mid->sample(Tau), 97);
    EXPECT_LE(Mid->sample(Tau), 103);
  }
}

} // namespace
