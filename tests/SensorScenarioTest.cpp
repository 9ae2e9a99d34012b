//===- SensorScenarioTest.cpp - The trace-driven sensor subsystem ----------------===//
//
// Part of the Ocelot reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Contract tests for src/sensors/: channel purity and cross-thread
/// determinism (what lets one scenario back N concurrent simulations),
/// the composition adaptors, SensorTrace CSV round-trips (including the
/// fixtures shipped under bench/traces/), the registry/resolver error
/// paths, and — critically — bit-compatibility of the synthetic channels
/// and the default scenario with the pre-subsystem `Environment::sample`
/// math (kept verbatim in the `legacy` namespace below; the shim itself
/// is gone), which is what keeps the default tables (table2a/2b, fig8)
/// byte-identical across the redesign.
///
//===----------------------------------------------------------------------===//

#include "ocelot/Toolchain.h"
#include "runtime/Simulation.h"
#include "sensors/SensorChannel.h"
#include "sensors/SensorScenario.h"
#include "sensors/SensorScenarios.h"
#include "sensors/SensorTrace.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

using namespace ocelot;

namespace {

// -- Legacy bit-compatibility ----------------------------------------------------

/// The pre-subsystem sensor math, verbatim (signal sample switch, the
/// setSignal gap filler, and the unconfigured per-id noise default). The
/// new channels and the default scenario must reproduce this sequence
/// exactly for any configuration.
namespace legacy {

uint64_t mix(uint64_t X) {
  X += 0x9e3779b97f4a7c15ULL;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ULL;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebULL;
  return X ^ (X >> 31);
}

struct Signal {
  SensorSignal::Kind K = SensorSignal::Kind::Constant;
  int64_t Base = 0;
  int64_t Amplitude = 0;
  int64_t Slope = 0;
  uint64_t Interval = 1000;
  uint64_t StepTau = 0;
  uint64_t Seed = 1;

  int64_t sample(uint64_t Tau) const {
    switch (K) {
    case SensorSignal::Kind::Constant:
      return Base;
    case SensorSignal::Kind::Step:
      return Tau >= StepTau ? Base + Amplitude : Base;
    case SensorSignal::Kind::Ramp:
      return Base + Slope * static_cast<int64_t>(Tau / Interval);
    case SensorSignal::Kind::Square:
      return ((Tau / Interval) & 1) ? Base + Amplitude : Base;
    case SensorSignal::Kind::Noise: {
      if (Amplitude <= 0)
        return Base;
      uint64_t Bucket = Tau / Interval;
      uint64_t R = mix(Seed * 0x100000001b3ULL + Bucket);
      return Base +
             static_cast<int64_t>(R % static_cast<uint64_t>(Amplitude + 1));
    }
    }
    return Base;
  }
};

Signal fromSpec(const SensorSignal &S) {
  Signal L;
  L.K = S.K;
  L.Base = S.Base;
  L.Amplitude = S.Amplitude;
  L.Slope = S.Slope;
  L.Interval = S.Interval;
  L.StepTau = S.StepTau;
  L.Seed = S.Seed;
  return L;
}

/// The old Environment::sample for an id never configured.
int64_t unconfiguredSample(int Id, uint64_t Tau) {
  Signal Default;
  Default.K = SensorSignal::Kind::Noise;
  Default.Base = 0;
  Default.Amplitude = 100;
  Default.Interval = 500;
  Default.Seed = 0x51ed2701 + static_cast<uint64_t>(Id) * 1315423911ULL;
  return Default.sample(Tau);
}

} // namespace legacy

TEST(SensorChannelCompat, FiveShapesMatchLegacySampleBitForBit) {
  const SensorSignal Specs[] = {
      SensorSignal::constant(-42),
      SensorSignal::step(10, 5, 1000),
      SensorSignal::ramp(100, -3, 10),
      SensorSignal::square(1, 9, 50),
      SensorSignal::noise(-60, 120, 200, 0xfeedULL * 0x9e3779b9ULL + 1),
  };
  for (const SensorSignal &S : Specs) {
    legacy::Signal Old = legacy::fromSpec(S);
    SensorChannelPtr New = signalChannel(S);
    for (uint64_t Tau = 0; Tau < 50'000; Tau += 7)
      ASSERT_EQ(New->sample(Tau), Old.sample(Tau))
          << "kind " << static_cast<int>(S.K) << " tau " << Tau;
  }
}

TEST(SensorChannelCompat, DefaultScenarioMatchesLegacyUnconfiguredSample) {
  std::shared_ptr<const SensorScenario> Sc = defaultSensorScenario();
  for (int Id = 0; Id < 8; ++Id)
    for (uint64_t Tau = 0; Tau < 20'000; Tau += 13)
      ASSERT_EQ(Sc->sample(Id, Tau), legacy::unconfiguredSample(Id, Tau))
          << "id " << Id << " tau " << Tau;
  EXPECT_EQ(Sc->sample(-1, 123), 0) << "negative ids read 0";
}

TEST(SensorChannelCompat, BuilderFillsConfigurationGapsWithTheDefault) {
  // Configurations with gaps (ids skipped between configured ones) must
  // serve the unconfigured noise default for the gap ids — the behavior
  // callers of the removed Environment shim relied on when migrating to
  // SensorScenario::Builder.
  std::shared_ptr<const SensorScenario> Sc =
      SensorScenario::Builder()
          .channel(0, signalChannel(SensorSignal::noise(350, 150, 350, 99)))
          .channel(2, signalChannel(SensorSignal::ramp(-40, 2, 150)))
          .build();
  for (int Id : {1, 3, 4}) // Gap at 1; 3 and 4 past the configured range.
    for (uint64_t Tau = 0; Tau < 20'000; Tau += 17)
      ASSERT_EQ(Sc->sample(Id, Tau), legacy::unconfiguredSample(Id, Tau))
          << "id " << Id << " tau " << Tau;
}

// -- Division-by-zero regression (satellite) -------------------------------------

TEST(SensorSignalClamp, ZeroIntervalFromAggregateAssignmentIsClamped) {
  // The factories clamp Interval >= 1, but plain field assignment
  // bypasses them; sample() must clamp at the use site instead of
  // dividing by zero (UB). A zero Interval behaves exactly like 1.
  for (SensorSignal::Kind K :
       {SensorSignal::Kind::Ramp, SensorSignal::Kind::Square,
        SensorSignal::Kind::Noise}) {
    SensorSignal Zero;
    Zero.K = K;
    Zero.Base = 7;
    Zero.Amplitude = 30;
    Zero.Slope = 2;
    Zero.Seed = 5;
    Zero.Interval = 0;
    SensorSignal One = Zero;
    One.Interval = 1;
    for (uint64_t Tau = 0; Tau < 1000; ++Tau)
      ASSERT_EQ(Zero.sample(Tau), One.sample(Tau))
          << "kind " << static_cast<int>(K) << " tau " << Tau;
    // The channel wrapper shares the clamp (both read through sample()).
    EXPECT_EQ(signalChannel(Zero)->sample(123), One.sample(123));
  }
}

// -- Purity and cross-thread determinism -----------------------------------------

TEST(SensorScenario, SamplingIsPureAcrossThreads) {
  // One shared scenario sampled from N threads must agree with a
  // sequential reference everywhere — the property that lets a scenario
  // back concurrent simulations and keeps parallel sweeps bitwise equal
  // to sequential ones.
  std::shared_ptr<const SensorScenario> Sc =
      SensorScenario::Builder()
          .channel(0, jitterChannel(noiseChannel(-60, 120, 200, 42), 3, 7))
          .channel(1, mixChannel(squareChannel(0, 100, 500),
                                 rampChannel(10, 1, 90), 0.25))
          .channel(2, traceChannel([] {
            std::string Error;
            auto T = SensorTrace::Builder()
                         .segment(100, 1.5)
                         .segment(300, -2.0)
                         .build(Error);
            EXPECT_TRUE(T) << Error;
            return T;
          }()))
          .build();

  constexpr uint64_t MaxTau = 20'000;
  std::vector<std::vector<int64_t>> Want(4);
  for (int Id = 0; Id < 4; ++Id)
    for (uint64_t Tau = 0; Tau < MaxTau; Tau += 11)
      Want[static_cast<size_t>(Id)].push_back(Sc->sample(Id, Tau));

  std::vector<int> Mismatches(4, 0);
  {
    std::vector<std::thread> Pool;
    for (int Id = 0; Id < 4; ++Id)
      Pool.emplace_back([&, Id] {
        size_t I = 0;
        for (uint64_t Tau = 0; Tau < MaxTau; Tau += 11, ++I)
          if (Sc->sample(Id, Tau) != Want[static_cast<size_t>(Id)][I])
            ++Mismatches[static_cast<size_t>(Id)];
      });
    for (std::thread &T : Pool)
      T.join();
  }
  EXPECT_EQ(Mismatches, std::vector<int>(4, 0));
}

// -- Composition adaptors --------------------------------------------------------

TEST(SensorChannel, AdaptorsComposeArithmetically) {
  SensorChannelPtr Base = constantChannel(100);
  EXPECT_EQ(offsetChannel(Base, -30)->sample(5), 70);
  EXPECT_EQ(scaleChannel(Base, 2.5)->sample(5), 250);
  EXPECT_EQ(scaleChannel(Base, -0.5)->sample(5), -50);
  EXPECT_EQ(mixChannel(constantChannel(0), constantChannel(100), 0.75)
                ->sample(5),
            25);
  SensorChannelPtr Ramp = rampChannel(0, 1, 10); // tau/10
  EXPECT_EQ(timeShiftChannel(Ramp, 100)->sample(0), Ramp->sample(100));
  EXPECT_EQ(timeShiftChannel(Ramp, 100)->sample(37), Ramp->sample(137));
}

TEST(SensorChannel, JitterIsBoundedPureAndVarying) {
  SensorChannelPtr J = jitterChannel(constantChannel(1000), 5, 99);
  int Nonzero = 0;
  for (uint64_t Tau = 0; Tau < 2000; ++Tau) {
    int64_t V = J->sample(Tau);
    ASSERT_GE(V, 995);
    ASSERT_LE(V, 1005);
    ASSERT_EQ(V, J->sample(Tau)) << "re-reading the same tau";
    if (V != 1000)
      ++Nonzero;
  }
  EXPECT_GT(Nonzero, 1000) << "jitter must actually jitter";
  // Amplitude <= 0 is the identity adaptor.
  SensorChannelPtr Base = constantChannel(7);
  EXPECT_EQ(jitterChannel(Base, 0, 1).get(), Base.get());
}

// -- SensorTrace format ----------------------------------------------------------

TEST(SensorTrace, BuilderValidatesAndReplaysCyclically) {
  std::string Error;
  auto T = SensorTrace::Builder()
               .segment(100, 21.4)
               .segment(300, -3.0)
               .segment(100, 0.0)
               .build(Error);
  ASSERT_TRUE(T) << Error;
  EXPECT_EQ(T->segments().size(), 3u);
  EXPECT_EQ(T->totalDurationTau(), 500u);
  EXPECT_DOUBLE_EQ(T->valueAt(0), 21.4);
  EXPECT_DOUBLE_EQ(T->valueAt(99), 21.4);
  EXPECT_DOUBLE_EQ(T->valueAt(100), -3.0);
  EXPECT_DOUBLE_EQ(T->valueAt(400), 0.0);
  EXPECT_DOUBLE_EQ(T->valueAt(500), 21.4) << "trace repeats cyclically";
  // The channel rounds to the nearest integer.
  SensorChannelPtr C = traceChannel(T);
  EXPECT_EQ(C->sample(0), 21);
  EXPECT_EQ(C->sample(150), -3);
}

TEST(SensorTrace, CsvRoundTripIsIdentityAndAllowsNegatives) {
  std::string Error;
  auto T = SensorTrace::Builder()
               .segment(12000, -17.25)
               .segment(8000, 1.0 / 3.0) // Needs full double round-trip.
               .segment(20000, 0.0)      // All-zero values are fine here.
               .build(Error);
  ASSERT_TRUE(T) << Error;
  std::string Csv = T->toCsv();
  auto U = SensorTrace::parseCsv(Csv, Error);
  ASSERT_TRUE(U) << Error;
  ASSERT_EQ(U->segments().size(), T->segments().size());
  for (size_t I = 0; I < T->segments().size(); ++I) {
    EXPECT_EQ(U->segments()[I].DurationTau, T->segments()[I].DurationTau);
    EXPECT_EQ(U->segments()[I].Value, T->segments()[I].Value)
        << "segment " << I;
  }
  EXPECT_EQ(U->toCsv(), Csv);
  // Unlike power traces, an all-zero series is valid (a dead-calm world).
  EXPECT_TRUE(SensorTrace::parseCsv("100,0\n200,0.0\n", Error)) << Error;
}

TEST(SensorTrace, MalformedInputsAreRejectedWithLineNumbers) {
  std::string Error;
  EXPECT_FALSE(SensorTrace::parseCsv("", Error));
  EXPECT_NE(Error.find("no segments"), std::string::npos) << Error;

  EXPECT_FALSE(SensorTrace::parseCsv("100,0.5\nbogus line\n", Error));
  EXPECT_NE(Error.find("line 2"), std::string::npos) << Error;
  EXPECT_NE(Error.find("duration_tau,value"), std::string::npos) << Error;

  EXPECT_FALSE(SensorTrace::parseCsv("100,0.5\n0,0.2\n", Error));
  EXPECT_NE(Error.find("line 2"), std::string::npos) << Error;
  EXPECT_NE(Error.find("duration"), std::string::npos) << Error;

  EXPECT_FALSE(SensorTrace::parseCsv("100,nan\n", Error));
  EXPECT_NE(Error.find("finite"), std::string::npos) << Error;
  EXPECT_NE(Error.find("sensor value"), std::string::npos) << Error;

  EXPECT_FALSE(SensorTrace::parseCsv("99999999999999999999999,1\n", Error));
  EXPECT_NE(Error.find("exceeds 64 bits"), std::string::npos) << Error;

  EXPECT_FALSE(SensorTrace::parseCsv(
      "18446744073709551615,1\n100,1\n", Error));
  EXPECT_NE(Error.find("overflows"), std::string::npos) << Error;

  EXPECT_FALSE(SensorTrace::loadCsv("/nonexistent/trace.csv", Error));
  EXPECT_NE(Error.find("cannot open sensor trace"), std::string::npos)
      << Error;
}

TEST(SensorTrace, ValuesOutsideInt64AreRejected) {
  // A sample is llround(value), unspecified outside [-2^63, 2^63).
  // 9223372036854775807 parses to the double 2^63, one past INT64_MAX.
  std::string Error;
  for (const char *Bad : {"1e300", "-1e300", "9223372036854775807"}) {
    EXPECT_FALSE(
        SensorTrace::parseCsv("100,0\n100," + std::string(Bad) + "\n", Error))
        << Bad;
    EXPECT_NE(Error.find("line 2: sensor value"), std::string::npos)
        << Error;
    EXPECT_NE(Error.find("int64 range"), std::string::npos) << Error;
  }
  EXPECT_FALSE(SensorTrace::Builder().segment(100, 1e300).build(Error));
  EXPECT_NE(Error.find("segment 0: sensor value"), std::string::npos)
      << Error;
}

TEST(SensorTrace, ExtremeInt64ValuesReadBackExactly) {
  // The extreme values that do fit reach the program unchanged, on both
  // engines.
  Compilation C =
      Toolchain().compile("io s;\nfn main() { let x = s(); log(x); }");
  ASSERT_TRUE(C.ok()) << C.status().str();
  for (int64_t Want : {INT64_MIN, int64_t{-1}}) {
    std::string Error;
    auto T = SensorTrace::parseCsv("100," + std::to_string(Want) + "\n",
                                   Error);
    ASSERT_TRUE(T) << Error;
    for (DispatchEngine E :
         {DispatchEngine::Tree, DispatchEngine::Threaded}) {
      RunConfig Cfg;
      Cfg.Dispatch = E;
      Cfg.RecordTrace = true;
      Cfg.Sensors = traceScenario(T, 1);
      RunResult R = Simulation(C.artifact(), std::move(Cfg)).runOnce();
      ASSERT_TRUE(R.Completed) << R.Trap;
      ASSERT_EQ(R.TraceData.Outputs.size(), 1u);
      EXPECT_EQ(R.TraceData.Outputs[0].Args, std::vector<int64_t>{Want});
    }
  }
}

TEST(SensorTrace, ShippedFixturesLoadAndRoundTrip) {
  // OCELOT_TRACE_DIR points at bench/traces/ (set by tests/CMakeLists.txt).
  const std::string Dir = OCELOT_TRACE_DIR;
  for (const char *Name :
       {"office-temperature.csv", "tire-track-session.csv"}) {
    std::string Error;
    auto T = SensorTrace::loadCsv(Dir + "/" + Name, Error);
    ASSERT_TRUE(T) << Error;
    EXPECT_GT(T->totalDurationTau(), 0u);
    auto U = SensorTrace::parseCsv(T->toCsv(), Error);
    ASSERT_TRUE(U) << Error;
    EXPECT_EQ(U->toCsv(), T->toCsv()) << Name;
  }
}

// -- Trace scenarios -------------------------------------------------------------

TEST(SensorScenario, TraceScenarioStaggersCorrelatedChannels) {
  std::string Error;
  auto T = SensorTrace::Builder()
               .segment(100, 1)
               .segment(100, 2)
               .segment(100, 3)
               .segment(100, 4)
               .build(Error);
  ASSERT_TRUE(T) << Error;
  auto Sc = traceScenario(T, 4); // Period 400, shift 100 per channel.
  for (uint64_t Tau = 0; Tau < 1200; Tau += 7)
    for (int Id = 0; Id < 4; ++Id)
      ASSERT_EQ(Sc->sample(Id, Tau),
                Sc->sample(0, Tau + 100 * static_cast<uint64_t>(Id)))
          << "id " << Id << " tau " << Tau;
  // Ids beyond the staggered set fall back to the noise default.
  EXPECT_EQ(Sc->sample(7, 123), legacy::unconfiguredSample(7, 123));
}

// -- Registry and resolver -------------------------------------------------------

TEST(SensorScenarios, RegistryServesAllBuiltins) {
  auto &Reg = SensorScenarioRegistry::global();
  for (const char *Name : {"legacy-noise", "steady-lab", "office-hvac",
                           "outdoor-diurnal", "quake-bursts"}) {
    EXPECT_TRUE(Reg.contains(Name)) << Name;
    EXPECT_TRUE(Reg.create(Name)) << Name;
    EXPECT_FALSE(Reg.describe(Name).empty()) << Name;
  }
  EXPECT_GE(Reg.names().size(), 5u);
  EXPECT_FALSE(Reg.create("no-such-scenario"));
  EXPECT_EQ(Reg.describe("no-such-scenario"), "");
}

TEST(SensorScenarios, ResolverHandlesPresetsTracesAndErrors) {
  std::string Error;
  EXPECT_TRUE(resolveSensorScenario("quake-bursts", Error));

  EXPECT_FALSE(resolveSensorScenario("definitely-unknown", Error));
  EXPECT_NE(Error.find("unknown sensor scenario"), std::string::npos);
  EXPECT_NE(Error.find("legacy-noise"), std::string::npos)
      << "error must list the valid names: " << Error;

  auto Sc = resolveSensorScenario(std::string(OCELOT_TRACE_DIR) +
                                      "/office-temperature.csv",
                                  Error);
  ASSERT_TRUE(Sc) << Error;
  ASSERT_NE(Sc->channel(0), nullptr);
  EXPECT_STREQ(Sc->channel(0)->name(), "trace");

  EXPECT_FALSE(resolveSensorScenario("missing.csv", Error));
  EXPECT_NE(Error.find("cannot open"), std::string::npos) << Error;
}

TEST(SensorScenarios, PresetsAreDeterministicAcrossInstances) {
  // Two independently created instances of a preset must agree everywhere
  // (factories may not capture mutable state).
  auto &Reg = SensorScenarioRegistry::global();
  for (const std::string &Name : Reg.names()) {
    auto A = Reg.create(Name);
    auto B = Reg.create(Name);
    ASSERT_TRUE(A && B) << Name;
    for (uint64_t Tau = 0; Tau < 10'000; Tau += 97)
      for (int Id = 0; Id < 4; ++Id)
        ASSERT_EQ(A->sample(Id, Tau), B->sample(Id, Tau))
            << Name << " id " << Id << " tau " << Tau;
  }
}

} // namespace
