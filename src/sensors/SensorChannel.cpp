//===- SensorChannel.cpp - Pluggable sensor input channels -----------------------===//
//
// Part of the Ocelot reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "sensors/SensorChannel.h"

#include <cmath>
#include <limits>
#include <utility>

using namespace ocelot;

SensorSignal SensorSignal::constant(int64_t Base) {
  SensorSignal S;
  S.K = Kind::Constant;
  S.Base = Base;
  return S;
}

SensorSignal SensorSignal::step(int64_t Base, int64_t Amplitude,
                                uint64_t StepTau) {
  SensorSignal S;
  S.K = Kind::Step;
  S.Base = Base;
  S.Amplitude = Amplitude;
  S.StepTau = StepTau;
  return S;
}

SensorSignal SensorSignal::ramp(int64_t Base, int64_t Slope,
                                uint64_t Interval) {
  SensorSignal S;
  S.K = Kind::Ramp;
  S.Base = Base;
  S.Slope = Slope;
  S.Interval = Interval ? Interval : 1;
  return S;
}

SensorSignal SensorSignal::square(int64_t Base, int64_t Amplitude,
                                  uint64_t Interval) {
  SensorSignal S;
  S.K = Kind::Square;
  S.Base = Base;
  S.Amplitude = Amplitude;
  S.Interval = Interval ? Interval : 1;
  return S;
}

SensorSignal SensorSignal::noise(int64_t Base, int64_t Amplitude,
                                 uint64_t Interval, uint64_t Seed) {
  SensorSignal S;
  S.K = Kind::Noise;
  S.Base = Base;
  S.Amplitude = Amplitude;
  S.Interval = Interval ? Interval : 1;
  S.Seed = Seed;
  return S;
}

/// A + B, saturated to [INT64_MIN, INT64_MAX].
static int64_t saturatingAdd(int64_t A, int64_t B) {
  constexpr int64_t Max = std::numeric_limits<int64_t>::max();
  constexpr int64_t Min = std::numeric_limits<int64_t>::min();
  if (B > 0 && A > Max - B)
    return Max;
  if (B < 0 && A < Min - B)
    return Min;
  return A + B;
}

/// \p X rounded half away from zero (llround), saturated to
/// [INT64_MIN, INT64_MAX]. NaN, which finite factors and weights can only
/// produce when two terms overflow to opposite infinities, reads as 0.
static int64_t saturatingRound(double X) {
  constexpr double TwoTo63 = 9223372036854775808.0;
  if (std::isnan(X))
    return 0;
  if (X >= TwoTo63)
    return std::numeric_limits<int64_t>::max();
  if (X < -TwoTo63)
    return std::numeric_limits<int64_t>::min();
  return std::llround(X);
}

/// Stateless 64-bit mix (splitmix64 finalizer) so Noise signals and the
/// jitter adaptor are pure functions of (seed, bucket).
static uint64_t mix(uint64_t X) {
  X += 0x9e3779b97f4a7c15ULL;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ULL;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebULL;
  return X ^ (X >> 31);
}

int64_t SensorSignal::sample(uint64_t Tau) const {
  // The factories clamp Interval to >= 1, but aggregate field assignment
  // bypasses them — re-clamp here so a zero Interval degrades to 1 instead
  // of dividing by zero (UB).
  const uint64_t Iv = Interval ? Interval : 1;
  switch (K) {
  case Kind::Constant:
    return Base;
  case Kind::Step:
    return Tau >= StepTau ? Base + Amplitude : Base;
  case Kind::Ramp:
    return Base + Slope * static_cast<int64_t>(Tau / Iv);
  case Kind::Square:
    return ((Tau / Iv) & 1) ? Base + Amplitude : Base;
  case Kind::Noise: {
    if (Amplitude <= 0)
      return Base;
    uint64_t Bucket = Tau / Iv;
    uint64_t R = mix(Seed * 0x100000001b3ULL + Bucket);
    return Base +
           static_cast<int64_t>(R % static_cast<uint64_t>(Amplitude + 1));
  }
  }
  return Base;
}

namespace {

class SignalChannel final : public SensorChannel {
public:
  explicit SignalChannel(SensorSignal S) : S(S) {}

  const char *name() const override {
    switch (S.K) {
    case SensorSignal::Kind::Constant:
      return "constant";
    case SensorSignal::Kind::Step:
      return "step";
    case SensorSignal::Kind::Ramp:
      return "ramp";
    case SensorSignal::Kind::Square:
      return "square";
    case SensorSignal::Kind::Noise:
      return "noise";
    }
    return "signal";
  }

  int64_t sample(uint64_t Tau) const override { return S.sample(Tau); }

private:
  SensorSignal S;
};

class OffsetChannel final : public SensorChannel {
public:
  OffsetChannel(SensorChannelPtr Inner, int64_t Delta)
      : Inner(std::move(Inner)), Delta(Delta) {}
  const char *name() const override { return "offset"; }
  int64_t sample(uint64_t Tau) const override {
    return saturatingAdd(Inner->sample(Tau), Delta);
  }

private:
  SensorChannelPtr Inner;
  int64_t Delta;
};

class ScaleChannel final : public SensorChannel {
public:
  ScaleChannel(SensorChannelPtr Inner, double Factor)
      : Inner(std::move(Inner)), Factor(Factor) {}
  const char *name() const override { return "scale"; }
  int64_t sample(uint64_t Tau) const override {
    return saturatingRound(static_cast<double>(Inner->sample(Tau)) * Factor);
  }

private:
  SensorChannelPtr Inner;
  double Factor;
};

class MixChannel final : public SensorChannel {
public:
  MixChannel(SensorChannelPtr A, SensorChannelPtr B, double WeightA)
      : A(std::move(A)), B(std::move(B)), WeightA(WeightA) {}
  const char *name() const override { return "mix"; }
  int64_t sample(uint64_t Tau) const override {
    return saturatingRound(WeightA * static_cast<double>(A->sample(Tau)) +
                           (1.0 - WeightA) *
                               static_cast<double>(B->sample(Tau)));
  }

private:
  SensorChannelPtr A, B;
  double WeightA;
};

class JitterChannel final : public SensorChannel {
public:
  JitterChannel(SensorChannelPtr Inner, int64_t Amplitude, uint64_t Seed)
      : Inner(std::move(Inner)), Amplitude(Amplitude), Seed(Seed) {}
  const char *name() const override { return "jitter"; }
  int64_t sample(uint64_t Tau) const override {
    uint64_t R = mix(Seed * 0x100000001b3ULL + Tau);
    const uint64_t Amp = static_cast<uint64_t>(Amplitude);
    // U is in [0, 2 * Amp] (the span fits in uint64 for every positive
    // int64 Amp); shift it to [-Amp, Amp] without leaving int64.
    uint64_t U = R % (2 * Amp + 1);
    int64_t Delta = U >= Amp ? static_cast<int64_t>(U - Amp)
                             : -static_cast<int64_t>(Amp - U);
    return saturatingAdd(Inner->sample(Tau), Delta);
  }

private:
  SensorChannelPtr Inner;
  int64_t Amplitude;
  uint64_t Seed;
};

class DelayChannel final : public SensorChannel {
public:
  DelayChannel(SensorChannelPtr Inner, uint64_t LagTau)
      : Inner(std::move(Inner)), LagTau(LagTau) {}
  const char *name() const override { return "delay"; }
  int64_t sample(uint64_t Tau) const override {
    return Inner->sample(Tau >= LagTau ? Tau - LagTau : 0);
  }

private:
  SensorChannelPtr Inner;
  uint64_t LagTau;
};

class TimeShiftChannel final : public SensorChannel {
public:
  TimeShiftChannel(SensorChannelPtr Inner, uint64_t AheadTau)
      : Inner(std::move(Inner)), AheadTau(AheadTau) {}
  const char *name() const override { return "time-shift"; }
  int64_t sample(uint64_t Tau) const override {
    return Inner->sample(Tau + AheadTau);
  }

private:
  SensorChannelPtr Inner;
  uint64_t AheadTau;
};

} // namespace

SensorChannelPtr ocelot::signalChannel(const SensorSignal &S) {
  return std::make_shared<const SignalChannel>(S);
}

SensorChannelPtr ocelot::constantChannel(int64_t Base) {
  return signalChannel(SensorSignal::constant(Base));
}

SensorChannelPtr ocelot::stepChannel(int64_t Base, int64_t Amplitude,
                                     uint64_t StepTau) {
  return signalChannel(SensorSignal::step(Base, Amplitude, StepTau));
}

SensorChannelPtr ocelot::rampChannel(int64_t Base, int64_t Slope,
                                     uint64_t Interval) {
  return signalChannel(SensorSignal::ramp(Base, Slope, Interval));
}

SensorChannelPtr ocelot::squareChannel(int64_t Base, int64_t Amplitude,
                                       uint64_t Interval) {
  return signalChannel(SensorSignal::square(Base, Amplitude, Interval));
}

SensorChannelPtr ocelot::noiseChannel(int64_t Base, int64_t Amplitude,
                                      uint64_t Interval, uint64_t Seed) {
  return signalChannel(SensorSignal::noise(Base, Amplitude, Interval, Seed));
}

SensorChannelPtr ocelot::offsetChannel(SensorChannelPtr Inner,
                                       int64_t Delta) {
  return std::make_shared<const OffsetChannel>(std::move(Inner), Delta);
}

SensorChannelPtr ocelot::scaleChannel(SensorChannelPtr Inner, double Factor) {
  return std::make_shared<const ScaleChannel>(std::move(Inner), Factor);
}

SensorChannelPtr ocelot::mixChannel(SensorChannelPtr A, SensorChannelPtr B,
                                    double WeightA) {
  return std::make_shared<const MixChannel>(std::move(A), std::move(B),
                                            WeightA);
}

SensorChannelPtr ocelot::jitterChannel(SensorChannelPtr Inner,
                                       int64_t Amplitude, uint64_t Seed) {
  if (Amplitude <= 0)
    return Inner;
  return std::make_shared<const JitterChannel>(std::move(Inner), Amplitude,
                                               Seed);
}

SensorChannelPtr ocelot::timeShiftChannel(SensorChannelPtr Inner,
                                          uint64_t AheadTau) {
  return std::make_shared<const TimeShiftChannel>(std::move(Inner), AheadTau);
}

SensorChannelPtr ocelot::delayChannel(SensorChannelPtr Inner,
                                      uint64_t LagTau) {
  if (LagTau == 0)
    return Inner;
  return std::make_shared<const DelayChannel>(std::move(Inner), LagTau);
}
