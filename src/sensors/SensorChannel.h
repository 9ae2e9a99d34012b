//===- SensorChannel.h - Pluggable sensor input channels --------*- C++ -*-===//
//
// Part of the Ocelot reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The input side of the simulated physical world. The paper is about
/// fresh and consistent *inputs*: a `SensorChannel` is one physical
/// quantity as a pure function of logical time τ, so a value sensed before
/// a long power-off observably differs from the world after reboot, and
/// every experiment is reproducible. Channels are immutable after
/// construction and stateless — all pseudo-randomness is derived by
/// hashing (seed, τ), exactly like `PowerSource`'s Rng-passed randomness —
/// so one channel (and one `SensorScenario` of channels) can back any
/// number of concurrent `Simulation`s.
///
/// Concrete channels:
///  * the five synthetic shapes (`constantChannel` .. `noiseChannel`),
///    preserving the original `SensorSignal` sample math bit-for-bit;
///  * `traceChannel` (SensorTrace.h) — replays a recorded CSV time series;
///  * composition adaptors — `offsetChannel`, `scaleChannel`,
///    `mixChannel`, `jitterChannel` (per-read quantization jitter),
///    `timeShiftChannel` — for building correlated multi-channel worlds
///    out of simpler parts.
///
/// `SensorSignal` survives as the plain-data spec of the synthetic
/// shapes.
///
//===----------------------------------------------------------------------===//

#ifndef OCELOT_SENSORS_SENSORCHANNEL_H
#define OCELOT_SENSORS_SENSORCHANNEL_H

#include <cstdint>
#include <memory>

namespace ocelot {

/// Signal shapes for one synthetic sensor. Plain data: factories clamp
/// `Interval`, but `sample` re-clamps at the use site so aggregate field
/// assignment can never divide by zero.
struct SensorSignal {
  enum class Kind {
    Constant, ///< always Base
    Step,     ///< Base before StepTau, Base + Amplitude after
    Ramp,     ///< Base + Slope * (tau / Interval)
    Square,   ///< alternates Base / Base+Amplitude every Interval
    Noise,    ///< piecewise-constant pseudo-random in [Base, Base+Amplitude],
              ///< re-drawn every Interval (seeded, stateless in tau)
  };

  Kind K = Kind::Constant;
  int64_t Base = 0;
  int64_t Amplitude = 0;
  int64_t Slope = 0;
  uint64_t Interval = 1000;
  uint64_t StepTau = 0;
  uint64_t Seed = 1;

  static SensorSignal constant(int64_t Base);
  static SensorSignal step(int64_t Base, int64_t Amplitude, uint64_t StepTau);
  static SensorSignal ramp(int64_t Base, int64_t Slope, uint64_t Interval);
  static SensorSignal square(int64_t Base, int64_t Amplitude,
                             uint64_t Interval);
  static SensorSignal noise(int64_t Base, int64_t Amplitude,
                            uint64_t Interval, uint64_t Seed);

  int64_t sample(uint64_t Tau) const;
};

/// One sensor as a pure function of logical time. Implementations must be
/// immutable after construction and derive any pseudo-randomness from
/// (configuration, Tau) alone: sampling is thread-safe and repeatable, the
/// two properties the SweepRunner's parallel == sequential guarantee and
/// the tree/threaded engine differentials rest on.
class SensorChannel {
public:
  virtual ~SensorChannel() = default;

  /// Short stable identifier ("constant", "noise", "trace", "mix", ...).
  virtual const char *name() const = 0;

  /// The sensed value at logical time \p Tau.
  virtual int64_t sample(uint64_t Tau) const = 0;
};

using SensorChannelPtr = std::shared_ptr<const SensorChannel>;

/// Wraps any synthetic shape spec as a channel; `sample` matches
/// `SensorSignal::sample` bit-for-bit.
SensorChannelPtr signalChannel(const SensorSignal &S);

/// The five shapes, named. Equivalent to signalChannel(SensorSignal::...).
SensorChannelPtr constantChannel(int64_t Base);
SensorChannelPtr stepChannel(int64_t Base, int64_t Amplitude,
                             uint64_t StepTau);
SensorChannelPtr rampChannel(int64_t Base, int64_t Slope, uint64_t Interval);
SensorChannelPtr squareChannel(int64_t Base, int64_t Amplitude,
                               uint64_t Interval);
SensorChannelPtr noiseChannel(int64_t Base, int64_t Amplitude,
                              uint64_t Interval, uint64_t Seed);

// The four composing adaptors below saturate: a sum or a rounded product
// outside the int64 range reads as INT64_MIN or INT64_MAX. Factors and
// weights must be finite.

/// \p Inner shifted by a constant: sample = Inner + Delta, saturated.
SensorChannelPtr offsetChannel(SensorChannelPtr Inner, int64_t Delta);

/// \p Inner rescaled: sample = llround(Inner * Factor), saturated.
SensorChannelPtr scaleChannel(SensorChannelPtr Inner, double Factor);

/// Weighted blend of two channels:
/// sample = llround(WeightA * A + (1 - WeightA) * B), saturated. The
/// building block for correlated multi-channel scenarios (two sensors
/// sharing a common mode plus private terms).
SensorChannelPtr mixChannel(SensorChannelPtr A, SensorChannelPtr B,
                            double WeightA);

/// Per-read quantization jitter: adds a (seed, Tau)-hashed uniform value
/// in [-Amplitude, +Amplitude] to every sample, saturated — an idealized
/// ADC's LSB noise. Re-reading the same Tau gives the same value (purity),
/// but no two adjacent Taus are correlated. Amplitude <= 0 returns Inner.
SensorChannelPtr jitterChannel(SensorChannelPtr Inner, int64_t Amplitude,
                               uint64_t Seed);

/// \p Inner read \p AheadTau units into the future: sample(Tau) =
/// Inner(Tau + AheadTau). Staggers several reads of one recording into a
/// correlated multi-channel scenario (see traceScenario).
SensorChannelPtr timeShiftChannel(SensorChannelPtr Inner, uint64_t AheadTau);

/// \p Inner observed \p LagTau units late: sample(Tau) =
/// Inner(Tau >= LagTau ? Tau - LagTau : 0). The secondary-trails-primary
/// shape of correlated fusion scenarios (src/fusion/CorrelatedScenarios.h):
/// a slow secondary sensor reports the latent process after a pipeline
/// delay. LagTau == 0 returns Inner.
SensorChannelPtr delayChannel(SensorChannelPtr Inner, uint64_t LagTau);

} // namespace ocelot

#endif // OCELOT_SENSORS_SENSORCHANNEL_H
