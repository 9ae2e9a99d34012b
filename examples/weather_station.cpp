//===- weather_station.cpp - The paper's Fig. 2 scenario ---------------------------===//
//
// Part of the Ocelot reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The motivating example (Fig. 2): a weather station reads a thermometer
/// (alarm on heat), then logs a pressure/humidity pair that may indicate a
/// storm. Under JIT checkpointing, a power failure between the readings
/// logs a (fair-weather pressure, storm humidity) pair no continuous
/// execution could produce, and heat alarms are missed; under Ocelot both
/// hazards disappear. This example runs both builds side by side and counts
/// the divergences.
///
//===----------------------------------------------------------------------===//

#include "ocelot/Toolchain.h"
#include "runtime/Simulation.h"

#include <cstdio>

using namespace ocelot;

namespace {

const char *WeatherSrc = R"(
io tmp, pres, hum;

static alarms = 0;
static logs = 0;

fn main() {
  let x = tmp();
  Fresh(x);
  if x > 25 {
    alarm();
  }
  let y = pres();
  Consistent(y, 1);
  let z = hum();
  Consistent(z, 1);
  log(y, z);
  logs += 1;
}
)";

} // namespace

int main() {
  Toolchain TC;
  CompileOptions Opts;

  Opts.Model = ExecModel::JitOnly;
  Compilation Jit = TC.compile(WeatherSrc, Opts);
  Opts.Model = ExecModel::Ocelot;
  Compilation Oce = TC.compile(WeatherSrc, Opts);
  if (!Jit.ok() || !Oce.ok()) {
    std::fprintf(stderr, "%s%s", Jit.status().str().c_str(),
                 Oce.status().str().c_str());
    return 1;
  }

  auto RunCampaign = [](const CompiledArtifact &A, const char *Name) {
    RunConfig Cfg;
    // A front is passing: temperature falls, pressure drops, humidity
    // climbs — piecewise-random channels over logical time.
    Cfg.Sensors =
        SensorScenario::Builder()
            .channel(0, noiseChannel(15, 25, 3000, 101))  // tmp
            .channel(1, noiseChannel(950, 80, 5000, 202)) // pres
            .channel(2, noiseChannel(40, 55, 4000, 303))  // hum
            .build();
    Cfg.Plan = FailurePlan::energyDriven();
    Cfg.MonitorBitVector = true;
    Cfg.MonitorFormal = true;
    Simulation Sim(A, std::move(Cfg));
    int StaleAlarmRuns = 0, SplitPairRuns = 0, Runs = 600;
    uint64_t Reboots = 0;
    for (int Run = 0; Run < Runs; ++Run) {
      RunResult Res = Sim.runOnce();
      if (!Res.Completed) {
        std::fprintf(stderr, "%s run failed: %s\n", Name, Res.Trap.c_str());
        std::abort();
      }
      Reboots += Res.Reboots;
      if (Res.ViolatedFresh)
        ++StaleAlarmRuns;
      if (Res.ViolatedConsistent)
        ++SplitPairRuns;
    }
    std::printf("%-8s %4d runs, %5llu reboots | stale alarm decisions: %3d "
                "| split pressure/humidity pairs: %3d\n",
                Name, Runs, static_cast<unsigned long long>(Reboots),
                StaleAlarmRuns, SplitPairRuns);
  };

  std::printf("== Weather station (paper Fig. 2) on intermittent power "
              "==\n\n");
  RunCampaign(Jit.artifact(), "JIT");
  RunCampaign(Oce.artifact(), "Ocelot");
  std::printf("\nJIT resumes mid-program after charging delays: it raises "
              "alarms on old\ntemperatures and logs pressure/humidity pairs "
              "sampled through a power failure.\nOcelot's inferred regions "
              "re-collect inputs, matching a continuous execution.\n");
  return 0;
}
