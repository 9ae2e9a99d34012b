//===- Simulation.h - One simulated device over an artifact -----*- C++ -*-===//
//
// Part of the Ocelot reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A `Simulation` is one simulated intermittent device executing an
/// immutable `CompiledArtifact`. It owns *all* mutable state of a run —
/// the interpreter's NVM / logical time / energy store / RNG — while
/// sharing read-only inputs: the artifact's program, region metadata and
/// monitor plan, plus the immutable `SensorScenario` and `PowerSource`
/// named by the `RunConfig`. Because none of the shared pieces are
/// written, one artifact (and one scenario) can back any number of
/// Simulations running on different threads at once; two Simulations
/// built from the same (artifact, config) produce bitwise identical results
/// regardless of what else runs concurrently.
///
/// This is the only supported way to execute a compiled program outside
/// `src/runtime/`; constructing an `Interpreter` directly is reserved for
/// the runtime itself.
///
//===----------------------------------------------------------------------===//

#ifndef OCELOT_RUNTIME_SIMULATION_H
#define OCELOT_RUNTIME_SIMULATION_H

#include "ocelot/Toolchain.h"
#include "runtime/Interpreter.h"

#include <memory>
#include <optional>
#include <utility>
#include <vector>

namespace ocelot {

/// One simulated device. Movable, not copyable (a device's NVM history is
/// not a value). Thread-compatible: use one Simulation per thread.
class Simulation {
public:
  /// \p Config is everything that varies per simulated device (sensor
  /// scenario, power source, cost model, failure plan, energy config,
  /// seed, monitor toggles). It is copied in, so one config can be reused
  /// — and tweaked per cell — when fanning one artifact across a sweep.
  Simulation(CompiledArtifact Artifact, RunConfig Config)
      : A(std::move(Artifact)),
        Interp(std::make_unique<Interpreter>(A.program(), std::move(Config),
                                             &A.monitorPlan(), &A.regions(),
                                             A.imagePtr())) {}

  /// Executes one activation of main() to completion (or abort). NVM, tau,
  /// the reboot epoch and the energy store persist across calls, as on a
  /// real device.
  RunResult runOnce() { return Interp->runOnce(); }

  /// Re-initializes NVM from the program's initializers (fresh device).
  void resetNvm() { Interp->resetNvm(); }

  /// Feeds inputs from \p Events instead of the sensor scenario (in
  /// order); used by the refinement replay. Pass std::nullopt to return
  /// to the scenario.
  void setReplayInputs(std::optional<std::vector<InputEvent>> Events) {
    Interp->setReplayInputs(std::move(Events));
  }
  size_t replayRemaining() const { return Interp->replayRemaining(); }

  /// Plain-value NVM snapshot for refinement comparison.
  std::vector<std::vector<int64_t>> nvmSnapshot() const {
    return Interp->nvmSnapshot();
  }

  uint64_t tau() const { return Interp->tau(); }
  uint64_t epoch() const { return Interp->epoch(); }
  const ViolationMonitor &monitor() const { return Interp->monitor(); }

  const CompiledArtifact &artifact() const { return A; }

private:
  CompiledArtifact A; ///< Shared, read-only; keeps the program alive.
  std::unique_ptr<Interpreter> Interp;
};

} // namespace ocelot

#endif // OCELOT_RUNTIME_SIMULATION_H
