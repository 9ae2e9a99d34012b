//===- MetricsRegistry.h - Named counters and histograms --------*- C++ -*-===//
//
// Part of the Ocelot reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A registry of named monotonic counters and value summaries (count /
/// sum / min / max), with deterministic text and JSON dumps (names are
/// kept sorted). Thread-safe: fleet workers compiling concurrently bump
/// the same registry.
///
/// This is *cold-path* instrumentation — the toolchain, harness, and
/// bench report use it (compile wall-time, peak RSS). The artifact cache
/// keeps its own hit/miss counts (`Toolchain::cacheStats`). The interpreter hot loops never touch it; per-step data goes
/// through `PcProfile` (telemetry/Profile.h) and end-of-run aggregates
/// through `RunResult`.
///
/// `MetricsRegistry::global()` is the process-wide instance that
/// `Toolchain::compile` feeds; scoped consumers (tests)
/// can construct their own.
///
//===----------------------------------------------------------------------===//

#ifndef OCELOT_TELEMETRY_METRICSREGISTRY_H
#define OCELOT_TELEMETRY_METRICSREGISTRY_H

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace ocelot {

class MetricsRegistry {
public:
  struct Summary {
    uint64_t Count = 0;
    double Sum = 0;
    double Min = 0;
    double Max = 0;
  };

  /// The process-wide registry (toolchain compile metrics land here).
  static MetricsRegistry &global();

  /// Adds \p Delta to counter \p Name (creating it at 0).
  void add(const std::string &Name, uint64_t Delta = 1);

  /// Folds \p Value into summary \p Name.
  void observe(const std::string &Name, double Value);

  uint64_t counter(const std::string &Name) const;
  Summary summary(const std::string &Name) const;

  std::vector<std::pair<std::string, uint64_t>> counters() const;
  std::vector<std::pair<std::string, Summary>> summaries() const;

  /// One metric per line: `name value` for counters,
  /// `name count=N sum=S min=M max=X` for summaries. Sorted by name.
  std::string dumpText() const;

  /// `{"counters": {...}, "summaries": {name: {count, sum, min, max}}}`,
  /// sorted by name.
  std::string dumpJson() const;

  void reset();

private:
  mutable std::mutex Mu;
  std::map<std::string, uint64_t> Counters;
  std::map<std::string, Summary> Summaries;
};

/// Peak resident set size of this process in MiB (getrusage ru_maxrss),
/// or 0 where unsupported. Used by the bench report's bounded-memory gate.
double peakRssMb();

} // namespace ocelot

#endif // OCELOT_TELEMETRY_METRICSREGISTRY_H
