//===- TraceSink.h - Structured run tracing (Chrome trace_event) -*- C++ -*-===//
//
// Part of the Ocelot reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A bounded ring of structured run events — reboots, checkpoints, region
/// enter/commit/retry, monitor checks, violations, sensor reads, energy
/// recharges, oracle verdicts, and compile start/end — exportable as
/// Chrome `trace_event` JSON that loads in Perfetto / chrome://tracing.
///
/// Two time bases share one timeline:
///
///  * Simulated events carry τ (logical cycles) as their timestamp, so a
///    trace is a timeline of the *device's* life: the gap between a reboot
///    and the next sensor read is recharge time, not host scheduling.
///    Because τ and every event payload are pure functions of the run's
///    seed and configuration, the exported JSON is byte-stable across
///    repeated runs — tests pin this.
///  * Compile events (the only wall-clock ones) go to a separate track
///    (tid 1) in microseconds since sink creation, so toolchain cost never
///    perturbs the simulated timeline.
///
/// The hard invariant of the whole subsystem: a sink only *observes*. It
/// is attached via `RunConfig::Telemetry`; when that pointer is null the
/// engines take no branches beyond one predictable null test per hook
/// site, and results are bitwise identical either way (TelemetryTest pins
/// this too).
///
/// The ring is bounded (default 64Ki events): when full the oldest event
/// is dropped and `dropped()` counts it, so tracing a pathological run can
/// never exhaust memory — you keep the tail of the story.
///
//===----------------------------------------------------------------------===//

#ifndef OCELOT_TELEMETRY_TRACESINK_H
#define OCELOT_TELEMETRY_TRACESINK_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace ocelot {

/// Event taxonomy. One enumerator per hook site; the exporter maps each to
/// a stable Chrome trace name and argument spelling (see TraceSink.cpp).
enum class TraceEventKind : uint8_t {
  Reboot,        ///< Power failed; device restarts. A0 = reboot epoch.
  Checkpoint,    ///< JIT checkpoint charged at reboot. A0 = registers saved.
  RegionEnter,   ///< Atomic region entered. A0 = region id.
  RegionCommit,  ///< Atomic region committed. A0 = region id, A1 = undo entries.
  RegionRetry,   ///< Power failed inside a region; state restored for
                 ///< re-execution. A0 = region id, A1 = aborts so far.
  MonitorCheck,  ///< A freshness/consistency check ran. A0 = site label,
                 ///< A1 = 0 pass / 1 fail.
  Violation,     ///< Monitor recorded a violation. A0 = site label,
                 ///< A1 = set id (-1 for freshness). Detail = kind name.
  SensorRead,    ///< Input executed. A0 = sensor id, A1 = value read.
  EnergyRecharge,///< Off-time drawn across a reboot. A0 = off cycles.
  OracleVerdict, ///< Fusion oracle scored an output. A0 = verdict code
                 ///< (0 fresh / 1 stale / 2 cross-epoch), A1 = oldest
                 ///< input epoch (-1 when untainted). Detail = verdict name.
  CompileStart,  ///< Toolchain compile began (wall clock). Detail = name.
  CompileEnd,    ///< Toolchain compile finished (wall clock). Detail = name.
};

const char *traceEventKindName(TraceEventKind K);

struct TraceEvent {
  TraceEventKind Kind;
  uint64_t Ts = 0; ///< τ for simulated events; µs since sink creation for
                   ///< compile events.
  int64_t A0 = 0;  ///< Kind-specific (see TraceEventKind comments).
  int64_t A1 = 0;
  std::string Detail; ///< Kind-specific; empty for most events.
};

class TraceSink {
public:
  explicit TraceSink(size_t Capacity = 1 << 16);

  // --- Simulated-time hooks (Ts = τ). Called by the engines/monitor. ----
  void reboot(uint64_t Tau, uint64_t Epoch) {
    push({TraceEventKind::Reboot, Tau, static_cast<int64_t>(Epoch), 0, {}});
  }
  void checkpoint(uint64_t Tau, uint64_t RegsSaved) {
    push({TraceEventKind::Checkpoint, Tau, static_cast<int64_t>(RegsSaved), 0,
          {}});
  }
  void regionEnter(uint64_t Tau, int RegionId) {
    push({TraceEventKind::RegionEnter, Tau, RegionId, 0, {}});
  }
  void regionCommit(uint64_t Tau, int RegionId, uint64_t UndoEntries) {
    push({TraceEventKind::RegionCommit, Tau, RegionId,
          static_cast<int64_t>(UndoEntries), {}});
  }
  void regionRetry(uint64_t Tau, int RegionId, uint64_t AbortsSoFar) {
    push({TraceEventKind::RegionRetry, Tau, RegionId,
          static_cast<int64_t>(AbortsSoFar), {}});
  }
  void monitorCheck(uint64_t Tau, uint32_t SiteLabel, bool Failed) {
    push({TraceEventKind::MonitorCheck, Tau, SiteLabel, Failed ? 1 : 0, {}});
  }
  void violation(uint64_t Tau, uint32_t SiteLabel, int SetId,
                 const char *KindName) {
    push({TraceEventKind::Violation, Tau, SiteLabel, SetId, KindName});
  }
  void sensorRead(uint64_t Tau, int Sensor, int64_t Value) {
    push({TraceEventKind::SensorRead, Tau, Sensor, Value, {}});
  }
  void energyRecharge(uint64_t Tau, uint64_t OffCycles) {
    push({TraceEventKind::EnergyRecharge, Tau,
          static_cast<int64_t>(OffCycles), 0, {}});
  }
  void oracleVerdict(uint64_t Tau, int VerdictCode, int64_t MinEpoch,
                     const char *VerdictName) {
    push({TraceEventKind::OracleVerdict, Tau, VerdictCode, MinEpoch,
          VerdictName});
  }

  // --- Wall-clock hooks (Ts = µs since sink creation, separate track). --
  void compileStart(const std::string &Name);
  void compileEnd(const std::string &Name);

  /// Events currently buffered, oldest first.
  std::vector<TraceEvent> events() const;
  size_t size() const { return Count; }
  size_t dropped() const { return Dropped; }
  void clear();

  /// Serializes the buffered events as Chrome `trace_event` JSON
  /// (`{"traceEvents": [...]}`). Region enter/commit become balanced
  /// "B"/"E" duration pairs (a retry closes the open region; a region
  /// still open at export is closed at the last simulated timestamp);
  /// everything else is an instant or a compile-track duration. The
  /// output is deterministic: it depends only on the buffered events.
  std::string exportChromeJson() const;

  /// exportChromeJson() to \p Path. \returns false and sets \p Error on
  /// I/O failure.
  bool writeChromeJson(const std::string &Path, std::string *Error) const;

private:
  void push(TraceEvent E);
  uint64_t wallMicros() const;

  std::vector<TraceEvent> Ring; ///< Fixed capacity, circular.
  size_t Head = 0;              ///< Index of the oldest event.
  size_t Count = 0;
  size_t Dropped = 0;
  uint64_t WallEpochNs = 0; ///< steady_clock at construction.
};

} // namespace ocelot

#endif // OCELOT_TELEMETRY_TRACESINK_H
