//===- TraceSink.cpp - Structured run tracing ------------------------------===//
//
// Part of the Ocelot reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "telemetry/TraceSink.h"

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <utility>

namespace ocelot {

const char *traceEventKindName(TraceEventKind K) {
  switch (K) {
  case TraceEventKind::Reboot:
    return "reboot";
  case TraceEventKind::Checkpoint:
    return "checkpoint";
  case TraceEventKind::RegionEnter:
    return "region";
  case TraceEventKind::RegionCommit:
    return "region_commit";
  case TraceEventKind::RegionRetry:
    return "region_retry";
  case TraceEventKind::MonitorCheck:
    return "monitor_check";
  case TraceEventKind::Violation:
    return "violation";
  case TraceEventKind::SensorRead:
    return "sensor_read";
  case TraceEventKind::EnergyRecharge:
    return "energy_recharge";
  case TraceEventKind::OracleVerdict:
    return "oracle_verdict";
  case TraceEventKind::CompileStart:
    return "compile";
  case TraceEventKind::CompileEnd:
    return "compile";
  }
  return "?";
}

TraceSink::TraceSink(size_t Capacity) {
  Ring.resize(Capacity ? Capacity : 1);
  WallEpochNs = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint64_t TraceSink::wallMicros() const {
  uint64_t Now = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
  return (Now - WallEpochNs) / 1000;
}

void TraceSink::compileStart(const std::string &Name) {
  push({TraceEventKind::CompileStart, wallMicros(), 0, 0, Name});
}

void TraceSink::compileEnd(const std::string &Name) {
  push({TraceEventKind::CompileEnd, wallMicros(), 0, 0, Name});
}

void TraceSink::push(TraceEvent E) {
  if (Count < Ring.size()) {
    Ring[(Head + Count) % Ring.size()] = std::move(E);
    ++Count;
    return;
  }
  // Full: overwrite the oldest, keep the tail of the run.
  Ring[Head] = std::move(E);
  Head = (Head + 1) % Ring.size();
  ++Dropped;
}

std::vector<TraceEvent> TraceSink::events() const {
  std::vector<TraceEvent> Out;
  Out.reserve(Count);
  for (size_t I = 0; I < Count; ++I)
    Out.push_back(Ring[(Head + I) % Ring.size()]);
  return Out;
}

void TraceSink::clear() {
  Head = Count = Dropped = 0;
}

namespace {

/// Minimal JSON string escaping; event names and details are internal
/// identifiers, but never trust a string into serialized output.
void appendEscaped(std::string &Out, const std::string &S) {
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
}

void appendEvent(std::string &Out, const char *Name, char Ph, uint64_t Ts,
                 int Tid, const std::string &Args, bool &First) {
  if (!First)
    Out += ",\n";
  First = false;
  char Buf[160];
  std::snprintf(Buf, sizeof(Buf),
                "{\"name\":\"%s\",\"ph\":\"%c\",\"ts\":%" PRIu64
                ",\"pid\":1,\"tid\":%d",
                Name, Ph, Ts, Tid);
  Out += Buf;
  if (!Args.empty()) {
    Out += ",\"args\":{";
    Out += Args;
    Out += '}';
  }
  Out += '}';
}

std::string argsI64(const char *K0, int64_t V0, const char *K1 = nullptr,
                    int64_t V1 = 0) {
  char Buf[128];
  if (K1)
    std::snprintf(Buf, sizeof(Buf), "\"%s\":%" PRId64 ",\"%s\":%" PRId64, K0,
                  V0, K1, V1);
  else
    std::snprintf(Buf, sizeof(Buf), "\"%s\":%" PRId64, K0, V0);
  return Buf;
}

} // namespace

std::string TraceSink::exportChromeJson() const {
  // Tracks: tid 0 = the simulated device (ts = τ), tid 1 = toolchain
  // (ts = wall µs).
  constexpr int SimTid = 0, CompileTid = 1;
  std::string Out = "{\"traceEvents\":[\n";
  bool First = true;

  // Metadata names for the two tracks, so Perfetto labels them.
  appendEvent(Out, "thread_name", 'M', 0, SimTid,
              "\"name\":\"simulated device (ts = tau)\"", First);
  appendEvent(Out, "thread_name", 'M', 0, CompileTid,
              "\"name\":\"toolchain (wall clock)\"", First);

  // Region enter/commit/retry become balanced B/E pairs; a region still
  // open when the buffer ends is closed at the final simulated timestamp.
  int OpenRegions = 0;
  uint64_t LastSimTs = 0;
  for (size_t I = 0; I < Count; ++I) {
    const TraceEvent &E = Ring[(Head + I) % Ring.size()];
    const char *Name = traceEventKindName(E.Kind);
    switch (E.Kind) {
    case TraceEventKind::Reboot:
      appendEvent(Out, Name, 'i', E.Ts, SimTid, argsI64("epoch", E.A0), First);
      break;
    case TraceEventKind::Checkpoint:
      appendEvent(Out, Name, 'i', E.Ts, SimTid, argsI64("regs_saved", E.A0),
                  First);
      break;
    case TraceEventKind::RegionEnter:
      appendEvent(Out, Name, 'B', E.Ts, SimTid, argsI64("region", E.A0),
                  First);
      ++OpenRegions;
      break;
    case TraceEventKind::RegionCommit:
      if (OpenRegions > 0) {
        appendEvent(Out, Name, 'E', E.Ts, SimTid,
                    argsI64("region", E.A0, "undo_entries", E.A1), First);
        --OpenRegions;
      }
      break;
    case TraceEventKind::RegionRetry:
      if (OpenRegions > 0) {
        appendEvent(Out, "region", 'E', E.Ts, SimTid, {}, First);
        --OpenRegions;
      }
      appendEvent(Out, Name, 'i', E.Ts, SimTid,
                  argsI64("region", E.A0, "aborts", E.A1), First);
      break;
    case TraceEventKind::MonitorCheck:
      appendEvent(Out, Name, 'i', E.Ts, SimTid,
                  argsI64("site", E.A0, "failed", E.A1), First);
      break;
    case TraceEventKind::Violation: {
      std::string Args = argsI64("site", E.A0, "set", E.A1);
      Args += ",\"kind\":\"";
      appendEscaped(Args, E.Detail);
      Args += '"';
      appendEvent(Out, Name, 'i', E.Ts, SimTid, Args, First);
      break;
    }
    case TraceEventKind::SensorRead:
      appendEvent(Out, Name, 'i', E.Ts, SimTid,
                  argsI64("sensor", E.A0, "value", E.A1), First);
      break;
    case TraceEventKind::EnergyRecharge:
      appendEvent(Out, Name, 'i', E.Ts, SimTid, argsI64("off_cycles", E.A0),
                  First);
      break;
    case TraceEventKind::OracleVerdict: {
      std::string Args = argsI64("code", E.A0, "min_epoch", E.A1);
      Args += ",\"verdict\":\"";
      appendEscaped(Args, E.Detail);
      Args += '"';
      appendEvent(Out, Name, 'i', E.Ts, SimTid, Args, First);
      break;
    }
    case TraceEventKind::CompileStart:
    case TraceEventKind::CompileEnd: {
      std::string Args = "\"name\":\"";
      appendEscaped(Args, E.Detail);
      Args += '"';
      appendEvent(Out, Name,
                  E.Kind == TraceEventKind::CompileStart ? 'B' : 'E', E.Ts,
                  CompileTid, Args, First);
      break;
    }
    }
    if (E.Kind != TraceEventKind::CompileStart &&
        E.Kind != TraceEventKind::CompileEnd && E.Ts > LastSimTs)
      LastSimTs = E.Ts;
  }
  for (; OpenRegions > 0; --OpenRegions)
    appendEvent(Out, "region", 'E', LastSimTs, SimTid, {}, First);

  Out += "\n],\"displayTimeUnit\":\"ns\"";
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), ",\"otherData\":{\"dropped\":%zu}}",
                Dropped);
  Out += Buf;
  Out += '\n';
  return Out;
}

bool TraceSink::writeChromeJson(const std::string &Path,
                                std::string *Error) const {
  std::string Json = exportChromeJson();
  FILE *F = std::fopen(Path.c_str(), "wb");
  if (!F) {
    if (Error)
      *Error = "cannot open " + Path;
    return false;
  }
  bool Ok = std::fwrite(Json.data(), 1, Json.size(), F) == Json.size();
  Ok &= std::fclose(F) == 0;
  if (!Ok && Error)
    *Error = "short write to " + Path;
  return Ok;
}

} // namespace ocelot
