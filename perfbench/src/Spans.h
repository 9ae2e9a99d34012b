//===- Spans.h - In-memory spans, Chrome-trace export, self time -*- C++ -*-===//
//
// Part of the Ocelot reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run records one span around each call the benchmark makes
/// into a layer's public entry point: a name, a start and end on the
/// steady clock, the span that caused it, and the recording thread. Spans
/// stay in memory until the run ends, then go to a Chrome-trace JSON file.
/// A layer's self time is its span's duration minus the part of that
/// interval its child spans cover.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since \p Start.
inline double secondsSince(Clock::time_point Start) {
  return std::chrono::duration<double>(Clock::now() - Start).count();
}

struct Span {
  std::string Name;
  int64_t StartNs = 0; ///< Relative to the recorder's origin.
  int64_t EndNs = 0;
  int Parent = -1; ///< Index of the causing span, -1 for a root.
  unsigned Tid = 0;
  /// Work the span covered, in the span's own unit (e.g. interpreter
  /// steps); exported as a trace argument and read by the ladder.
  uint64_t Work = 0;

  double ms() const { return static_cast<double>(EndNs - StartNs) / 1e6; }
};

/// Thread-safe span store. Spans are opened and closed by index, so a
/// child on another thread names its parent explicitly.
class SpanRecorder {
public:
  SpanRecorder() : Origin(Clock::now()) {}

  int open(std::string Name, int Parent, unsigned Tid = 0);
  void close(int Id, uint64_t Work = 0);

  /// Snapshot of every span recorded so far.
  std::vector<Span> spans() const;

  /// Writes the spans as Chrome-trace complete ("X") events.
  bool writeChromeTrace(const std::string &Path, std::string &Error) const;

private:
  int64_t nowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                Origin)
        .count();
  }

  Clock::time_point Origin;
  mutable std::mutex Mu;
  std::vector<Span> Spans;
};

/// RAII span: opens on construction, closes on destruction.
class ScopedSpan {
public:
  ScopedSpan(SpanRecorder &R, std::string Name, int Parent, unsigned Tid = 0)
      : R(R), Id(R.open(std::move(Name), Parent, Tid)) {}
  ~ScopedSpan() { R.close(Id, Work); }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

  int id() const { return Id; }
  uint64_t Work = 0;

private:
  SpanRecorder &R;
  int Id;
};

/// Self time (ms) of every span: duration minus the union of its
/// children's intervals clipped to it. Indexed like \p Spans.
std::vector<double> selfTimesMs(const std::vector<Span> &Spans);

/// Per-name sums of self time (ms) over the spans under each direct child
/// of \p Root (one map per child, in span order). Used to take a median
/// across repetitions, each repetition being one child of \p Root.
std::vector<std::map<std::string, double>>
selfTimeByRepetition(const std::vector<Span> &Spans, int Root);

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
