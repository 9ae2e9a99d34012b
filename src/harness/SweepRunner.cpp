//===- SweepRunner.cpp - Parallel evaluation-grid driver --------------------------===//
//
// Part of the Ocelot reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "harness/SweepRunner.h"
#include "support/ParseNumber.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <optional>
#include <stop_token>
#include <thread>
#include <vector>

using namespace ocelot;

namespace {

/// Runs copies of \p Body on \p Threads threads and returns once all are
/// done; with one it runs inline, so a single-worker sweep really is the
/// sequential path.
template <typename Fn> void runOnThreads(size_t Threads, Fn Body) {
  if (Threads <= 1) {
    Body();
    return;
  }
  std::vector<std::jthread> Pool; // Joins every thread on scope exit.
  Pool.reserve(Threads);
  for (size_t T = 0; T < Threads; ++T)
    Pool.emplace_back(Body);
}

/// Evaluates flat cell \p I of \p Spec against \p CB, the cell's compiled
/// (model, benchmark) pair: the one place a SweepSpec cell becomes a
/// measureIntermittent call, so every caller honours every spec field.
SweepCellResult evaluateCell(const SweepSpec &Spec, size_t I,
                             const CompiledBenchmark &CB) {
  SweepCellResult R;
  SweepSpec::CellCoords C = Spec.cellAt(I);
  R.Model = C.Model;
  R.Bench = C.Bench;
  R.Energy = C.Energy;
  R.Power = C.Power;
  R.Scenario = C.Scenario;
  R.Seed = C.Seed;
  R.Metrics = measureIntermittent(
      CB, *Spec.Benchmarks[C.Bench],
      {.Energy = Spec.Energies[C.Energy],
       .TauBudget = Spec.TauBudget,
       .Seed = Spec.Seeds[C.Seed],
       .Monitors = Spec.Monitors,
       .Power = Spec.Powers.empty() ? nullptr : Spec.Powers[C.Power],
       .Sensors =
           Spec.Scenarios.empty() ? nullptr : Spec.Scenarios[C.Scenario],
       .Oracle = Spec.Oracle});
  return R;
}

} // namespace

bool ocelot::parseWorkersFlag(const char *Value, unsigned &Workers) {
  unsigned V = 0;
  if (!parseUnsigned(Value, V) || V < 1) {
    std::fprintf(stderr, "error: bad worker count '%s' (want >= 1)\n", Value);
    return false;
  }
  Workers = V;
  return true;
}

void ocelot::printSweepTiming(size_t Cells, unsigned Workers,
                              double Seconds) {
  std::fprintf(stderr, "[sweep: %zu cells on %u worker(s) in %.2fs]\n",
               Cells, Workers, Seconds);
}

SweepRunner::SweepRunner(unsigned Workers) : Workers(Workers) {
  if (this->Workers == 0) {
    unsigned HW = std::thread::hardware_concurrency();
    this->Workers = HW ? HW : 1;
  }
}

bool ocelot::evaluateCells(const SweepSpec &Spec, size_t Begin, size_t End,
                           unsigned Workers, const CellEmit &Emit) {
  if (Begin >= End)
    return true;
  if (Spec.TauBudget == 0) {
    // A zero budget would "succeed" with all-zero metrics in every cell —
    // reject the spec loudly instead (harness style: misuse aborts).
    std::fprintf(stderr, "evaluateCells: SweepSpec::TauBudget is 0; every "
                         "cell would complete zero runs\n");
    std::abort();
  }

  // Compile each (model, benchmark) pair of the range exactly once; a
  // contiguous cell range touches a contiguous pair range. The artifacts
  // are immutable, so every cell that shares a pair shares the compilation.
  const size_t NB = Spec.Benchmarks.size();
  const size_t PairBase = Spec.pairOf(Begin);
  std::vector<CompiledBenchmark> Artifacts(Spec.pairOf(End - 1) - PairBase +
                                           1);
  {
    std::atomic<size_t> Next{0};
    runOnThreads(std::min<size_t>(Workers, Artifacts.size()), [&] {
      for (size_t P = Next++; P < Artifacts.size(); P = Next++)
        Artifacts[P] = compileBenchmark(*Spec.Benchmarks[(PairBase + P) % NB],
                                        Spec.Models[(PairBase + P) / NB]);
    });
  }
  auto Evaluate = [&](size_t I) {
    return evaluateCell(Spec, I, Artifacts[Spec.pairOf(I) - PairBase]);
  };

  const size_t Threads = std::min<size_t>(Workers, End - Begin);
  if (Threads <= 1) {
    for (size_t I = Begin; I < End; ++I)
      if (!Emit(I, Evaluate(I)))
        return false;
    return true;
  }

  // Bounded reorder window: workers claim cells atomically and park each
  // result in its ring slot; this thread emits them in order. A worker
  // waits while its cell is `Window` or more past the next one to emit, so
  // memory stays O(workers), not O(range). Each cell is seeded purely from
  // the spec, so the emitted results do not depend on scheduling.
  const size_t Window = std::max<size_t>(4 * static_cast<size_t>(Workers), 16);
  std::mutex Mu; // Guards Slots and NextEmit.
  std::vector<std::optional<SweepCellResult>> Slots(Window);
  size_t NextEmit = Begin;
  std::condition_variable_any RoomCv;
  std::condition_variable ReadyCv;
  std::atomic<size_t> NextClaim{Begin};

  auto Worker = [&](std::stop_token Stop) {
    for (size_t I = NextClaim++; I < End; I = NextClaim++) {
      {
        std::unique_lock<std::mutex> Lk(Mu);
        RoomCv.wait(Lk, Stop, [&] { return I < NextEmit + Window; });
        if (Stop.stop_requested())
          return;
      }
      SweepCellResult R = Evaluate(I);
      std::lock_guard<std::mutex> Lk(Mu);
      Slots[I % Window] = std::move(R);
      ReadyCv.notify_one();
    }
  };
  // Declared after everything the workers use: destroying a jthread asks
  // it to stop and joins it, so every way out of this function, an
  // exception from Emit included, joins the workers first.
  std::vector<std::jthread> Pool;
  Pool.reserve(Threads);
  for (size_t T = 0; T < Threads; ++T)
    Pool.emplace_back(Worker);

  for (size_t I = Begin; I < End; ++I) {
    SweepCellResult R;
    {
      std::unique_lock<std::mutex> Lk(Mu);
      std::optional<SweepCellResult> &Slot = Slots[I % Window];
      ReadyCv.wait(Lk, [&] { return Slot.has_value(); });
      R = std::move(*Slot);
      Slot.reset();
      NextEmit = I + 1;
    }
    RoomCv.notify_all();
    if (!Emit(I, std::move(R))) {
      for (std::jthread &Th : Pool)
        Th.request_stop();
      return false;
    }
  }
  return true;
}

std::vector<SweepCellResult> SweepRunner::run(const SweepSpec &Spec) const {
  std::vector<SweepCellResult> Results(Spec.cellCount());
  evaluateCells(Spec, 0, Results.size(), Workers,
                [&](size_t I, SweepCellResult &&R) {
                  Results[I] = std::move(R);
                  return true;
                });
  return Results;
}
