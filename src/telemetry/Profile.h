//===- Profile.h - Per-PC / per-opcode-pair execution profile ---*- C++ -*-===//
//
// Part of the Ocelot reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Execution-frequency counters filled by the threaded engine
/// when `RunConfig::Profile` is set: how many times each image PC
/// executed, and how often each *PC-adjacent* opcode pair (prev at PC,
/// cur at PC+1) ran back to back. The pair histogram is measured over the
/// image's base opcodes — the data the superinstruction pattern table
/// (OCELOT_FUSED_PAIRS in ExecutableImage.h) was chosen from — so
/// `ocelotc --profile` can say which hot pairs the table has a row for
/// and which it misses.
///
/// Cost discipline: one `if (Prof)` test per step in the engines (a
/// never-taken, perfectly predicted branch when profiling is off), and
/// the threaded engine's Hot instantiation excludes profiling entirely —
/// a profiled run takes the non-Hot loop. Profiling never changes
/// simulated results; it only counts.
///
//===----------------------------------------------------------------------===//

#ifndef OCELOT_TELEMETRY_PROFILE_H
#define OCELOT_TELEMETRY_PROFILE_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ocelot {

struct PcProfile {
  /// Executions of each image PC. Sized by prepare().
  std::vector<uint64_t> PcCounts;
  /// Executions of PC-adjacent opcode pair (Prev, Cur) at
  /// [Prev * NumOpcodes + Cur], over base opcodes.
  std::vector<uint64_t> PairCounts;
  uint64_t Steps = 0;
  size_t NumOpcodes = 0;

  /// Sizes the tables for an image of \p NumPcs instructions and an
  /// opcode space of \p NumOps. Idempotent; keeps existing counts when
  /// the sizes already match.
  void prepare(size_t NumPcs, size_t NumOps) {
    if (PcCounts.size() != NumPcs)
      PcCounts.assign(NumPcs, 0);
    if (PairCounts.size() != NumOps * NumOps)
      PairCounts.assign(NumOps * NumOps, 0);
    NumOpcodes = NumOps;
  }

  /// Engine hook: counts one executed step at \p Pc with opcode \p Op;
  /// \p PrevPc / \p PrevOp describe the previously executed step (PrevPc
  /// == ~0u means none, e.g. the first step after a reboot).
  void step(uint32_t Pc, uint16_t Op, uint32_t PrevPc, uint16_t PrevOp) {
    ++Steps;
    if (Pc < PcCounts.size())
      ++PcCounts[Pc];
    if (PrevPc != ~0u && Pc == PrevPc + 1) {
      size_t Idx = static_cast<size_t>(PrevOp) * NumOpcodes + Op;
      if (Idx < PairCounts.size())
        ++PairCounts[Idx];
    }
  }

  void merge(const PcProfile &O) {
    if (PcCounts.size() < O.PcCounts.size())
      PcCounts.resize(O.PcCounts.size(), 0);
    for (size_t I = 0; I < O.PcCounts.size(); ++I)
      PcCounts[I] += O.PcCounts[I];
    if (PairCounts.size() < O.PairCounts.size()) {
      PairCounts.resize(O.PairCounts.size(), 0);
      NumOpcodes = O.NumOpcodes;
    }
    for (size_t I = 0; I < O.PairCounts.size(); ++I)
      PairCounts[I] += O.PairCounts[I];
    Steps += O.Steps;
  }
};

} // namespace ocelot

#endif // OCELOT_TELEMETRY_PROFILE_H
