//===- CostModel.h - Simulated cycle costs per operation class --*- C++ -*-===//
//
// Part of the Ocelot reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#ifndef OCELOT_RUNTIME_COSTMODEL_H
#define OCELOT_RUNTIME_COSTMODEL_H

#include "ir/Instruction.h"

#include <cstdint>

namespace ocelot {

/// Cycle costs per operation class. Values are abstract cycles; the
/// evaluation reports ratios, which depend only on relative magnitudes
/// (sensor reads and radio/UART output are expensive relative to ALU work,
/// checkpoints scale with saved state — as on the paper's MSP430 target).
struct CostModel {
  uint64_t Default = 1;
  uint64_t InputCost = 80;
  uint64_t OutputCost = 200;
  uint64_t CallCost = 2;
  uint64_t CheckpointBase = 120;
  uint64_t CheckpointPerReg = 1;
  uint64_t RestoreBase = 60;
  uint64_t RestorePerReg = 1;
  uint64_t AtomicStartCost = 10;
  /// Entering an (outermost) atomic region checkpoints the volatile
  /// execution context like a JIT checkpoint does (§6.3). Charged per
  /// active stack frame: virtual-register counts are inflated by loop
  /// unrolling, while a real MSP430 frame is a handful of words.
  uint64_t RegionEntryPerFrame = 8;
  uint64_t AtomicOmegaPerCell = 2; ///< Static-omega backup per cell.
  uint64_t UndoLogEntryCost = 3;
  uint64_t AtomicCommitCost = 6;

  /// Per-instruction cost depends only on the opcode, which is what lets
  /// the ExecutableImage fold this switch into a PC-indexed table.
  constexpr uint64_t costOfOp(Opcode Op) const {
    switch (Op) {
    case Opcode::Input:
      return InputCost;
    case Opcode::Output:
      return OutputCost;
    case Opcode::Call:
    case Opcode::Ret:
      return CallCost;
    case Opcode::AtomicStart:
      return AtomicStartCost;
    case Opcode::AtomicEnd:
      return AtomicCommitCost;
    case Opcode::Fresh:
    case Opcode::Consistent:
    case Opcode::Nop:
      return 0; // Annotation markers are erased in real builds (§6.1).
    default:
      return Default;
    }
  }
  constexpr uint64_t costOf(const Instruction &I) const {
    return costOfOp(I.Op);
  }
};

/// The one cost model both engines charge. The tree engine calls costOf
/// per step, an independent reference for the threaded engine's folded
/// table (ExecutableImage::costs).
inline constexpr CostModel MachineCosts{};

} // namespace ocelot

#endif // OCELOT_RUNTIME_COSTMODEL_H
