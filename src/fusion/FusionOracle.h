//===- FusionOracle.h - Input-epoch consistency ground truth ----*- C++ -*-===//
//
// Part of the Ocelot reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The input-epoch consistency oracle: ground truth about cross-channel
/// input fusion, independent of any ExecModel's enforcement machinery.
///
/// When `RunConfig::Oracle` is set, every committed output is tagged with
/// the epoch span (oldest and newest reboot epoch) of the inputs that
/// flowed into its arguments — read off the same dynamic taint the formal
/// monitors consume — and classified:
///
///   * CrossEpoch — the fused inputs span two or more reboot epochs: a
///     power failure separated the reads that were combined into one
///     observable output. This is the paper's temporal-consistency hazard
///     (Definition 3) measured at the *output*, where it matters, rather
///     than at an annotation site.
///   * Stale      — all inputs share one epoch, but it is an earlier epoch
///     than the one the output was emitted in: the value crossed a power
///     failure between collection and emission (Definition 2's freshness
///     hazard, again measured at the output).
///   * Fresh      — every input was collected in the emission epoch (or
///     the output depends on no inputs at all).
///
/// The oracle sees *committed* outputs only: work rolled back by an
/// aborted atomic region never produced an observable output, so it is
/// not scored. A span is a min/max fold, so it does not depend on argument
/// evaluation or taint-merge order, and classification is a pure function
/// of (span, emission epoch): oracle records are byte-identical across
/// tree / threaded dispatch and with superinstruction fusion on or off.
///
//===----------------------------------------------------------------------===//

#ifndef OCELOT_FUSION_FUSIONORACLE_H
#define OCELOT_FUSION_FUSIONORACLE_H

#include "runtime/Value.h"

#include <cstdint>

namespace ocelot {

/// Oracle classification of one committed output.
enum class OracleVerdict : uint8_t {
  Fresh = 0,      ///< All fused inputs collected in the emission epoch.
  Stale = 1,      ///< One epoch, but earlier than the emission epoch.
  CrossEpoch = 2, ///< Fused inputs span two or more reboot epochs.
};

const char *oracleVerdictName(OracleVerdict V);

/// One committed output, scored.
struct OracleRecord {
  OutputKind Kind = OutputKind::Log;
  uint64_t Tau = 0;   ///< Logical time of emission.
  uint64_t Epoch = 0; ///< Reboot epoch of emission (== commit epoch).
  /// Oldest and newest epoch of the fused inputs; empty when untainted.
  EpochSpan Inputs;
  OracleVerdict Verdict = OracleVerdict::Fresh;

  bool operator==(const OracleRecord &) const = default;
};

/// Classifies an output whose inputs span \p Inputs, emitted in
/// \p EmitEpoch: CrossEpoch iff the span covers two epochs, Stale iff its
/// one epoch is older than \p EmitEpoch, Fresh otherwise (an empty span
/// included).
OracleVerdict classifyOracleInputs(EpochSpan Inputs, uint64_t EmitEpoch);

} // namespace ocelot

#endif // OCELOT_FUSION_FUSIONORACLE_H
