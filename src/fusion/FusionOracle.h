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
/// the canonical set of input events (sensor, tau, reboot epoch, value)
/// that flowed into its arguments — the same dynamic taint the formal
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
/// not scored. Because classification is a pure function of the taint
/// sets that both engines already compute identically, oracle verdicts
/// are byte-identical across tree / threaded dispatch and with
/// superinstruction fusion on or off.
///
//===----------------------------------------------------------------------===//

#ifndef OCELOT_FUSION_FUSIONORACLE_H
#define OCELOT_FUSION_FUSIONORACLE_H

#include "runtime/Value.h"

#include <cstdint>
#include <vector>

namespace ocelot {

/// Oracle classification of one committed output.
enum class OracleVerdict : uint8_t {
  Fresh = 0,      ///< All fused inputs collected in the emission epoch.
  Stale = 1,      ///< One epoch, but earlier than the emission epoch.
  CrossEpoch = 2, ///< Fused inputs span two or more reboot epochs.
};

const char *oracleVerdictName(OracleVerdict V);

/// One committed output, scored. `Inputs` is canonical: sorted by
/// (Sensor, Tau, Epoch, Value) and deduplicated, so records compare
/// bitwise across engines regardless of evaluation order.
struct OracleRecord {
  OutputKind Kind = OutputKind::Log;
  uint64_t Tau = 0;   ///< Logical time of emission.
  uint64_t Epoch = 0; ///< Reboot epoch of emission (== commit epoch).
  std::vector<InputEvent> Inputs;
  OracleVerdict Verdict = OracleVerdict::Fresh;

  bool operator==(const OracleRecord &O) const {
    return Kind == O.Kind && Tau == O.Tau && Epoch == O.Epoch &&
           Inputs == O.Inputs && Verdict == O.Verdict;
  }
};

/// Canonicalizes \p Inputs in place (sort + dedup) and classifies them
/// against the emission epoch. The canonical order makes the record
/// independent of argument evaluation order and taint-merge order.
OracleVerdict classifyOracleInputs(std::vector<InputEvent> &Inputs,
                                   uint64_t EmitEpoch);

} // namespace ocelot

#endif // OCELOT_FUSION_FUSIONORACLE_H
