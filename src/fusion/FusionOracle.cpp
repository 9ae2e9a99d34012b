//===- FusionOracle.cpp - Input-epoch consistency ground truth ------------===//
//
// Part of the Ocelot reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "fusion/FusionOracle.h"

using namespace ocelot;

const char *ocelot::oracleVerdictName(OracleVerdict V) {
  switch (V) {
  case OracleVerdict::Fresh:
    return "fresh";
  case OracleVerdict::Stale:
    return "stale";
  case OracleVerdict::CrossEpoch:
    return "cross-epoch";
  }
  return "?";
}

OracleVerdict ocelot::classifyOracleInputs(EpochSpan Inputs,
                                           uint64_t EmitEpoch) {
  // The empty span has min() > max(), so it falls through both tests.
  if (Inputs.min() < Inputs.max())
    return OracleVerdict::CrossEpoch;
  return Inputs.min() < EmitEpoch ? OracleVerdict::Stale : OracleVerdict::Fresh;
}
