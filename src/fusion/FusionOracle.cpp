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
  // The empty span has Min > Max, so it falls through both tests.
  if (Inputs.Min < Inputs.Max)
    return OracleVerdict::CrossEpoch;
  return Inputs.Min < EmitEpoch ? OracleVerdict::Stale : OracleVerdict::Fresh;
}
