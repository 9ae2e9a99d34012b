//===- ShardPlan.cpp - Deterministic sweep partitioning --------------------------===//
//
// Part of the Ocelot reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "fleet/ShardPlan.h"
#include "support/ParseNumber.h"

#include <cassert>
#include <string_view>

using namespace ocelot;

ShardPlan::ShardPlan(size_t Cells, unsigned Shards)
    : Cells(Cells), Shards(Shards ? Shards : 1) {}

ShardRange ShardPlan::range(unsigned Shard) const {
  assert(Shard < Shards && "shard index out of range");
  size_t Base = Cells / Shards;
  size_t Extra = Cells % Shards;
  // The first `Extra` shards hold Base + 1 cells, the rest Base.
  auto StartOf = [&](size_t I) {
    return I * Base + (I < Extra ? I : Extra);
  };
  return {StartOf(Shard), StartOf(Shard + 1)};
}

bool ocelot::parseShardSpec(const std::string &Spec, unsigned &Shard,
                            unsigned &Count, std::string &Error) {
  const std::string_view Text = Spec;
  const size_t Slash = Text.find('/');
  unsigned I = 0, K = 0;
  if (Slash == Text.npos || !parseUnsigned(Text.substr(0, Slash), I)) {
    Error = "bad shard spec '" + Spec + "' (want I/K, e.g. --shard=0/4)";
    return false;
  }
  if (!parseUnsigned(Text.substr(Slash + 1), K) || K < 1 || I >= K) {
    Error = "bad shard spec '" + Spec +
            "' (want 0 <= I < K, e.g. --shard=0/4)";
    return false;
  }
  Shard = I;
  Count = K;
  return true;
}
