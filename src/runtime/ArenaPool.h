//===- ArenaPool.h - Pooled Simulation state buffers ------------*- C++ -*-===//
//
// Part of the Ocelot reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fleet shard runs tens of thousands of short-lived `Simulation`s, and
/// each one allocates the same two large buffers: the flat NVM cell array
/// and the shared register stack. `ArenaPool` recycles those buffers'
/// capacity across Simulations — an Interpreter whose `RunConfig::Arena`
/// is set takes its buffers from the pool at construction and gives them
/// back (cleared, capacity intact) at destruction, so a 10k-cell shard
/// performs a bounded number of large allocations instead of one pair per
/// cell.
///
/// Pooling is invisible to results: a taken buffer is always cleared or
/// re-assigned before use, so a pooled run is bitwise identical to an
/// unpooled one. The pool is thread-safe; one pool may serve all workers
/// of a shard.
///
//===----------------------------------------------------------------------===//

#ifndef OCELOT_RUNTIME_ARENAPOOL_H
#define OCELOT_RUNTIME_ARENAPOOL_H

#include "runtime/Value.h"

#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

namespace ocelot {

class ArenaPool {
public:
  struct Stats {
    uint64_t Taken = 0;    ///< Buffers handed out.
    uint64_t Reused = 0;   ///< ... of which came from the free list.
    uint64_t Returned = 0; ///< Buffers given back.
  };

  /// \returns an empty buffer, reusing pooled capacity when available.
  std::vector<RtValue> take() {
    std::lock_guard<std::mutex> Lock(Mu);
    ++S.Taken;
    if (Free.empty())
      return {};
    ++S.Reused;
    std::vector<RtValue> Buf = std::move(Free.back());
    Free.pop_back();
    return Buf;
  }

  /// Returns a retired buffer's capacity to the pool, cleared: RtValue is
  /// plain data, so only the outer allocation is retained. (Taint ids in
  /// the buffer named sequences of the retiring interpreter's table and
  /// mean nothing to the next taker, which re-initializes every cell.)
  void giveBack(std::vector<RtValue> &&Buf) {
    if (Buf.capacity() == 0)
      return;
    Buf.clear();
    std::lock_guard<std::mutex> Lock(Mu);
    ++S.Returned;
    Free.push_back(std::move(Buf));
  }

  Stats stats() const {
    std::lock_guard<std::mutex> Lock(Mu);
    return S;
  }

private:
  mutable std::mutex Mu;
  std::vector<std::vector<RtValue>> Free;
  Stats S;
};

} // namespace ocelot

#endif // OCELOT_RUNTIME_ARENAPOOL_H
