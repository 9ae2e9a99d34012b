//===- HostProbe.cpp - A fixed measure of the host's current speed ---------===//
//
// Part of the Ocelot reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Built as its own library with fixed flags (see CMakeLists.txt), so the
/// probe's cost depends on the host alone, never on how the program under
/// measurement is built.
///
//===----------------------------------------------------------------------===//

#include "HostProbe.h"

#include <chrono>
#include <cstdint>
#include <random>
#include <vector>

double perfbench::hostProbeSeconds() {
  static const std::vector<uint32_t> Table = [] {
    std::vector<uint32_t> T(1 << 16);
    std::mt19937 Rng(12345);
    for (uint32_t &V : T)
      V = Rng();
    return T;
  }();
  auto Start = std::chrono::steady_clock::now();
  uint64_t X = 88172645463325252ULL, Acc = 0;
  for (int I = 0; I < 4'000'000; ++I) {
    X ^= X << 13;
    X ^= X >> 7;
    X ^= X << 17;
    uint32_t V = Table[(X ^ Acc) & 0xFFFF];
    if (V & 1)
      Acc += V;
    else
      Acc ^= V >> 3;
  }
  volatile uint64_t Sink = Acc;
  (void)Sink;
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
      .count();
}
