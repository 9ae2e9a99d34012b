//===- Mutate.h - Seeded byte mutations for parser fuzz tests ---*- C++ -*-===//
//
// Part of the Ocelot reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one mutation helper the parser fuzz tests share (result files,
/// manifests and progress sidecars in FleetTest, power and sensor traces
/// in TraceFuzzTest).
///
//===----------------------------------------------------------------------===//

#ifndef OCELOT_TESTS_MUTATE_H
#define OCELOT_TESTS_MUTATE_H

#include <random>
#include <string>

namespace ocelot::test {

/// Applies one seeded mutation to a non-empty \p Bytes: 1-4 byte flips, a
/// truncation or an extension by random bytes, the last two sometimes
/// after a flip.
/// Flips draw from \p Alphabet when it is non-empty, so text formats see
/// plausible tokens (digits, quotes, signs) and not only binary noise.
inline std::string mutate(std::string Bytes, int Case, std::mt19937_64 &Rng,
                          const std::string &Alphabet) {
  auto Below = [&](size_t N) { return static_cast<size_t>(Rng() % N); };
  auto Flip = [&] {
    if (!Alphabet.empty() && Below(2)) {
      Bytes[Below(Bytes.size())] = Alphabet[Below(Alphabet.size())];
      return;
    }
    const char X = static_cast<char>(1 + Below(255));
    Bytes[Below(Bytes.size())] ^= X;
  };
  switch (Case % 3) {
  case 0:
    for (size_t F = 0, N = 1 + Below(4); F < N; ++F)
      Flip();
    break;
  case 1:
    if (Case % 2)
      Flip();
    Bytes.resize(Below(Bytes.size()));
    break;
  default:
    if (Case % 2)
      Flip();
    for (size_t E = 0, N = 1 + Below(300); E < N; ++E)
      Bytes += static_cast<char>(Below(256));
    break;
  }
  return Bytes;
}

} // namespace ocelot::test

#endif // OCELOT_TESTS_MUTATE_H
