//===- ParseNumber.h - Whole-text unsigned decimal parsing ------*- C++ -*-===//
//
// Part of the Ocelot reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// How every command-line flag parses an unsigned integer. `strtoull`
/// accepts "-1" (wrapping it), whitespace and '+', and narrowing its result
/// truncates; `std::from_chars` into the destination type rejects these.
///
//===----------------------------------------------------------------------===//

#ifndef OCELOT_SUPPORT_PARSENUMBER_H
#define OCELOT_SUPPORT_PARSENUMBER_H

#include <charconv>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace ocelot {

/// Parses all of \p Text as a decimal number that fits \p UInt into \p Out;
/// on failure \p Out is left unchanged.
template <typename UInt> bool parseUnsigned(std::string_view Text, UInt &Out) {
  static_assert(std::is_unsigned_v<UInt>, "parseUnsigned takes an unsigned");
  const char *End = Text.data() + Text.size();
  UInt V{};
  auto [Ptr, Ec] = std::from_chars(Text.data(), End, V);
  if (Ec != std::errc() || Ptr != End)
    return false;
  Out = V;
  return true;
}

} // namespace ocelot

#endif // OCELOT_SUPPORT_PARSENUMBER_H
