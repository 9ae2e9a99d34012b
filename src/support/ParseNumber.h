//===- ParseNumber.h - Whole-text decimal number parsing --------*- C++ -*-===//
//
// Part of the Ocelot reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// How every flag and text file parses a number. `strtoull` accepts "-1"
/// (wrapping it), whitespace and '+', and narrowing its result truncates;
/// `strtod` also reads hex ("0x10" is 16) and flushes an underflow
/// ("1e-400") to 0. `std::from_chars` into the destination type rejects
/// all of these, independent of the locale.
///
//===----------------------------------------------------------------------===//

#ifndef OCELOT_SUPPORT_PARSENUMBER_H
#define OCELOT_SUPPORT_PARSENUMBER_H

#include <charconv>
#include <cmath>
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

/// Parses all of \p Text as a finite decimal number (digits, an optional
/// leading '-', fraction and exponent) into \p Out. A value outside the
/// double range, either way, and inf or nan are rejected; on failure \p Out
/// is left unchanged.
inline bool parseDouble(std::string_view Text, double &Out) {
  const char *End = Text.data() + Text.size();
  double V = 0;
  auto [Ptr, Ec] = std::from_chars(Text.data(), End, V);
  if (Ec != std::errc() || Ptr != End || !std::isfinite(V))
    return false;
  Out = V;
  return true;
}

} // namespace ocelot

#endif // OCELOT_SUPPORT_PARSENUMBER_H
