//===- IntegerOps.h - OCL integer arithmetic, defined once ------*- C++ -*-===//
//
// Part of the Ocelot reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `Bin` and `Un` semantics shared by all three interpreter engines, so the
/// machine's integer arithmetic is written down exactly once
/// (docs/LANGUAGE.md, "Integer semantics"):
///
///  * `+ - * <<` and unary `-` wrap in two's complement. They are computed
///    through `uint64_t`, so no input is undefined behavior on the host.
///  * `x / 0` and `x % 0` trap with "division by zero"; `INT64_MIN / -1`
///    and `INT64_MIN % -1` trap with "integer overflow in division" (the
///    host would raise SIGFPE; Rust panics).
///  * Shift counts are masked with `& 63`; `>>` is arithmetic.
///
//===----------------------------------------------------------------------===//

#ifndef OCELOT_RUNTIME_INTEGEROPS_H
#define OCELOT_RUNTIME_INTEGEROPS_H

#include "ir/Opcode.h"

#include <cstdint>
#include <limits>

namespace ocelot {

/// Evaluates `A K B` into \p V. Returns null on success, or the trap's
/// description (without its site) when the operation traps; \p V is then
/// unspecified.
inline const char *binEval(BinOp K, int64_t A, int64_t B, int64_t &V) {
  const uint64_t UA = static_cast<uint64_t>(A);
  const uint64_t UB = static_cast<uint64_t>(B);
  switch (K) {
  case BinOp::Add:
    V = static_cast<int64_t>(UA + UB);
    return nullptr;
  case BinOp::Sub:
    V = static_cast<int64_t>(UA - UB);
    return nullptr;
  case BinOp::Mul:
    V = static_cast<int64_t>(UA * UB);
    return nullptr;
  case BinOp::Div:
  case BinOp::Mod:
    if (B == 0)
      return "division by zero";
    if (B == -1 && A == std::numeric_limits<int64_t>::min())
      return "integer overflow in division";
    V = K == BinOp::Div ? A / B : A % B;
    return nullptr;
  case BinOp::And:
    V = A & B;
    return nullptr;
  case BinOp::Or:
    V = A | B;
    return nullptr;
  case BinOp::Xor:
    V = A ^ B;
    return nullptr;
  case BinOp::Shl:
    V = static_cast<int64_t>(UA << (B & 63));
    return nullptr;
  case BinOp::Shr:
    V = A >> (B & 63);
    return nullptr;
  case BinOp::Eq:
    V = A == B;
    return nullptr;
  case BinOp::Ne:
    V = A != B;
    return nullptr;
  case BinOp::Lt:
    V = A < B;
    return nullptr;
  case BinOp::Le:
    V = A <= B;
    return nullptr;
  case BinOp::Gt:
    V = A > B;
    return nullptr;
  case BinOp::Ge:
    V = A >= B;
    return nullptr;
  case BinOp::LAnd:
    V = (A != 0) && (B != 0);
    return nullptr;
  case BinOp::LOr:
    V = (A != 0) || (B != 0);
    return nullptr;
  }
  return nullptr; // Unreachable; silences -Wreturn-type.
}

/// Evaluates `K A`. Never traps.
inline int64_t unEval(UnOp K, int64_t A) {
  switch (K) {
  case UnOp::Neg:
    return static_cast<int64_t>(0 - static_cast<uint64_t>(A));
  case UnOp::Not:
    return ~A;
  case UnOp::LNot:
    return A == 0 ? 1 : 0;
  }
  return 0; // Unreachable; silences -Wreturn-type.
}

} // namespace ocelot

#endif // OCELOT_RUNTIME_INTEGEROPS_H
