//===- RenderMonitorPlan.h - MonitorPlan text for golden tests --*- C++ -*-===//
//
// Part of the Ocelot reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one MonitorPlan rendering the policy goldens share (the benchmark
/// golden in PolicyGoldenTest, the generated-program golden in
/// DifferentialFuzzTest): use checks, use registers and consistent sets,
/// each in the plan's own (sorted) order.
///
//===----------------------------------------------------------------------===//

#ifndef OCELOT_TESTS_RENDERMONITORPLAN_H
#define OCELOT_TESTS_RENDERMONITORPLAN_H

#include "ocelot/Toolchain.h"

#include <ostream>
#include <string>

namespace ocelot::test {

inline void renderMonitorPlan(const Program &P, const MonitorPlan &M,
                              std::ostream &Out) {
  auto Ref = [&](const InstrRef &R) {
    return P.function(R.Func)->name() + "@" + std::to_string(R.Label);
  };
  for (const auto &[Use, Inputs] : M.UseChecks) {
    Out << "use-check " << Ref(Use) << ":";
    for (const InstrRef &I : Inputs)
      Out << " " << Ref(I);
    Out << "\n";
  }
  for (const auto &[Use, Regs] : M.UseRegs) {
    Out << "use-regs " << Ref(Use) << ":";
    for (int R : Regs)
      Out << " r" << R;
    Out << "\n";
  }
  for (const ConsistentSetPlan &S : M.Sets) {
    Out << "set " << S.SetId << "\n";
    for (size_t I = 0; I < S.Members.size(); ++I)
      Out << "  member [" << chainToString(P, S.Members[I]) << "] sensor "
          << S.MemberSensors[I] << "\n";
  }
}

} // namespace ocelot::test

#endif // OCELOT_TESTS_RENDERMONITORPLAN_H
