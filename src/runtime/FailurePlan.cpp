//===- FailurePlan.cpp - Power-failure injection -------------------------------===//
//
// Part of the Ocelot reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/FailurePlan.h"

using namespace ocelot;

FailurePlan FailurePlan::none() { return FailurePlan(); }

FailurePlan FailurePlan::energyDriven() {
  FailurePlan P;
  P.K = Kind::EnergyDriven;
  return P;
}

FailurePlan FailurePlan::pathological(std::set<InstrRef> Points) {
  FailurePlan P;
  P.K = Kind::Pathological;
  P.Points = std::move(Points);
  return P;
}

FailurePlan FailurePlan::random(double PerInstrProb) {
  FailurePlan P;
  P.K = Kind::Random;
  P.Prob = PerInstrProb;
  return P;
}

void FailurePlan::resetRun() {
  Fired.clear();
}

bool FailurePlan::firesBefore(InstrRef I, Rng &R) {
  switch (K) {
  case Kind::Pathological:
    if (Points.count(I) && Fired.insert(I).second)
      return true;
    return false;
  case Kind::Random:
    return R.nextDouble() < Prob;
  default:
    return false;
  }
}
