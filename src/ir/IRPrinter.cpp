//===- IRPrinter.cpp - Textual rendering of Ocelot IR ------------------------===//
//
// Part of the Ocelot reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/IRPrinter.h"

using namespace ocelot;

std::string ocelot::printFunction(const Program &P, const Function &F) {
  (void)P;
  std::string S = "fn " + F.name() + "(";
  for (int I = 0; I < F.numParams(); ++I) {
    if (I)
      S += ", ";
    if (F.paramIsRef(I))
      S += "&";
    S += F.paramName(I) + ":%" + std::to_string(I);
  }
  S += ")";
  if (F.hasReturnValue())
    S += " -> int";
  S += " {\n";
  for (int B = 0; B < F.numBlocks(); ++B) {
    const BasicBlock *BB = F.block(B);
    S += "bb" + std::to_string(BB->id()) + ": ; " + BB->name() + "\n";
    for (const Instruction &I : BB->instructions()) {
      S += "  " + I.str() + "\n";
    }
  }
  S += "}\n";
  return S;
}

std::string ocelot::printProgram(const Program &P) {
  std::string S;
  for (int I = 0; I < P.numSensors(); ++I)
    S += "sensor s" + std::to_string(I) + " = " + P.sensor(I).Name + "\n";
  for (int I = 0; I < P.numGlobals(); ++I) {
    const GlobalVar &G = P.global(I);
    S += "global g" + std::to_string(I) + " = " + G.Name;
    if (G.Size != 1) {
      S += '['; // Not `"[" + ...`: GCC 12 -O3 misreports it (-Wrestrict).
      S += std::to_string(G.Size) + "]";
    }
    if (G.IsPromotedLocal)
      S += " ; promoted local";
    S += "\n";
  }
  if (P.numSensors() || P.numGlobals())
    S += "\n";
  for (int I = 0; I < P.numFunctions(); ++I) {
    S += printFunction(P, *P.function(I));
    S += "\n";
  }
  return S;
}
