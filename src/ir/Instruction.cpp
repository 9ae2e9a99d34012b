//===- Instruction.cpp - Ocelot IR instruction --------------------------------===//
//
// Part of the Ocelot reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/Instruction.h"

#include <cassert>

using namespace ocelot;

const char *ocelot::opcodeName(Opcode Op) {
  switch (Op) {
  case Opcode::Const:
    return "const";
  case Opcode::Bin:
    return "bin";
  case Opcode::Un:
    return "un";
  case Opcode::Mov:
    return "mov";
  case Opcode::LoadG:
    return "loadg";
  case Opcode::StoreG:
    return "storeg";
  case Opcode::LoadA:
    return "loada";
  case Opcode::StoreA:
    return "storea";
  case Opcode::LoadInd:
    return "loadind";
  case Opcode::StoreInd:
    return "storeind";
  case Opcode::Input:
    return "input";
  case Opcode::Call:
    return "call";
  case Opcode::Ret:
    return "ret";
  case Opcode::Br:
    return "br";
  case Opcode::CondBr:
    return "condbr";
  case Opcode::Fresh:
    return "fresh";
  case Opcode::Consistent:
    return "consistent";
  case Opcode::AtomicStart:
    return "atomic_start";
  case Opcode::AtomicEnd:
    return "atomic_end";
  case Opcode::Output:
    return "output";
  case Opcode::Nop:
    return "nop";
  }
  return "?";
}

const char *ocelot::binOpName(BinOp Op) {
  switch (Op) {
  case BinOp::Add:
    return "+";
  case BinOp::Sub:
    return "-";
  case BinOp::Mul:
    return "*";
  case BinOp::Div:
    return "/";
  case BinOp::Mod:
    return "%";
  case BinOp::And:
    return "&";
  case BinOp::Or:
    return "|";
  case BinOp::Xor:
    return "^";
  case BinOp::Shl:
    return "<<";
  case BinOp::Shr:
    return ">>";
  case BinOp::Eq:
    return "==";
  case BinOp::Ne:
    return "!=";
  case BinOp::Lt:
    return "<";
  case BinOp::Le:
    return "<=";
  case BinOp::Gt:
    return ">";
  case BinOp::Ge:
    return ">=";
  case BinOp::LAnd:
    return "&&";
  case BinOp::LOr:
    return "||";
  }
  return "?";
}

const char *ocelot::unOpName(UnOp Op) {
  switch (Op) {
  case UnOp::Neg:
    return "-";
  case UnOp::Not:
    return "~";
  case UnOp::LNot:
    return "!";
  }
  return "?";
}

const char *ocelot::outputKindName(OutputKind K) {
  switch (K) {
  case OutputKind::Log:
    return "log";
  case OutputKind::Alarm:
    return "alarm";
  case OutputKind::Send:
    return "send";
  case OutputKind::Uart:
    return "uart";
  }
  return "?";
}

namespace {

/// \p Prefix followed by \p N, built by appending: GCC 12's inlined
/// `"%" + std::to_string(N)` trips a false -Wrestrict at -O3.
std::string prefixed(const char *Prefix, int64_t N) {
  std::string S = Prefix;
  S += std::to_string(N);
  return S;
}

} // namespace

std::string Operand::str() const {
  switch (K) {
  case Kind::None:
    return "_";
  case Kind::Reg:
    return prefixed("%", Reg);
  case Kind::Imm:
    return std::to_string(Imm);
  }
  return "?";
}

void Instruction::collectUsedRegs(std::vector<int> &Regs) const {
  if (A.isReg())
    Regs.push_back(A.Reg);
  if (B.isReg())
    Regs.push_back(B.Reg);
  for (const Operand &Arg : Args)
    if (Arg.isReg())
      Regs.push_back(Arg.Reg);
}

std::string Instruction::str() const {
  std::string S = prefixed("@", Label) + " ";
  auto Dest = [&]() { return prefixed("%", Dst) + " = "; };
  switch (Op) {
  case Opcode::Const:
    S += Dest() + "const " + std::to_string(A.Imm);
    break;
  case Opcode::Bin:
    S += Dest() + A.str() + " " + binOpName(BinKind) + " " + B.str();
    break;
  case Opcode::Un:
    S += Dest() + std::string(unOpName(UnKind)) + A.str();
    break;
  case Opcode::Mov:
    S += Dest() + A.str();
    break;
  case Opcode::LoadG:
    S += Dest() + "loadg g" + std::to_string(GlobalId);
    break;
  case Opcode::StoreG:
    S += "storeg g" + std::to_string(GlobalId) + ", " + A.str();
    break;
  case Opcode::LoadA:
    S += Dest() + "loada g" + std::to_string(GlobalId) + "[" + A.str() + "]";
    break;
  case Opcode::StoreA:
    S += "storea g" + std::to_string(GlobalId) + "[" + A.str() + "], " +
         B.str();
    break;
  case Opcode::LoadInd:
    S += Dest() + "loadind " + A.str();
    break;
  case Opcode::StoreInd:
    S += "storeind " + A.str() + ", " + B.str();
    break;
  case Opcode::Input:
    S += Dest() + "input s" + std::to_string(SensorId);
    break;
  case Opcode::Call: {
    if (Dst >= 0)
      S += Dest();
    S += "call f" + std::to_string(Callee) + "(";
    for (size_t I = 0; I < Args.size(); ++I) {
      if (I)
        S += ", ";
      if (I < ArgRefGlobal.size() && ArgRefGlobal[I] >= 0)
        S += "&g" + std::to_string(ArgRefGlobal[I]);
      else
        S += Args[I].str();
    }
    S += ")";
    break;
  }
  case Opcode::Ret:
    S += "ret";
    if (!A.isNone())
      S += " " + A.str();
    break;
  case Opcode::Br:
    S += "br bb" + std::to_string(Target);
    break;
  case Opcode::CondBr:
    S += "condbr " + A.str() + ", bb" + std::to_string(Target) + ", bb" +
         std::to_string(Target2);
    break;
  case Opcode::Fresh:
    S += "fresh(" + A.str() + ") ; " + VarName;
    break;
  case Opcode::Consistent:
    S += "consistent(" + A.str() + ", " + std::to_string(SetId) + ") ; " +
         VarName;
    break;
  case Opcode::AtomicStart:
    S += "atomic_start r" + std::to_string(RegionId);
    break;
  case Opcode::AtomicEnd:
    S += "atomic_end r" + std::to_string(RegionId);
    break;
  case Opcode::Output: {
    S += std::string(outputKindName(OutKind)) + "(";
    for (size_t I = 0; I < Args.size(); ++I) {
      if (I)
        S += ", ";
      S += Args[I].str();
    }
    S += ")";
    break;
  }
  case Opcode::Nop:
    S += "nop";
    break;
  }
  return S;
}
