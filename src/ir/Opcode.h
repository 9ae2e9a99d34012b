//===- Opcode.h - IR opcode and operator enums ------------------*- C++ -*-===//
//
// Part of the Ocelot reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Opcodes of the Ocelot IR. The IR is a register-based CFG form of the
/// paper's modeling language (Appendix A) extended with the constructs the
/// implementation needs: sensor inputs, annotation markers, atomic region
/// bounds, and observable outputs.
///
//===----------------------------------------------------------------------===//

#ifndef OCELOT_IR_OPCODE_H
#define OCELOT_IR_OPCODE_H

namespace ocelot {

enum class Opcode {
  Const,       ///< Dst = Imm
  Bin,         ///< Dst = A <binop> B
  Un,          ///< Dst = <unop> A
  Mov,         ///< Dst = A
  LoadG,       ///< Dst = nvm[GlobalId]
  StoreG,      ///< nvm[GlobalId] = A
  LoadA,       ///< Dst = nvm-array[GlobalId][A]
  StoreA,      ///< nvm-array[GlobalId][A] = B
  LoadInd,     ///< Dst = *A          (A holds a reference parameter)
  StoreInd,    ///< *A = B            (A holds a reference parameter)
  Input,       ///< Dst = sense(SensorId) at current logical time
  Call,        ///< Dst = Callee(Args...); ref args carry their target global
  Ret,         ///< return A (or nothing)
  Br,          ///< goto Target
  CondBr,      ///< if A goto Target else Target2
  Fresh,       ///< annotation marker: Fresh(A)
  Consistent,  ///< annotation marker: Consistent(A, SetId)
  AtomicStart, ///< begin atomic region RegionId
  AtomicEnd,   ///< end atomic region RegionId
  Output,      ///< observable event (log/alarm/send/uart) with Args
  Nop,         ///< no-op (used by tests and instrumentation)
};

/// Number of opcodes; sizes the opcode-pair histogram
/// (PcProfile::PairCounts) and the threaded dispatch table.
constexpr int NumOpcodes = static_cast<int>(Opcode::Nop) + 1;

enum class BinOp {
  Add,
  Sub,
  Mul,
  Div,
  Mod,
  And,
  Or,
  Xor,
  Shl,
  Shr,
  Eq,
  Ne,
  Lt,
  Le,
  Gt,
  Ge,
  LAnd,
  LOr,
};

enum class UnOp { Neg, Not, LNot };

/// Kinds of observable output events a program may emit. These are the
/// externally visible effects used to compare an intermittent execution
/// against continuous ones.
enum class OutputKind { Log, Alarm, Send, Uart };

const char *opcodeName(Opcode Op);
const char *binOpName(BinOp Op);
const char *unOpName(UnOp Op);
const char *outputKindName(OutputKind K);

} // namespace ocelot

#endif // OCELOT_IR_OPCODE_H
