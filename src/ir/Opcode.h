//===----------------------------------------------------------------------===//
///
/// \file
/// Opcode definitions and opcode traits for the HELIX three-address IR.
///
//===----------------------------------------------------------------------===//

#ifndef HELIX_IR_OPCODE_H
#define HELIX_IR_OPCODE_H

#include <cstdint>

namespace helix {

/// The instruction set of the IR.
///
/// The IR is a register machine over 64-bit integer and 64-bit floating
/// point values with a word-granular flat memory (an address names one
/// 8-byte slot). This mirrors what HELIX needs from ILDJIT's IR: explicit
/// loads/stores, calls, a CFG, and room for instrumentation.
enum class Opcode : uint8_t {
  // Integer arithmetic: Dst = A op B.
  Add,
  Sub,
  Mul,
  Div,
  Rem,
  And,
  Or,
  Xor,
  Shl,
  Shr,
  // Floating-point arithmetic.
  FAdd,
  FSub,
  FMul,
  FDiv,
  // Conversions.
  IntToFP,
  FPToInt,
  // Integer comparisons producing 0/1.
  CmpEQ,
  CmpNE,
  CmpLT,
  CmpLE,
  CmpGT,
  CmpGE,
  // Floating-point comparisons producing 0/1.
  FCmpEQ,
  FCmpNE,
  FCmpLT,
  FCmpLE,
  FCmpGT,
  FCmpGE,
  // Register copy / constant materialization: Dst = Op0.
  Mov,
  // Memory. Addresses are 64-bit slot indices into a flat memory.
  Load,      ///< Dst = Mem[Op0]
  Store,     ///< Mem[Op1] = Op0
  Alloca,    ///< Dst = base of Imm fresh stack slots in the current frame
  HeapAlloc, ///< Dst = base of Op0 fresh heap slots
  // Control flow.
  Br,     ///< unconditional branch to Target1
  CondBr, ///< Op0 != 0 ? Target1 : Target2
  Call,   ///< Dst = Callee(Op0, Op1, ...); Dst optional
  Ret,    ///< return, optionally Op0
  // HELIX synchronization operations (inserted by the parallelizer; Imm is
  // the sequential-segment id).
  Wait,
  SignalOp,
  /// Marks the start of the loop body: the point at which the next
  /// iteration's prologue may begin on the successor core (Step 3).
  IterStart,
  // No operation (placeholder produced by some rewrites).
  Nop,
};

/// \returns the lower-case mnemonic used by the printer and parser.
const char *opcodeName(Opcode Op);

/// \returns true for Br, CondBr and Ret.
bool isTerminatorOpcode(Opcode Op);

/// \returns true for binary arithmetic/comparison opcodes.
bool isBinaryOpcode(Opcode Op);

} // namespace helix

#endif // HELIX_IR_OPCODE_H
