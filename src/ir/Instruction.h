//===----------------------------------------------------------------------===//
///
/// \file
/// The Instruction class of the HELIX IR.
///
//===----------------------------------------------------------------------===//

#ifndef HELIX_IR_INSTRUCTION_H
#define HELIX_IR_INSTRUCTION_H

#include "ir/Opcode.h"
#include "ir/Operand.h"

#include <cassert>
#include <vector>

namespace helix {

class BasicBlock;
class Function;

/// A single three-address instruction.
///
/// Every instruction has a function-unique dense id, which analyses use to
/// index bitsets. Ids survive block motion but not cloning (clones get fresh
/// ids in the destination function).
class Instruction {
public:
  Instruction(Opcode Op, uint32_t Id) : Op(Op), Id(Id) {}

  Opcode opcode() const { return Op; }
  void setOpcode(Opcode NewOp) { Op = NewOp; }
  uint32_t id() const { return Id; }

  BasicBlock *parent() const { return Parent; }
  void setParent(BasicBlock *BB) { Parent = BB; }

  // --- Destination register -------------------------------------------------
  bool hasDest() const { return Dest != NoReg; }
  unsigned dest() const {
    assert(hasDest() && "instruction has no destination");
    return Dest;
  }
  void setDest(unsigned RegId) { Dest = RegId; }
  void clearDest() { Dest = NoReg; }

  // --- Data operands --------------------------------------------------------
  unsigned numOperands() const { return unsigned(Ops.size()); }
  const Operand &operand(unsigned Idx) const {
    assert(Idx < Ops.size() && "operand index out of range");
    return Ops[Idx];
  }
  Operand &operand(unsigned Idx) {
    assert(Idx < Ops.size() && "operand index out of range");
    return Ops[Idx];
  }
  void addOperand(Operand O) { Ops.push_back(O); }
  void setOperands(std::vector<Operand> NewOps) { Ops = std::move(NewOps); }
  const std::vector<Operand> &operands() const { return Ops; }
  std::vector<Operand> &operands() { return Ops; }

  // --- Control flow ---------------------------------------------------------
  bool isTerminator() const { return isTerminatorOpcode(Op); }
  BasicBlock *target1() const { return Target1; }
  BasicBlock *target2() const { return Target2; }
  void setTarget1(BasicBlock *BB) { Target1 = BB; }
  void setTarget2(BasicBlock *BB) { Target2 = BB; }

  /// Redirects every branch target equal to \p From to \p To.
  void replaceTarget(BasicBlock *From, BasicBlock *To) {
    if (Target1 == From)
      Target1 = To;
    if (Target2 == From)
      Target2 = To;
  }

  Function *callee() const { return Callee; }
  void setCallee(Function *F) { Callee = F; }

  // --- Immediate (Alloca size, Wait/Signal segment id) ----------------------
  int64_t imm() const { return Imm; }
  void setImm(int64_t Value) { Imm = Value; }

  // --- Classification helpers ----------------------------------------------
  bool mayReadMemory() const {
    return Op == Opcode::Load || Op == Opcode::Call;
  }
  bool mayWriteMemory() const {
    return Op == Opcode::Store || Op == Opcode::Call;
  }
  bool isCall() const { return Op == Opcode::Call; }
  bool isSync() const {
    return Op == Opcode::Wait || Op == Opcode::SignalOp;
  }

private:
  Opcode Op;
  uint32_t Id;
  unsigned Dest = NoReg;
  std::vector<Operand> Ops;
  Function *Callee = nullptr;
  BasicBlock *Target1 = nullptr;
  BasicBlock *Target2 = nullptr;
  int64_t Imm = 0;
  BasicBlock *Parent = nullptr;
};

} // namespace helix

#endif // HELIX_IR_INSTRUCTION_H
