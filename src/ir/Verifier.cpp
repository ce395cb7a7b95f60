#include "ir/Verifier.h"

#include "support/Format.h"

#include <set>
#include <vector>

using namespace helix;

namespace {

std::string checkInstr(const Function &F, const BasicBlock &BB,
                       const Instruction &I) {
  auto Fail = [&](const char *Msg) {
    return formatStr("@%s/%s: %s (%s)", F.name().c_str(), BB.name().c_str(),
                     Msg, opcodeName(I.opcode()));
  };

  // Register ids in range.
  if (I.hasDest() && I.dest() >= F.numRegs())
    return Fail("destination register out of range");
  for (unsigned K = 0, E = I.numOperands(); K != E; ++K) {
    const Operand &O = I.operand(K);
    if (O.isReg() && O.regId() >= F.numRegs())
      return Fail("operand register out of range");
    if (O.isGlobal() && O.globalIndex() >= F.parent()->numGlobals())
      return Fail("global operand out of range");
  }

  // Operand arities and structural fields.
  Opcode Op = I.opcode();
  if (isBinaryOpcode(Op)) {
    if (I.numOperands() != 2 || !I.hasDest())
      return Fail("binary op needs two operands and a destination");
    return "";
  }
  switch (Op) {
  case Opcode::Mov:
  case Opcode::IntToFP:
  case Opcode::FPToInt:
  case Opcode::Load:
  case Opcode::HeapAlloc:
    if (I.numOperands() != 1 || !I.hasDest())
      return Fail("unary op needs one operand and a destination");
    break;
  case Opcode::Store:
    if (I.numOperands() != 2 || I.hasDest())
      return Fail("store needs two operands and no destination");
    break;
  case Opcode::Alloca:
    if (I.numOperands() != 0 || !I.hasDest() || I.imm() <= 0)
      return Fail("alloca needs a positive immediate and a destination");
    break;
  case Opcode::Br:
    if (!I.target1() || I.target2() || I.numOperands() != 0)
      return Fail("br needs exactly one target");
    break;
  case Opcode::CondBr:
    if (!I.target1() || !I.target2() || I.numOperands() != 1)
      return Fail("condbr needs a condition and two targets");
    break;
  case Opcode::Call: {
    if (!I.callee())
      return Fail("call without callee");
    if (I.numOperands() != I.callee()->numParams())
      return Fail("call arity does not match callee parameter count");
    break;
  }
  case Opcode::Ret:
    if (I.numOperands() > 1)
      return Fail("ret takes at most one operand");
    break;
  case Opcode::Wait:
  case Opcode::SignalOp:
    // The segment id is the immediate; a register operand would make it
    // runtime-varying, which no engine supports.
    if (I.numOperands() != 0 || I.hasDest())
      return Fail("sync op takes no operands and no destination");
    // The runtime publishes segment flags in one 64-bit mask per
    // iteration; an id past 63 would silently alias another segment.
    if (I.imm() < 0 || I.imm() > 63)
      return Fail("segment id out of range [0, 63]");
    break;
  case Opcode::IterStart:
  case Opcode::Nop:
    if (I.numOperands() != 0 || I.hasDest())
      return Fail("nullary op takes no operands");
    break;
  default:
    break;
  }

  // Branch targets must live in this function.
  for (BasicBlock *T : {I.target1(), I.target2()}) {
    if (!T)
      continue;
    bool Found = false;
    for (BasicBlock *Candidate : F)
      if (Candidate == T) {
        Found = true;
        break;
      }
    if (!Found)
      return Fail("branch target not in function");
  }
  return "";
}

/// Is \p BB on a CFG cycle, i.e. can it reach itself through at least one
/// edge? Iterative DFS over successors; no allocation beyond the visit set.
bool onCycle(const BasicBlock *BB) {
  std::vector<BasicBlock *> Stack = BB->successors();
  std::set<const BasicBlock *> Seen(Stack.begin(), Stack.end());
  while (!Stack.empty()) {
    const BasicBlock *Cur = Stack.back();
    Stack.pop_back();
    if (Cur == BB)
      return true;
    for (BasicBlock *Succ : Cur->successors())
      if (Seen.insert(Succ).second)
        Stack.push_back(Succ);
  }
  return false;
}

} // namespace

std::string helix::verifyFunction(const Function &F) {
  if (F.numBlocks() == 0)
    return formatStr("@%s: function has no blocks", F.name().c_str());

  for (BasicBlock *BB : F) {
    if (BB->empty())
      return formatStr("@%s/%s: empty block", F.name().c_str(),
                       BB->name().c_str());
    if (!BB->terminator())
      return formatStr("@%s/%s: block lacks a terminator", F.name().c_str(),
                       BB->name().c_str());
    for (unsigned Idx = 0, E = BB->size(); Idx != E; ++Idx) {
      Instruction *I = BB->instr(Idx);
      if (I->parent() != BB)
        return formatStr("@%s/%s: bad parent link", F.name().c_str(),
                         BB->name().c_str());
      if (I->isTerminator() && Idx + 1 != E)
        return formatStr("@%s/%s: terminator in the middle of a block",
                         F.name().c_str(), BB->name().c_str());
      std::string Err = checkInstr(F, *BB, *I);
      if (!Err.empty())
        return Err;
      // A Wait/Signal outside every loop can never pair two iterations;
      // its only possible runtime effect is a first-iteration hang.
      if (I->isSync() && !onCycle(BB))
        return formatStr("@%s/%s: %s outside any loop body",
                         F.name().c_str(), BB->name().c_str(),
                         opcodeName(I->opcode()));
    }
  }
  return "";
}

std::string helix::verifyModule(const Module &M) {
  for (Function *F : M) {
    std::string Err = verifyFunction(*F);
    if (!Err.empty())
      return Err;
  }
  return "";
}
