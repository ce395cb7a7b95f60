//===----------------------------------------------------------------------===//
///
/// \file
/// Implementation of the core IR classes (Opcode traits, BasicBlock,
/// Function, Module).
///
//===----------------------------------------------------------------------===//

#include "ir/Module.h"

#include "support/Compiler.h"

using namespace helix;

//===----------------------------------------------------------------------===//
// Opcode traits
//===----------------------------------------------------------------------===//

const char *helix::opcodeName(Opcode Op) {
  switch (Op) {
  case Opcode::Add:
    return "add";
  case Opcode::Sub:
    return "sub";
  case Opcode::Mul:
    return "mul";
  case Opcode::Div:
    return "div";
  case Opcode::Rem:
    return "rem";
  case Opcode::And:
    return "and";
  case Opcode::Or:
    return "or";
  case Opcode::Xor:
    return "xor";
  case Opcode::Shl:
    return "shl";
  case Opcode::Shr:
    return "shr";
  case Opcode::FAdd:
    return "fadd";
  case Opcode::FSub:
    return "fsub";
  case Opcode::FMul:
    return "fmul";
  case Opcode::FDiv:
    return "fdiv";
  case Opcode::IntToFP:
    return "itof";
  case Opcode::FPToInt:
    return "ftoi";
  case Opcode::CmpEQ:
    return "cmpeq";
  case Opcode::CmpNE:
    return "cmpne";
  case Opcode::CmpLT:
    return "cmplt";
  case Opcode::CmpLE:
    return "cmple";
  case Opcode::CmpGT:
    return "cmpgt";
  case Opcode::CmpGE:
    return "cmpge";
  case Opcode::FCmpEQ:
    return "fcmpeq";
  case Opcode::FCmpNE:
    return "fcmpne";
  case Opcode::FCmpLT:
    return "fcmplt";
  case Opcode::FCmpLE:
    return "fcmple";
  case Opcode::FCmpGT:
    return "fcmpgt";
  case Opcode::FCmpGE:
    return "fcmpge";
  case Opcode::Mov:
    return "mov";
  case Opcode::Load:
    return "load";
  case Opcode::Store:
    return "store";
  case Opcode::Alloca:
    return "alloca";
  case Opcode::HeapAlloc:
    return "halloc";
  case Opcode::Br:
    return "br";
  case Opcode::CondBr:
    return "condbr";
  case Opcode::Call:
    return "call";
  case Opcode::Ret:
    return "ret";
  case Opcode::Wait:
    return "wait";
  case Opcode::SignalOp:
    return "signal";
  case Opcode::IterStart:
    return "iterstart";
  case Opcode::Nop:
    return "nop";
  }
  HELIX_UNREACHABLE("unknown opcode");
}

bool helix::isTerminatorOpcode(Opcode Op) {
  return Op == Opcode::Br || Op == Opcode::CondBr || Op == Opcode::Ret;
}

bool helix::isBinaryOpcode(Opcode Op) {
  switch (Op) {
  case Opcode::Add:
  case Opcode::Sub:
  case Opcode::Mul:
  case Opcode::Div:
  case Opcode::Rem:
  case Opcode::And:
  case Opcode::Or:
  case Opcode::Xor:
  case Opcode::Shl:
  case Opcode::Shr:
  case Opcode::FAdd:
  case Opcode::FSub:
  case Opcode::FMul:
  case Opcode::FDiv:
  case Opcode::CmpEQ:
  case Opcode::CmpNE:
  case Opcode::CmpLT:
  case Opcode::CmpLE:
  case Opcode::CmpGT:
  case Opcode::CmpGE:
  case Opcode::FCmpEQ:
  case Opcode::FCmpNE:
  case Opcode::FCmpLT:
  case Opcode::FCmpLE:
  case Opcode::FCmpGT:
  case Opcode::FCmpGE:
    return true;
  default:
    return false;
  }
}

//===----------------------------------------------------------------------===//
// BasicBlock
//===----------------------------------------------------------------------===//

Instruction *BasicBlock::createInstr(Opcode Op) {
  auto *I = new Instruction(Op, Parent->takeInstrId());
  I->setParent(this);
  return I;
}

Instruction *BasicBlock::append(Opcode Op) {
  Instruction *I = createInstr(Op);
  Instrs.emplace_back(I);
  return I;
}

Instruction *BasicBlock::insertAt(unsigned Idx, Opcode Op) {
  assert(Idx <= Instrs.size() && "insertion index out of range");
  Instruction *I = createInstr(Op);
  Instrs.emplace(Instrs.begin() + Idx, I);
  return I;
}

Instruction *BasicBlock::insertBefore(Instruction *Before, Opcode Op) {
  return insertAt(indexOf(Before), Op);
}

Instruction *BasicBlock::insertAfter(Instruction *After, Opcode Op) {
  return insertAt(indexOf(After) + 1, Op);
}

void BasicBlock::erase(Instruction *I) {
  unsigned Idx = indexOf(I);
  Instrs.erase(Instrs.begin() + Idx);
}

std::unique_ptr<Instruction> BasicBlock::take(Instruction *I) {
  unsigned Idx = indexOf(I);
  std::unique_ptr<Instruction> Owned = std::move(Instrs[Idx]);
  Instrs.erase(Instrs.begin() + Idx);
  Owned->setParent(nullptr);
  return Owned;
}

Instruction *BasicBlock::insertOwned(unsigned Idx,
                                     std::unique_ptr<Instruction> I) {
  assert(Idx <= Instrs.size() && "insertion index out of range");
  I->setParent(this);
  Instruction *Raw = I.get();
  Instrs.emplace(Instrs.begin() + Idx, std::move(I));
  return Raw;
}

unsigned BasicBlock::indexOf(const Instruction *I) const {
  for (unsigned Idx = 0, E = unsigned(Instrs.size()); Idx != E; ++Idx)
    if (Instrs[Idx].get() == I)
      return Idx;
  HELIX_UNREACHABLE("instruction not in block");
}

std::vector<BasicBlock *> BasicBlock::successors() const {
  std::vector<BasicBlock *> Result;
  Instruction *Term = terminator();
  if (!Term)
    return Result;
  if (Term->target1())
    Result.push_back(Term->target1());
  if (Term->target2())
    Result.push_back(Term->target2());
  return Result;
}

//===----------------------------------------------------------------------===//
// Function
//===----------------------------------------------------------------------===//

BasicBlock *Function::createBlock(std::string BlockName) {
  uint32_t Id = NextBlockId++;
  if (BlockName.empty())
    BlockName = "bb" + std::to_string(Id);
  // Names must be unique within the function: the textual IR uses them as
  // labels, so a collision (e.g. repeated block splitting deriving
  // "x.cont" twice) would print a module the parser rejects as a
  // duplicate label. Callers hold the returned pointer, never the name,
  // so disambiguating here is safe.
  if (findBlock(BlockName)) {
    unsigned Suffix = 1;
    std::string Candidate;
    do
      Candidate = BlockName + "." + std::to_string(Suffix++);
    while (findBlock(Candidate));
    BlockName = std::move(Candidate);
  }
  Blocks.emplace_back(new BasicBlock(this, Id, std::move(BlockName)));
  return Blocks.back().get();
}

BasicBlock *Function::findBlock(const std::string &BlockName) const {
  for (const auto &BB : Blocks)
    if (BB->name() == BlockName)
      return BB.get();
  return nullptr;
}

unsigned Function::numInstrs() const {
  unsigned N = 0;
  for (const auto &BB : Blocks)
    N += BB->size();
  return N;
}

//===----------------------------------------------------------------------===//
// Module
//===----------------------------------------------------------------------===//

Function *Module::createFunction(std::string Name, unsigned NumParams) {
  assert(!findFunction(Name) && "duplicate function name");
  Funcs.emplace_back(new Function(this, std::move(Name), NumParams));
  return Funcs.back().get();
}

Function *Module::findFunction(const std::string &Name) const {
  for (const auto &F : Funcs)
    if (F->name() == Name)
      return F.get();
  return nullptr;
}

unsigned Module::createGlobal(std::string Name, uint64_t Size) {
  assert(findGlobal(Name) == ~0u && "duplicate global name");
  GlobalVariable G;
  G.Name = std::move(Name);
  G.Size = Size;
  Globals.push_back(std::move(G));
  return unsigned(Globals.size() - 1);
}

unsigned Module::findGlobal(const std::string &Name) const {
  for (unsigned I = 0, E = unsigned(Globals.size()); I != E; ++I)
    if (Globals[I].Name == Name)
      return I;
  return ~0u;
}
