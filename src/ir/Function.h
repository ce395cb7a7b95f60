//===----------------------------------------------------------------------===//
///
/// \file
/// Functions of the HELIX IR.
///
//===----------------------------------------------------------------------===//

#ifndef HELIX_IR_FUNCTION_H
#define HELIX_IR_FUNCTION_H

#include "ir/BasicBlock.h"

#include <memory>
#include <string>
#include <vector>

namespace helix {

class Module;

/// A function: a CFG over basic blocks plus a virtual register file.
///
/// Parameters occupy registers 0 .. numParams()-1. The entry block is the
/// first block created.
class Function {
public:
  Function(Module *Parent, std::string Name, unsigned NumParams)
      : Parent(Parent), Name(std::move(Name)), NumParams(NumParams),
        NextReg(NumParams) {}

  Module *parent() const { return Parent; }
  const std::string &name() const { return Name; }
  unsigned numParams() const { return NumParams; }

  // --- Registers ------------------------------------------------------------
  /// Allocates a fresh virtual register.
  unsigned allocReg() { return NextReg++; }
  /// Guarantees that register ids below \p N are considered allocated
  /// (used by the parser, which sees explicit register numbers).
  void ensureRegCount(unsigned N) {
    if (N > NextReg)
      NextReg = N;
  }
  /// One past the largest register id ever allocated.
  unsigned numRegs() const { return NextReg; }

  // --- Blocks ---------------------------------------------------------------
  /// Creates a block; the first one created is the entry block.
  BasicBlock *createBlock(std::string BlockName = "");

  BasicBlock *entry() const {
    assert(!Blocks.empty() && "function has no blocks");
    return Blocks.front().get();
  }
  unsigned numBlocks() const { return unsigned(Blocks.size()); }
  BasicBlock *block(unsigned Idx) const { return Blocks[Idx].get(); }
  /// Finds a block by name; returns null if absent.
  BasicBlock *findBlock(const std::string &BlockName) const;

  class block_iterator {
  public:
    block_iterator(const std::vector<std::unique_ptr<BasicBlock>> *V,
                   size_t Pos)
        : V(V), Pos(Pos) {}
    BasicBlock *operator*() const { return (*V)[Pos].get(); }
    block_iterator &operator++() {
      ++Pos;
      return *this;
    }
    bool operator!=(const block_iterator &O) const { return Pos != O.Pos; }

  private:
    const std::vector<std::unique_ptr<BasicBlock>> *V;
    size_t Pos;
  };
  block_iterator begin() const { return block_iterator(&Blocks, 0); }
  block_iterator end() const { return block_iterator(&Blocks, Blocks.size()); }

  // --- Dense id spaces for analyses ------------------------------------------
  uint32_t takeInstrId() { return NextInstrId++; }
  /// One past the largest instruction id ever handed out.
  uint32_t numInstrIds() const { return NextInstrId; }
  uint32_t numBlockIds() const { return NextBlockId; }

  /// Total static instruction count (linear scan over blocks).
  unsigned numInstrs() const;

private:
  Module *Parent;
  std::string Name;
  unsigned NumParams;
  unsigned NextReg;
  uint32_t NextInstrId = 0;
  uint32_t NextBlockId = 0;
  std::vector<std::unique_ptr<BasicBlock>> Blocks;
};

} // namespace helix

#endif // HELIX_IR_FUNCTION_H
