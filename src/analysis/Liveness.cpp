#include "analysis/Liveness.h"

#include "analysis/RegUse.h"

using namespace helix;

Liveness::Liveness(Function *F, const CFGInfo &CFG) {
  unsigned NumRegs = F->numRegs();
  std::vector<BitSet> Gen(F->numBlockIds(), BitSet(NumRegs));
  std::vector<BitSet> Kill(F->numBlockIds(), BitSet(NumRegs));

  for (BasicBlock *BB : *F) {
    BitSet &G = Gen[BB->id()];
    BitSet &K = Kill[BB->id()];
    for (Instruction *I : *BB) {
      // Upward-exposed uses first, then the definition.
      for (unsigned Reg : usedRegs(*I))
        if (!K.test(Reg))
          G.set(Reg);
      if (I->hasDest())
        K.set(I->dest());
    }
  }

  Result = solveDataFlow(F, CFG, DataFlowDir::Backward, DataFlowMeet::Union,
                         NumRegs, Gen, Kill, BitSet(NumRegs));
}
