#include "helix/ParallelLoopInfo.h"
#include "support/Hash.h"

#include <cstring>

using namespace helix;

uint64_t helix::computeLoopBodySeal(const ParallelLoopInfo &PLI) {
  Fnv1a H;
  for (const BasicBlock *BB : PLI.LoopBlocks) {
    H.str(BB->name());
    for (const Instruction *I : *BB) {
      H.u32(uint32_t(I->opcode()));
      H.u64(uint64_t(I->imm()));
      H.u32(I->hasDest() ? I->dest() : ~0u);
      H.u32(I->numOperands());
      for (unsigned K = 0, E = I->numOperands(); K != E; ++K) {
        const Operand &O = I->operand(K);
        H.u32(uint32_t(O.kind()));
        switch (O.kind()) {
        case Operand::Kind::Reg:
          H.u32(O.regId());
          break;
        case Operand::Kind::Global:
          H.u32(O.globalIndex());
          break;
        case Operand::Kind::ImmInt:
          H.u64(uint64_t(O.intValue()));
          break;
        case Operand::Kind::ImmFloat: {
          double D = O.floatValue();
          uint64_t Bits;
          std::memcpy(&Bits, &D, sizeof Bits);
          H.u64(Bits);
          break;
        }
        }
      }
      H.str(I->target1() ? I->target1()->name() : std::string());
      H.str(I->target2() ? I->target2()->name() : std::string());
      H.str(I->callee() ? I->callee()->name() : std::string());
    }
  }
  // A seal of zero means "never recorded"; remap the (astronomically
  // unlikely) real zero so recorded seals are always checkable.
  return H.H ? H.H : 1;
}
