//===----------------------------------------------------------------------===//
///
/// \file
/// Enumerates the register uses of an instruction.
///
//===----------------------------------------------------------------------===//

#ifndef HELIX_ANALYSIS_REGUSE_H
#define HELIX_ANALYSIS_REGUSE_H

#include "ir/Instruction.h"

#include <vector>

namespace helix {

/// Registers read by \p I (data operands only; branch targets and callees
/// are not registers).
inline std::vector<unsigned> usedRegs(const Instruction &I) {
  std::vector<unsigned> Regs;
  for (unsigned K = 0, E = I.numOperands(); K != E; ++K)
    if (I.operand(K).isReg())
      Regs.push_back(I.operand(K).regId());
  return Regs;
}

} // namespace helix

#endif // HELIX_ANALYSIS_REGUSE_H
