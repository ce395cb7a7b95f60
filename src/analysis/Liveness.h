//===----------------------------------------------------------------------===//
///
/// \file
/// Register liveness (backward union dataflow). HELIX uses liveness to find
/// loop boundary live variables (Step 2) and to prune dead copies inserted
/// by lowering.
///
//===----------------------------------------------------------------------===//

#ifndef HELIX_ANALYSIS_LIVENESS_H
#define HELIX_ANALYSIS_LIVENESS_H

#include "analysis/DataFlow.h"

namespace helix {

/// Per-block live-in register sets.
class Liveness {
public:
  Liveness(Function *F, const CFGInfo &CFG);

  const BitSet &liveIn(const BasicBlock *BB) const {
    return Result.In[BB->id()];
  }

private:
  DataFlowResult Result;
};

} // namespace helix

#endif // HELIX_ANALYSIS_LIVENESS_H
