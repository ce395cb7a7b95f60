//===----------------------------------------------------------------------===//
///
/// \file
/// The call graph of a module. HELIX uses it to build the program-wide loop
/// nesting graph (Section 2.2) and to propagate memory-effect summaries.
///
//===----------------------------------------------------------------------===//

#ifndef HELIX_ANALYSIS_CALLGRAPH_H
#define HELIX_ANALYSIS_CALLGRAPH_H

#include "ir/Module.h"
#include "support/Graph.h"

#include <vector>

namespace helix {

class CallGraph {
public:
  explicit CallGraph(Module &M);

  /// Call instructions appearing in \p F.
  const std::vector<Instruction *> &callSites(const Function *F) const {
    return Sites[indexOf(F)];
  }

  /// Distinct callees of \p F.
  const std::vector<Function *> &callees(const Function *F) const {
    return Callees[indexOf(F)];
  }

  /// \returns true if \p F participates in a call-graph cycle (including
  /// direct self recursion).
  bool isRecursive(const Function *F) const { return Recursive[indexOf(F)]; }

  unsigned indexOf(const Function *F) const;

private:
  Module &M;
  std::vector<std::vector<Instruction *>> Sites;
  std::vector<std::vector<Function *>> Callees;
  std::vector<bool> Recursive;
};

} // namespace helix

#endif // HELIX_ANALYSIS_CALLGRAPH_H
