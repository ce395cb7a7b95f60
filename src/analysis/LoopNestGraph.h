//===----------------------------------------------------------------------===//
///
/// \file
/// The program-wide static loop nesting graph of Section 2.2: the classic
/// per-function loop nesting tree extended across calls. A loop inside a
/// function called from within a loop is a subloop of the caller loop, so
/// the structure is a graph (a function can have multiple callers), not a
/// tree. The *dynamic* loop nesting graph is the profiled subgraph; it is
/// produced by the profiler (src/profile) by filtering these edges.
///
//===----------------------------------------------------------------------===//

#ifndef HELIX_ANALYSIS_LOOPNESTGRAPH_H
#define HELIX_ANALYSIS_LOOPNESTGRAPH_H

#include "analysis/AnalysisManager.h"

#include <string>
#include <vector>

namespace helix {

/// A node of the loop nesting graph: one natural loop of one function.
struct LoopNestNode {
  unsigned Id = 0;
  Function *F = nullptr;
  Loop *L = nullptr;
  /// Children: directly nested loops, plus top-level loops of functions
  /// called from directly inside this loop.
  std::vector<unsigned> Children;
  /// Incoming edge count (0 => root).
  unsigned NumParents = 0;

  std::string name() const;
};

class LoopNestGraph {
public:
  /// Builds the static loop nesting graph of the whole program.
  LoopNestGraph(Module &M, AnalysisManager &AM);

  unsigned numNodes() const { return unsigned(Nodes.size()); }
  const LoopNestNode &node(unsigned Id) const { return Nodes[Id]; }
  LoopNestNode &node(unsigned Id) { return Nodes[Id]; }

  /// Nodes with no parents (outermost loops of the program).
  const std::vector<unsigned> &roots() const { return Roots; }

  /// The node id of loop \p L, or ~0u.
  unsigned nodeFor(const Loop *L) const;

private:
  std::vector<LoopNestNode> Nodes;
  std::vector<unsigned> Roots;
};

} // namespace helix

#endif // HELIX_ANALYSIS_LOOPNESTGRAPH_H
