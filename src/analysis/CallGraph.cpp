#include "analysis/CallGraph.h"

#include "support/Compiler.h"

#include <algorithm>

using namespace helix;

unsigned CallGraph::indexOf(const Function *F) const {
  for (unsigned I = 0, E = M.numFunctions(); I != E; ++I)
    if (M.function(I) == F)
      return I;
  HELIX_UNREACHABLE("function not in module");
}

CallGraph::CallGraph(Module &M) : M(M) {
  unsigned N = M.numFunctions();
  Sites.resize(N);
  Callees.resize(N);
  Recursive.assign(N, false);

  DenseGraph G(N);
  for (unsigned I = 0; I != N; ++I) {
    Function *F = M.function(I);
    for (BasicBlock *BB : *F)
      for (Instruction *Ins : *BB) {
        if (!Ins->isCall())
          continue;
        Sites[I].push_back(Ins);
        Function *Callee = Ins->callee();
        if (std::find(Callees[I].begin(), Callees[I].end(), Callee) ==
            Callees[I].end()) {
          Callees[I].push_back(Callee);
          G.addEdge(I, indexOf(Callee));
        }
        if (Callee == F)
          Recursive[I] = true;
      }
  }

  SCCResult SCCs = computeSCCs(G);
  for (unsigned I = 0; I != N; ++I)
    if (SCCs.isInCycle(I))
      Recursive[I] = true;
}
