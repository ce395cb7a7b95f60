#include "analysis/LoopNestGraph.h"

#include "support/Compiler.h"

#include <algorithm>

using namespace helix;

std::string LoopNestNode::name() const {
  return F->name() + "/L" + std::to_string(L->index()) + "@" +
         L->header()->name();
}

LoopNestGraph::LoopNestGraph(Module &M, AnalysisManager &AM) {
  // Create one node per loop of every function.
  for (Function *F : M) {
    LoopInfo &LI = AM.get<LoopInfo>(F);
    for (unsigned I = 0, E = LI.numLoops(); I != E; ++I) {
      LoopNestNode N;
      N.Id = unsigned(Nodes.size());
      N.F = F;
      N.L = LI.loop(I);
      Nodes.push_back(N);
    }
  }

  auto AddChild = [&](unsigned Parent, unsigned Child) {
    LoopNestNode &P = Nodes[Parent];
    if (std::find(P.Children.begin(), P.Children.end(), Child) !=
        P.Children.end())
      return;
    P.Children.push_back(Child);
    ++Nodes[Child].NumParents;
  };

  // Intra-function nesting edges.
  for (unsigned I = 0, E = numNodes(); I != E; ++I)
    for (Loop *Sub : Nodes[I].L->subLoops())
      AddChild(I, nodeFor(Sub));

  // Cross-function edges: a call site inside loop L makes the loops that a
  // call to the callee can enter *first* (its top-level loops, plus those
  // reached through loop-free call chains) children of L.
  CallGraph &CG = AM.get<CallGraph>();

  // EntryLoops(F) = top-level loops of F, plus EntryLoops of callees whose
  // call sites sit outside every loop of F. Fixpoint handles recursion.
  std::vector<std::vector<unsigned>> EntryLoops(M.numFunctions());
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (Function *F : M) {
      unsigned FIdx = CG.indexOf(F);
      LoopInfo &LI = AM.get<LoopInfo>(F);
      auto AddEntry = [&](unsigned Node) {
        auto &V = EntryLoops[FIdx];
        if (std::find(V.begin(), V.end(), Node) == V.end()) {
          V.push_back(Node);
          Changed = true;
        }
      };
      for (Loop *Top : LI.topLevelLoops())
        AddEntry(nodeFor(Top));
      for (Instruction *Site : CG.callSites(F)) {
        if (LI.loopFor(Site->parent()))
          continue; // inside a loop: handled as that loop's child below
        for (unsigned Node : EntryLoops[CG.indexOf(Site->callee())])
          AddEntry(Node);
      }
    }
  }

  for (Function *F : M) {
    LoopInfo &LI = AM.get<LoopInfo>(F);
    for (Instruction *Site : CG.callSites(F)) {
      Loop *Enclosing = LI.loopFor(Site->parent());
      if (!Enclosing)
        continue;
      for (unsigned Node : EntryLoops[CG.indexOf(Site->callee())])
        AddChild(nodeFor(Enclosing), Node);
    }
  }

  for (const LoopNestNode &N : Nodes)
    if (N.NumParents == 0)
      Roots.push_back(N.Id);
}

unsigned LoopNestGraph::nodeFor(const Loop *L) const {
  for (const LoopNestNode &N : Nodes)
    if (N.L == L)
      return N.Id;
  return ~0u;
}
