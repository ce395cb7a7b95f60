#include "helix/Scheduler.h"

#include "analysis/RegUse.h"
#include "sim/CostModel.h"
#include "support/Compiler.h"

#include <algorithm>
#include <map>

using namespace helix;

namespace {

/// Conservative intra-block dependence DAG. Wait/Signal/Call/IterStart are
/// treated as memory barriers, so reordering can never break a sequential
/// segment; only provably independent local computation moves.
struct LocalDAG {
  std::vector<Instruction *> Instrs;
  std::vector<std::vector<unsigned>> Preds;
  std::vector<std::vector<unsigned>> Succs;

  explicit LocalDAG(BasicBlock *BB) {
    for (Instruction *I : *BB)
      Instrs.push_back(I);
    unsigned N = unsigned(Instrs.size());
    Preds.resize(N);
    Succs.resize(N);

    auto IsMemBarrier = [](const Instruction *I) {
      return I->isSync() || I->isCall() || I->opcode() == Opcode::IterStart;
    };
    auto TouchesMemory = [&](const Instruction *I) {
      return I->mayReadMemory() || I->mayWriteMemory() || IsMemBarrier(I);
    };
    auto WritesMemory = [&](const Instruction *I) {
      return I->mayWriteMemory() || IsMemBarrier(I);
    };

    auto AddEdge = [&](unsigned From, unsigned To) {
      Preds[To].push_back(From);
      Succs[From].push_back(To);
    };

    for (unsigned J = 0; J != N; ++J) {
      Instruction *B = Instrs[J];
      for (unsigned I = 0; I != J; ++I) {
        Instruction *A = Instrs[I];
        bool Dep = false;
        // Register RAW / WAR / WAW.
        if (A->hasDest()) {
          for (unsigned R : usedRegs(*B))
            Dep |= R == A->dest();
          Dep |= B->hasDest() && B->dest() == A->dest();
        }
        if (B->hasDest())
          for (unsigned R : usedRegs(*A))
            Dep |= R == B->dest();
        // Memory and barrier ordering.
        if ((WritesMemory(A) && TouchesMemory(B)) ||
            (TouchesMemory(A) && WritesMemory(B)))
          Dep = true;
        // The terminator stays last.
        if (B->isTerminator())
          Dep = true;
        if (Dep)
          AddEdge(I, J);
      }
    }
  }
};

/// Instructions needed by sequential segments: the sync operations, the
/// dependence endpoints, and all their DAG ancestors.
std::vector<bool> computeNeeded(const LocalDAG &DAG,
                                const std::vector<DataDependence> &Deps) {
  unsigned N = unsigned(DAG.Instrs.size());
  std::vector<bool> Needed(N, false);
  std::vector<unsigned> Work;
  for (unsigned I = 0; I != N; ++I) {
    Instruction *Ins = DAG.Instrs[I];
    bool Seed = Ins->isSync() || Ins->isTerminator();
    for (const DataDependence &D : Deps)
      for (Instruction *E : D.allEndpoints())
        Seed |= E == Ins;
    if (Seed) {
      Needed[I] = true;
      Work.push_back(I);
    }
  }
  while (!Work.empty()) {
    unsigned I = Work.back();
    Work.pop_back();
    for (unsigned P : DAG.Preds[I])
      if (!Needed[P]) {
        Needed[P] = true;
        Work.push_back(P);
      }
  }
  return Needed;
}

/// List-schedules one block. With DeltaCycles == 0 this compacts segments
/// (Step 5): segment chains percolate upward and independent code sinks
/// below the Signals. With DeltaCycles > 0 it additionally reserves that
/// many cycles of independent code in front of every Wait (Figure 6).
void scheduleBlock(BasicBlock *BB, const std::vector<DataDependence> &Deps,
                   unsigned DeltaCycles) {
  bool HasSync = false;
  for (Instruction *I : *BB)
    HasSync |= I->isSync();
  if (!HasSync)
    return;

  LocalDAG DAG(BB);
  unsigned N = unsigned(DAG.Instrs.size());
  std::vector<bool> Needed = computeNeeded(DAG, Deps);

  std::vector<unsigned> RemainingPreds(N);
  for (unsigned I = 0; I != N; ++I)
    RemainingPreds[I] = unsigned(DAG.Preds[I].size());

  std::vector<bool> Emitted(N, false);
  std::vector<unsigned> Order;
  Order.reserve(N);
  unsigned Gap = ~0u / 2; // block entry counts as a large initial gap

  auto FirstReady = [&](bool WantNeeded) -> int {
    for (unsigned I = 0; I != N; ++I)
      if (!Emitted[I] && RemainingPreds[I] == 0 && Needed[I] == WantNeeded)
        return int(I);
    return -1;
  };

  auto Emit = [&](unsigned I) {
    Emitted[I] = true;
    Order.push_back(I);
    for (unsigned S : DAG.Succs[I]) {
      assert(RemainingPreds[S] > 0 && "pred count underflow");
      --RemainingPreds[S];
    }
    Instruction *Ins = DAG.Instrs[I];
    if (Ins->opcode() == Opcode::SignalOp)
      Gap = 0;
    else if (!Ins->isSync())
      Gap += opcodeCycles(Ins->opcode());
  };

  while (Order.size() != N) {
    int NextNeeded = FirstReady(/*WantNeeded=*/true);
    int NextPool = FirstReady(/*WantNeeded=*/false);
    if (NextNeeded < 0) {
      assert(NextPool >= 0 && "DAG deadlock");
      Emit(unsigned(NextPool));
      continue;
    }
    Instruction *Ins = DAG.Instrs[unsigned(NextNeeded)];
    // Figure 6: before entering the next sequential segment, pad the gap
    // with independent code so the helper thread can finish prefetching.
    if (Ins->opcode() == Opcode::Wait && Gap < DeltaCycles && NextPool >= 0) {
      Emit(unsigned(NextPool));
      continue;
    }
    Emit(unsigned(NextNeeded));
  }

  // Apply the new order.
  std::map<Instruction *, std::unique_ptr<Instruction>> Owned;
  std::vector<Instruction *> Pointers = DAG.Instrs;
  for (Instruction *I : Pointers)
    Owned[I] = BB->take(I);
  for (unsigned K = 0; K != N; ++K)
    BB->insertOwned(K, std::move(Owned[DAG.Instrs[Order[K]]]));
}

} // namespace

void helix::compactSegments(const NormalizedLoop &NL,
                            const std::vector<DataDependence> &Deps) {
  for (BasicBlock *BB : NL.LoopBlocks)
    scheduleBlock(BB, Deps, /*DeltaCycles=*/0);
}

void helix::balanceSegmentSpacing(const NormalizedLoop &NL,
                                  const std::vector<DataDependence> &Deps,
                                  unsigned DeltaCycles) {
  for (BasicBlock *BB : NL.LoopBlocks)
    scheduleBlock(BB, Deps, DeltaCycles);
}
