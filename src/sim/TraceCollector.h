//===----------------------------------------------------------------------===//
///
/// \file
/// The tracing driver of the execution engine: an ExecObserver that
/// extracts per-invocation traces for a set of HELIX-parallelized loops
/// during one whole-program run, attributing every cycle either to an
/// active parallel-loop invocation or to "outside" time. It attaches to
/// any engine implementing the ExecState contract — the decoded
/// sequential driver in production, the tree-walk reference in the
/// differential tests.
///
/// Only the *outermost* active parallelized loop collects a trace at any
/// moment: invocations dynamically nested inside it run sequentially within
/// an iteration thread (HELIX Step 9 — one loop in parallel at a time), so
/// their cycles simply count as parallel-code cycles of the outer iteration.
///
//===----------------------------------------------------------------------===//

#ifndef HELIX_SIM_TRACECOLLECTOR_H
#define HELIX_SIM_TRACECOLLECTOR_H

#include "helix/ParallelLoopInfo.h"
#include "sim/Interpreter.h"
#include "sim/Trace.h"

#include <vector>

namespace helix {

/// All traces of one parallelized loop across the run.
struct LoopTraces {
  const ParallelLoopInfo *PLI = nullptr;
  std::vector<InvocationTrace> Invocations;

  uint64_t totalSeqCycles() const {
    uint64_t Sum = 0;
    for (const InvocationTrace &Inv : Invocations)
      Sum += Inv.SeqCycles;
    return Sum;
  }
};

class TraceCollector : public ExecObserver {
public:
  explicit TraceCollector(const std::vector<const ParallelLoopInfo *> &Loops);

  void onInstruction(const Instruction *I, unsigned Cycles,
                     ExecState &State) override;
  void onEdge(const BasicBlock *From, const BasicBlock *To,
              ExecState &State) override;

  const std::vector<LoopTraces> &traces() const { return Traces; }
  /// Cycles spent outside any parallel-loop invocation.
  uint64_t outsideCycles() const { return OutsideCycles; }
  uint64_t totalCycles() const;

private:
  void flushCycles();
  void endIteration();
  void endInvocation();
  IterationTrace &iter();

  std::vector<LoopTraces> Traces;
  uint64_t OutsideCycles = 0;

  // Active invocation state.
  int Active = -1; ///< index into Traces, or -1
  unsigned ActiveDepth = 0;
  uint64_t PendingCycles = 0;
  bool InPrologue = true;
  unsigned OpenSegments = 0;
  uint64_t StorageBase = 0, StorageEnd = 0;
};

} // namespace helix

#endif // HELIX_SIM_TRACECOLLECTOR_H
