#include "helix/LoopPasses.h"

#include "helix/Inliner.h"
#include "helix/Scheduler.h"
#include "ir/Verifier.h"
#include "obs/Trace.h"
#include "support/Compiler.h"

#include <chrono>
#include <set>

using namespace helix;

//===----------------------------------------------------------------------===//
// Shared helpers.
//===----------------------------------------------------------------------===//

namespace {

/// Recomputes the dependence set of the (already normalized) loop, and
/// filters out dependences that need no synchronization because every
/// endpoint sits in the prologue of an earlier-or-equal iteration: the
/// prologues themselves execute sequentially, ordered by the IterStart
/// control signal, so only data forwarding (Step 7) is needed for them.
std::vector<DataDependence> computeDeps(AnalysisManager &AM, Function *F,
                                        Loop *L, DependenceStats &StatsOut) {
  const CFGInfo &CFG = AM.get<CFGInfo>(F);
  const DominatorTree &DT = AM.get<DominatorTree>(F);
  const Liveness &LV = AM.get<Liveness>(F);
  const ValueRangeAnalysis &VR = AM.get<ValueRangeAnalysis>(F);
  LoopVarAnalysis Vars(F, L, DT);
  LoopDependenceAnalysis DDA(F, L, CFG, DT, LV, Vars,
                             AM.get<PointsToAnalysis>(),
                             AM.get<MemEffects>(), &VR);
  StatsOut = DDA.stats();
  return DDA.toSynchronize();
}

Loop *findLoop(LoopInfo &LI, BasicBlock *Header) {
  for (unsigned I = 0, E = LI.numLoops(); I != E; ++I)
    if (LI.loop(I)->header() == Header)
      return LI.loop(I);
  return nullptr;
}

/// Induction variables the engines materialize per iteration.
std::vector<MaterializedIV> collectIVs(AnalysisManager &AM, Function *F,
                                       Loop *L) {
  LoopVarAnalysis Vars(F, L, AM.get<DominatorTree>(F));
  std::vector<MaterializedIV> IVs;
  for (const InductionVar &IV : Vars.inductionVars())
    IVs.push_back({IV.Reg, IV.Stride});
  return IVs;
}

/// Step 3's counted-loop test: true when no dependence endpoint sits in
/// the prologue and every register the prologue reads is invariant, an
/// induction variable, or defined earlier in the prologue itself. Such a
/// prologue is locally computable from the iteration number, so iterations
/// start without inter-thread control signals.
bool prologueIsSelfStarting(AnalysisManager &AM, Function *F, Loop *L,
                            const NormalizedLoop &NL,
                            const std::vector<DataDependence> &Deps) {
  for (const DataDependence &D : Deps)
    for (Instruction *E : D.allEndpoints())
      if (NL.inPrologue(E->parent()))
        return false;

  LoopVarAnalysis Vars(F, L, AM.get<DominatorTree>(F));
  std::set<unsigned> DefinedInPrologue;
  for (BasicBlock *BB : NL.Prologue)
    for (Instruction *I : *BB) {
      for (unsigned K = 0, E = I->numOperands(); K != E; ++K) {
        const Operand &O = I->operand(K);
        if (!O.isReg())
          continue;
        unsigned R = O.regId();
        if (Vars.isInvariant(R) || Vars.inductionVar(R) ||
            DefinedInPrologue.count(R))
          continue;
        return false;
      }
      if (I->hasDest())
        DefinedInPrologue.insert(I->dest());
      // Calls may read loop-varying memory; be conservative.
      if (I->isCall() || I->mayReadMemory())
        return false;
    }
  return true;
}

//===----------------------------------------------------------------------===//
// The standard passes.
//===----------------------------------------------------------------------===//

/// Step 1: normalization. Aborts when the header no longer heads a loop.
class NormalizePass : public LoopPass {
public:
  const char *name() const override { return "normalize"; }
  // Mutates the CFG (may add a latch) but performs its own invalidation
  // inside normalizeLoop and re-derives S.L from the fresh analyses; it
  // must report all-preserved — a manager-level invalidation here would
  // destroy the LoopInfo that owns S.L while later passes still hold it.
  PassResult run(AnalysisManager &AM, LoopPassState &S) override {
    S.NL = normalizeLoop(AM, S.F, S.Header);
    if (!S.NL.Valid)
      return abort();
    S.PLI.F = S.F;
    S.PLI.Header = S.NL.Header;
    S.L = findLoop(AM.get<LoopInfo>(S.F), S.Header);
    assert(S.L && "normalized loop vanished");
    return preservingAll();
  }
};

/// Step 2: the dependences to satisfy.
class DependencePass : public LoopPass {
public:
  const char *name() const override { return "dependence"; }
  PassResult run(AnalysisManager &AM, LoopPassState &S) override {
    S.Deps = computeDeps(AM, S.F, S.L, S.Stats);
    return preservingAll();
  }
};

/// Step 5a: method inlining. Calls that are endpoints of a dependence are
/// inlined (unless inside a subloop, which would prevent shrinking the
/// segment), then dependences are recomputed. Bounded to avoid code
/// blow-up, per the paper's conservative heuristic.
class InlinePass : public LoopPass {
public:
  const char *name() const override { return "inline"; }
  // Like normalize: invalidates and re-derives internally (see below), so
  // the analyses, S.L and S.Deps leave this pass mutually consistent.
  PassResult run(AnalysisManager &AM, LoopPassState &S) override {
    if (!S.Opts.EnableInlining)
      return preservingAll();
    for (unsigned Round = 0; Round != 4; ++Round) {
      Instruction *ToInline = nullptr;
      for (const DataDependence &D : S.Deps) {
        for (Instruction *E : D.allEndpoints()) {
          if (!E->isCall() || E->callee() == S.F)
            continue;
          // Skip calls inside subloops of L.
          bool InSubLoop = false;
          for (Loop *Sub : S.L->subLoops())
            InSubLoop |= Sub->contains(E->parent());
          if (InSubLoop)
            continue;
          if (AM.get<CallGraph>().isRecursive(E->callee()))
            continue;
          ToInline = E;
          break;
        }
        if (ToInline)
          break;
      }
      if (!ToInline)
        break;
      if (!inlineCall(S.F, ToInline))
        break;
      ++S.PLI.InlinedCalls;
      // Inlining splinters the CFG of S.F and can grow the call graph's
      // edge set: invalidate everything, then rebuild the normal form and
      // the dependence set from scratch.
      AM.invalidateAll();
      S.NL = normalizeLoop(AM, S.F, S.Header);
      assert(S.NL.Valid && "inlining destroyed the loop");
      S.L = findLoop(AM.get<LoopInfo>(S.F), S.Header);
      S.Deps = computeDeps(AM, S.F, S.L, S.Stats);
    }
    return preservingAll();
  }
};

/// Metadata between analysis and transformation: dependence statistics,
/// induction variables (collected before lowering adds new code), and the
/// Step-3 counted-loop test.
class CharacterizePass : public LoopPass {
public:
  const char *name() const override { return "characterize"; }
  PassResult run(AnalysisManager &AM, LoopPassState &S) override {
    S.PLI.NumDepsTotal = S.Stats.NumAliasPairs + S.Stats.NumRegCarried +
                         S.Stats.NumExcludedFalse +
                         S.Stats.NumExcludedInduction;
    S.PLI.NumDepsCarried = unsigned(S.Deps.size());
    S.PLI.NumDepsPrunedByRange = S.Stats.NumPrunedByRange;
    S.PLI.Deps = S.Deps;
    S.PLI.IVs = collectIVs(AM, S.F, S.L);
    S.PLI.SelfStartingPrologue =
        prologueIsSelfStarting(AM, S.F, S.L, S.NL, S.Deps);
    return preservingAll();
  }
};

/// Step 4: naive Wait/Signal insertion — sequential-segment construction.
/// Splits edges for landing pads, so the whole CFG family of F goes; the
/// module-wide analyses survive (no calls, globals or memory operations
/// are added — Wait/Signal carry only a segment id).
class WaitSignalPass : public LoopPass {
public:
  const char *name() const override { return "wait-signal"; }
  PassResult run(AnalysisManager &, LoopPassState &S) override {
    S.WS = insertWaitSignals(S.F, S.NL, S.Deps);
    S.PLI.NumWaitsInserted = S.WS.NumWaits;
    S.PLI.NumSignalsInserted = S.WS.NumSignals;
    // S.L points into the LoopInfo the invalidation below drops; null it
    // so a composed custom pass that reads it crashes loudly instead of
    // dereferencing freed memory.
    S.L = nullptr;
    return preserving(PreservedAnalyses::none().preserveModuleAnalyses());
  }
};

/// Step 5b: shrink sequential segments by scheduling. Reorders
/// instructions within blocks only: block set, edges, dominators and loop
/// structure are untouched, and no instruction is added or removed, so
/// the flow-insensitive module analyses hold too. Only liveness — whose
/// point queries are position-sensitive — is abandoned.
class SchedulePass : public LoopPass {
public:
  const char *name() const override { return "schedule"; }
  PassResult run(AnalysisManager &, LoopPassState &S) override {
    if (!S.Opts.EnableScheduling)
      return preservingAll();
    compactSegments(S.NL, S.Deps);
    // Position-sensitive analyses go: liveness point queries, and the
    // value-range facts (factFor replays a block prefix whose instruction
    // order just changed).
    return preserving(PreservedAnalyses::all()
                          .abandon<Liveness>()
                          .abandon<ValueRangeAnalysis>());
  }
};

/// Step 6: minimize signals. Runs even when disabled — it also computes
/// the final segment list the later passes and the engines consume.
/// Rewrites and erases Wait/Signal operations in place; those touch no
/// registers and no memory, so everything but (position-sensitive)
/// liveness is preserved — the counters proving this is what the
/// AnalysisManagerTest preservation assertions pin down.
class SignalOptPass : public LoopPass {
public:
  const char *name() const override { return "signal-opt"; }
  PassResult run(AnalysisManager &, LoopPassState &S) override {
    S.SO = optimizeSignals(S.F, S.NL, S.Deps, S.WS, S.Opts.EnableSignalOpt);
    S.PLI.NumWaitsKept = S.SO.NumWaitsKept;
    S.PLI.NumSignalsKept = S.SO.NumSignalsKept;
    return preserving(PreservedAnalyses::all()
                          .abandon<Liveness>()
                          .abandon<ValueRangeAnalysis>());
  }
};

/// Steps 3 and 7: iteration starts and boundary-variable communication.
/// Creates the storage global and new loads/stores (points-to and memory
/// effects change), splits edges and adds blocks (CFG family changes);
/// only the call graph survives — no call site is created or destroyed.
class LowerPass : public LoopPass {
public:
  const char *name() const override { return "lower"; }
  PassResult run(AnalysisManager &, LoopPassState &S) override {
    S.LR = lowerParallelLoop(S.F, S.NL, S.Deps, S.SO, S.PLI.IVs);
    S.PLI.IterStarts = S.LR.IterStarts;
    S.PLI.StorageGlobal = S.LR.StorageGlobal;
    S.PLI.SlotOfReg = S.LR.SlotOfReg;
    return preserving(PreservedAnalyses::none().preserve<CallGraph>());
  }
};

/// Step 8: space segments so the helper thread can prefetch signals.
/// Same scheduling machinery as Step 5b, same preservation.
class BalancePass : public LoopPass {
public:
  const char *name() const override { return "balance"; }
  PassResult run(AnalysisManager &, LoopPassState &S) override {
    if (!(S.Opts.EnableHelperThreads && S.Opts.EnableBalancing))
      return preservingAll();
    unsigned Delta = unsigned(S.Opts.Machine.UnprefetchedSignalCycles -
                              S.Opts.Machine.PrefetchedSignalCycles);
    balanceSegmentSpacing(S.NL, S.Deps, Delta);
    return preserving(PreservedAnalyses::all()
                          .abandon<Liveness>()
                          .abandon<ValueRangeAnalysis>());
  }
};

/// Publishes the remaining ParallelLoopInfo metadata and verifies the
/// transformed function.
class FinalizePass : public LoopPass {
public:
  const char *name() const override { return "finalize"; }
  PassResult run(AnalysisManager &, LoopPassState &S) override {
    S.PLI.Latch = S.NL.Latch;
    S.PLI.LoopBlocks = S.NL.LoopBlocks;
    S.PLI.PrologueBlocks = S.NL.Prologue;
    S.PLI.BodyBlocks = S.NL.Body;
    S.PLI.Segments = S.SO.Segments;
    for (auto &[SegId, Slots] : S.LR.SlotsReadOfSegment)
      S.PLI.Segments[SegId].SlotsRead = Slots;
    for (BasicBlock *BB : S.NL.LoopBlocks)
      S.PLI.CodeSizeInstrs += BB->size();
    // Seal the finished body so the static checker (src/check) can prove
    // later that nothing rewrote the parallelized code behind its back.
    S.PLI.BodySeal = computeLoopBodySeal(S.PLI);
    // The verifier always runs. Malformed IR is a compiler bug: debug
    // builds stop on it immediately (assert); release builds degrade
    // gracefully by aborting the pass sequence — the loop is dropped, and
    // the mutated code stays sequentially correct since sync ops are
    // no-ops in sequential execution.
    if (!verifyFunction(*S.F).empty()) {
      assert(false && "transformed function malformed");
      return abort();
    }
    return preservingAll();
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// Manager.
//===----------------------------------------------------------------------===//

std::optional<ParallelLoopInfo>
LoopPassManager::run(AnalysisManager &AM, Function *F, BasicBlock *Header,
                     const HelixOptions &Opts,
                     std::vector<LoopPassTiming> *Timings) const {
  LoopPassState S(F, Header, Opts);
  bool MutatedSinceStart = false;
  for (const auto &P : Passes) {
    auto Start = std::chrono::steady_clock::now();
    LoopPass::PassResult Res;
    {
      obs::TraceSpan PassSpan(std::string("pass:") + P->name(), "pass");
      Res = P->run(AM, S);
    }
    if (Timings)
      accumulatePassTiming(
          *Timings, P->name(),
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - Start)
              .count());
    if (Res.Act == LoopPass::PassResult::Action::Abort) {
      // An abort after a mutating pass (e.g. the finalize verifier gate in
      // release builds) means the IR may be malformed mid-transformation;
      // nothing cached over it can be trusted. A pre-mutation abort
      // (normalize: header heads no loop) keeps the caches, which
      // self-invalidating passes left coherent.
      if (MutatedSinceStart)
        AM.invalidateAll();
      return std::nullopt;
    }
    // Preservation-aware invalidation: drop exactly what the pass did not
    // keep intact, dependency-closed, for this function plus the
    // non-preserved module-wide analyses. Analyses of other functions
    // survive the whole sequence — that is the compile-time win over the
    // old invalidate-everything discipline, and the per-kind counters
    // make it assertable.
    if (!Res.Preserved.preservesAll()) {
      AM.invalidate(F, Res.Preserved);
      MutatedSinceStart = true;
    }
  }
  return std::move(S.PLI);
}

void helix::addStandardHelixLoopPasses(LoopPassManager &PM) {
  PM.add(std::make_unique<NormalizePass>())
      .add(std::make_unique<DependencePass>())
      .add(std::make_unique<InlinePass>())
      .add(std::make_unique<CharacterizePass>())
      .add(std::make_unique<WaitSignalPass>())
      .add(std::make_unique<SchedulePass>())
      .add(std::make_unique<SignalOptPass>())
      .add(std::make_unique<LowerPass>())
      .add(std::make_unique<BalancePass>())
      .add(std::make_unique<FinalizePass>());
}
