//===----------------------------------------------------------------------===//
///
/// \file
/// The lazy, preservation-aware analysis manager. Each analysis is built
/// on first request through a typed accessor (`AM.get<DominatorTree>(F)`,
/// `AM.get<PointsToAnalysis>()`), caching the result until an invalidation
/// drops it. Invalidation is keyed by what a transformation *preserved*
/// (PreservedAnalyses, see AnalysisKinds.h) and cascades along the real
/// dependency graph: dropping CFG drops the dominator tree, loop info and
/// liveness built from it; dropping the call graph drops points-to and the
/// memory-effect summaries.
///
/// Per-analysis build/hit/invalidate counters make the cache behaviour
/// observable: tests assert that a pass which claims to preserve the
/// dominator tree really never forces a rebuild, and bench_pass_performance
/// reports the counters so preservation regressions show up in CI logs.
///
/// Determinism: per-function state lives in slots assigned in first-use
/// order and is never iterated by key, so no behaviour ever depends on
/// heap layout (the `std::map<Function *, ...>` of the former
/// ModuleAnalyses was address-ordered — the exact nondeterminism class the
/// parallel model-profile work had to root-cause in LoopInfo).
///
//===----------------------------------------------------------------------===//

#ifndef HELIX_ANALYSIS_ANALYSISMANAGER_H
#define HELIX_ANALYSIS_ANALYSISMANAGER_H

#include "analysis/AnalysisKinds.h"
#include "analysis/CallGraph.h"
#include "analysis/Dominators.h"
#include "analysis/Liveness.h"
#include "analysis/LoopInfo.h"
#include "analysis/PointsTo.h"
#include "analysis/ValueRange.h"

#include <array>
#include <memory>
#include <unordered_map>
#include <vector>

namespace helix {

/// Lazy per-module analysis cache with preservation-aware invalidation.
class AnalysisManager {
public:
  explicit AnalysisManager(Module &M) : M(M) {}

  AnalysisManager(const AnalysisManager &) = delete;
  AnalysisManager &operator=(const AnalysisManager &) = delete;

  Module &module() { return M; }

  // --- Typed lazy accessors ----------------------------------------------
  // Function-scoped. Building an analysis first builds (or reuses) the
  // analyses it consumes, so a single get<LoopInfo> may count up to three
  // builds. References stay valid until the analysis is invalidated.

  template <typename T> T &get(Function *F) = delete;

  // Module-scoped.
  template <typename T> T &get() = delete;

  // --- Introspection (tests, pass-manager assertions) --------------------

  template <typename T> bool isCached(const Function *F) const {
    const FnEntry *E = findEntry(F);
    return E && isCachedKind(*E, AnalysisTraits<T>::Kind);
  }
  template <typename T> bool isCached() const {
    return isCachedModuleKind(AnalysisTraits<T>::Kind);
  }

  /// Functions with at least one cached analysis.
  size_t numCachedFunctionAnalyses() const {
    size_t N = 0;
    for (const auto &E : Entries)
      N += E->hasAny();
    return N;
  }
  bool hasModuleAnalyses() const { return CG || PT || ME; }

  /// Bumped by every invalidation; lets clients assert that a
  /// transformation explicitly invalidated what it touched.
  uint64_t invalidationEpoch() const { return Epoch; }

  // --- Invalidation ------------------------------------------------------

  /// Drops every analysis of \p F and every module-wide analysis: the
  /// conservative "F changed arbitrarily" call.
  void invalidate(Function *F) { invalidate(F, PreservedAnalyses::none()); }

  /// Drops the analyses of \p F that \p PA did not preserve, closed over
  /// the dependency graph, plus the non-preserved module-wide analyses
  /// (they read F's instructions). Analyses of other functions survive.
  void invalidate(Function *F, PreservedAnalyses PA);

  /// Drops everything, including module-level analyses.
  void invalidateAll();

  /// Baseline mode for A/B measurements: every invalidate() behaves like
  /// invalidateAll(), i.e. the pre-preservation world where any mutating
  /// pass nuked the whole cache. Counters keep recording, so the win of
  /// the preservation contract is measurable as a build-count delta on
  /// the same workload.
  void setConservativeInvalidation(bool V) { Conservative = V; }

  // --- Counters ----------------------------------------------------------

  struct AnalysisStats {
    uint64_t Built = 0;       ///< constructor runs
    uint64_t Hits = 0;        ///< cache returns without building
    uint64_t Invalidated = 0; ///< cached instances dropped
  };
  const AnalysisStats &stats(AnalysisKind K) const {
    return Stats[unsigned(K)];
  }
  /// Snapshot of every kind's counters, named for reports.
  std::vector<AnalysisCounterReport> counterReport() const;

private:
  // One function's analyses. Heap-allocated behind a unique_ptr in
  // Entries, so references stay stable across cache growth.
  struct FnEntry {
    std::unique_ptr<CFGInfo> CFG;
    std::unique_ptr<DominatorTree> DT;
    std::unique_ptr<LoopInfo> LI;
    std::unique_ptr<ValueRangeAnalysis> VR;
    std::unique_ptr<Liveness> LV;
    bool hasAny() const { return CFG || DT || LI || VR || LV; }
  };

  static bool isCachedKind(const FnEntry &E, AnalysisKind K) {
    switch (K) {
    case AnalysisKind::CFG:
      return E.CFG != nullptr;
    case AnalysisKind::DomTree:
      return E.DT != nullptr;
    case AnalysisKind::Loops:
      return E.LI != nullptr;
    case AnalysisKind::ValueRange:
      return E.VR != nullptr;
    case AnalysisKind::Liveness:
      return E.LV != nullptr;
    default:
      return false;
    }
  }
  bool isCachedModuleKind(AnalysisKind K) const {
    switch (K) {
    case AnalysisKind::CallGraph:
      return CG != nullptr;
    case AnalysisKind::PointsTo:
      return PT != nullptr;
    case AnalysisKind::MemEffects:
      return ME != nullptr;
    default:
      return false;
    }
  }

  FnEntry &entry(Function *F);
  const FnEntry *findEntry(const Function *F) const {
    auto It = SlotOf.find(F);
    return It == SlotOf.end() ? nullptr : Entries[It->second].get();
  }

  void noteBuilt(AnalysisKind K) { ++Stats[unsigned(K)].Built; }
  void noteHit(AnalysisKind K) { ++Stats[unsigned(K)].Hits; }
  void noteDropped(AnalysisKind K) { ++Stats[unsigned(K)].Invalidated; }

  /// Kinds to drop for a preserved-set: the complement of \p PA closed
  /// over the dependency graph (a kind is dropped when not preserved or
  /// when any kind it consumes is dropped). Returns a bit per kind.
  static unsigned invalidationClosure(PreservedAnalyses PA);

  void dropFunctionKinds(FnEntry &E, unsigned DropMask);
  void dropModuleKinds(unsigned DropMask);

  Module &M;
  /// Iteration-free per-function storage: slots are assigned in first-use
  /// order; the pointer map is only ever used for point lookups. Nothing
  /// here may be iterated in key order.
  std::vector<std::unique_ptr<FnEntry>> Entries;
  std::unordered_map<const Function *, size_t> SlotOf;

  // Module-scoped analyses.
  std::unique_ptr<CallGraph> CG;
  std::unique_ptr<PointsToAnalysis> PT;
  std::unique_ptr<MemEffects> ME;

  std::array<AnalysisStats, NumAnalysisKinds> Stats;
  uint64_t Epoch = 0;
  bool Conservative = false;
};

// --- get<> specializations -----------------------------------------------
// The hit path is one cache lookup and one counter bump: the invalidation
// closure guarantees a cached analysis implies its dependencies are valid
// (dropping CFG always drops everything built from it), so dependencies
// are only walked — and counted — on the build path. This matters because
// the profiler queries get<LoopInfo> on every interpreted CFG edge.
// FnEntry references are stable across the nested get<> calls (entries
// live behind unique_ptrs).

template <> inline CFGInfo &AnalysisManager::get<CFGInfo>(Function *F) {
  FnEntry &E = entry(F);
  if (E.CFG) {
    noteHit(AnalysisKind::CFG);
    return *E.CFG;
  }
  E.CFG = std::make_unique<CFGInfo>(F);
  noteBuilt(AnalysisKind::CFG);
  return *E.CFG;
}

template <>
inline DominatorTree &AnalysisManager::get<DominatorTree>(Function *F) {
  FnEntry &E = entry(F);
  if (E.DT) {
    noteHit(AnalysisKind::DomTree);
    return *E.DT;
  }
  CFGInfo &CFG = get<CFGInfo>(F);
  E.DT = std::make_unique<DominatorTree>(F, CFG);
  noteBuilt(AnalysisKind::DomTree);
  return *E.DT;
}

template <> inline LoopInfo &AnalysisManager::get<LoopInfo>(Function *F) {
  FnEntry &E = entry(F);
  if (E.LI) {
    noteHit(AnalysisKind::Loops);
    return *E.LI;
  }
  CFGInfo &CFG = get<CFGInfo>(F);
  DominatorTree &DT = get<DominatorTree>(F);
  E.LI = std::make_unique<LoopInfo>(F, CFG, DT);
  noteBuilt(AnalysisKind::Loops);
  return *E.LI;
}

template <>
inline ValueRangeAnalysis &AnalysisManager::get<ValueRangeAnalysis>(Function *F) {
  FnEntry &E = entry(F);
  if (E.VR) {
    noteHit(AnalysisKind::ValueRange);
    return *E.VR;
  }
  CFGInfo &CFG = get<CFGInfo>(F);
  DominatorTree &DT = get<DominatorTree>(F);
  LoopInfo &LI = get<LoopInfo>(F);
  E.VR = std::make_unique<ValueRangeAnalysis>(F, CFG, DT, LI);
  noteBuilt(AnalysisKind::ValueRange);
  return *E.VR;
}

template <> inline Liveness &AnalysisManager::get<Liveness>(Function *F) {
  FnEntry &E = entry(F);
  if (E.LV) {
    noteHit(AnalysisKind::Liveness);
    return *E.LV;
  }
  CFGInfo &CFG = get<CFGInfo>(F);
  E.LV = std::make_unique<Liveness>(F, CFG);
  noteBuilt(AnalysisKind::Liveness);
  return *E.LV;
}

template <> inline CallGraph &AnalysisManager::get<CallGraph>() {
  if (CG) {
    noteHit(AnalysisKind::CallGraph);
    return *CG;
  }
  CG = std::make_unique<CallGraph>(M);
  noteBuilt(AnalysisKind::CallGraph);
  return *CG;
}

template <> inline PointsToAnalysis &AnalysisManager::get<PointsToAnalysis>() {
  if (PT) {
    noteHit(AnalysisKind::PointsTo);
    return *PT;
  }
  CallGraph &TheCG = get<CallGraph>();
  PT = std::make_unique<PointsToAnalysis>(M, TheCG);
  noteBuilt(AnalysisKind::PointsTo);
  return *PT;
}

template <> inline MemEffects &AnalysisManager::get<MemEffects>() {
  if (ME) {
    noteHit(AnalysisKind::MemEffects);
    return *ME;
  }
  CallGraph &TheCG = get<CallGraph>();
  PointsToAnalysis &ThePT = get<PointsToAnalysis>();
  ME = std::make_unique<MemEffects>(M, TheCG, ThePT);
  noteBuilt(AnalysisKind::MemEffects);
  return *ME;
}

} // namespace helix

#endif // HELIX_ANALYSIS_ANALYSISMANAGER_H
