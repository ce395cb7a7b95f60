//===----------------------------------------------------------------------===//
///
/// \file
/// The analysis identity layer shared by the analysis manager and every
/// client that talks *about* analyses without needing their types: the
/// AnalysisKind enumeration, the PreservedAnalyses set a loop pass returns,
/// and the per-analysis counter report surfaced through PipelineReport and
/// the fuzz campaign summary.
///
/// Dependency graph (an analysis is invalid whenever one of the analyses
/// it consumes is):
///
///   CFG ──────┬─> DominatorTree ──> LoopInfo ──> ValueRange
///             └─> Liveness
///   CallGraph ──> PointsTo ──> MemEffects
///
/// The first five are per-function; the last three are module-wide and
/// additionally read every function's instructions, so a function mutation
/// invalidates them unless the mutating pass explicitly preserves them.
///
//===----------------------------------------------------------------------===//

#ifndef HELIX_ANALYSIS_ANALYSISKINDS_H
#define HELIX_ANALYSIS_ANALYSISKINDS_H

#include <cstdint>
#include <string>
#include <vector>

namespace helix {

class CFGInfo;
class DominatorTree;
class LoopInfo;
class ValueRangeAnalysis;
class Liveness;
class CallGraph;
class PointsToAnalysis;
class MemEffects;

/// Every analysis the manager knows how to build, in dependency order
/// (an analysis only consumes analyses with a smaller kind value).
enum class AnalysisKind : uint8_t {
  CFG,        ///< CFGInfo — per function
  DomTree,    ///< DominatorTree — per function, consumes CFG
  Loops,      ///< LoopInfo — per function, consumes CFG + DomTree
  ValueRange, ///< ValueRangeAnalysis — per function, consumes CFG+DT+Loops
  Liveness,   ///< Liveness — per function, consumes CFG
  CallGraph,  ///< CallGraph — module-wide
  PointsTo,   ///< PointsToAnalysis — module-wide, consumes CallGraph
  MemEffects  ///< MemEffects — module-wide, consumes CallGraph + PointsTo
};

inline constexpr unsigned NumAnalysisKinds = 8;

/// Stable short name ("cfg", "dom-tree", ...) for reports and logs.
const char *analysisKindName(AnalysisKind K);

/// Maps analysis result types to their kind; specialized below. Clients
/// use it through AnalysisManager::get<T> and PreservedAnalyses::preserve<T>.
template <typename T> struct AnalysisTraits;
// clang-format off
template <> struct AnalysisTraits<CFGInfo>         { static constexpr AnalysisKind Kind = AnalysisKind::CFG; };
template <> struct AnalysisTraits<DominatorTree>   { static constexpr AnalysisKind Kind = AnalysisKind::DomTree; };
template <> struct AnalysisTraits<LoopInfo>        { static constexpr AnalysisKind Kind = AnalysisKind::Loops; };
template <> struct AnalysisTraits<ValueRangeAnalysis> { static constexpr AnalysisKind Kind = AnalysisKind::ValueRange; };
template <> struct AnalysisTraits<Liveness>        { static constexpr AnalysisKind Kind = AnalysisKind::Liveness; };
template <> struct AnalysisTraits<CallGraph>       { static constexpr AnalysisKind Kind = AnalysisKind::CallGraph; };
template <> struct AnalysisTraits<PointsToAnalysis>{ static constexpr AnalysisKind Kind = AnalysisKind::PointsTo; };
template <> struct AnalysisTraits<MemEffects>      { static constexpr AnalysisKind Kind = AnalysisKind::MemEffects; };
// clang-format on

/// The set of analyses a transformation left intact. A loop pass returns
/// one of these; the manager drops exactly the complement (closed over the
/// dependency graph, so preserving LoopInfo while abandoning its CFG input
/// still drops LoopInfo).
class PreservedAnalyses {
public:
  /// Nothing was touched: the pass did not mutate the IR in a way any
  /// cached analysis can observe.
  static PreservedAnalyses all() { return PreservedAnalyses(AllMask); }
  /// Nothing survives: the conservative "I changed who-knows-what" answer.
  static PreservedAnalyses none() { return PreservedAnalyses(0); }

  PreservedAnalyses &preserve(AnalysisKind K) {
    Mask |= bit(K);
    return *this;
  }
  PreservedAnalyses &abandon(AnalysisKind K) {
    Mask &= ~bit(K);
    return *this;
  }
  template <typename T> PreservedAnalyses &preserve() {
    return preserve(AnalysisTraits<T>::Kind);
  }
  template <typename T> PreservedAnalyses &abandon() {
    return abandon(AnalysisTraits<T>::Kind);
  }
  /// Preserves the three module-wide analyses (a pass that rewrote one
  /// function's code without touching calls, globals or memory behaviour).
  PreservedAnalyses &preserveModuleAnalyses() {
    return preserve(AnalysisKind::CallGraph)
        .preserve(AnalysisKind::PointsTo)
        .preserve(AnalysisKind::MemEffects);
  }

  bool preserved(AnalysisKind K) const { return Mask & bit(K); }
  bool preservesAll() const { return Mask == AllMask; }

private:
  static constexpr uint8_t AllMask = uint8_t((1u << NumAnalysisKinds) - 1);
  static constexpr uint8_t bit(AnalysisKind K) {
    return uint8_t(1u << unsigned(K));
  }
  explicit PreservedAnalyses(uint8_t Mask) : Mask(Mask) {}
  uint8_t Mask;
};

/// One analysis's cache statistics, as reported by PipelineReport and the
/// fuzz campaign summary. Built counts constructor runs, Hits cache
/// returns, Invalidated cached instances dropped — so Built - Hits ratios
/// quantify how much recomputation the preservation contract avoided.
struct AnalysisCounterReport {
  std::string Analysis; ///< analysisKindName of the kind
  uint64_t Built = 0;
  uint64_t Hits = 0;
  uint64_t Invalidated = 0;
};

/// Folds \p From into \p Into by analysis name (aggregation across loops,
/// fuzz cases or pipeline runs).
void mergeAnalysisCounters(std::vector<AnalysisCounterReport> &Into,
                           const std::vector<AnalysisCounterReport> &From);

} // namespace helix

#endif // HELIX_ANALYSIS_ANALYSISKINDS_H
