//===----------------------------------------------------------------------===//
///
/// \file
/// The differential oracle of the fuzzing subsystem. One module is
/// executed three independent ways:
///
///   1. sequential:   the plain Interpreter on an untouched clone;
///   2. transformed:  every top-level loop HELIX can parallelize is
///                    transformed, then the module runs *sequentially*
///                    again — exactly the Step-9 claim that sync ops are
///                    no-ops in single-threaded execution;
///   3. threaded:     the transformed module under runThreaded at several
///                    thread counts — true concurrency on std::threads.
///
/// Any checksum or trap divergence between the three is a bug in the
/// transform or in one of the execution engines. A cheap simulator sanity
/// check rides along: the CMP timing simulation of the transformed program
/// must not exceed its traced sequential time by more than a generous
/// slack (catching pathological blow-ups and accounting bugs, not mere
/// unprofitability).
///
/// Bug injection deliberately breaks the transformed module so tests (and
/// `helix-fuzz --inject-bug`) can prove the oracle and the reducer work.
///
//===----------------------------------------------------------------------===//

#ifndef HELIX_FUZZ_DIFFERENTIALRUNNER_H
#define HELIX_FUZZ_DIFFERENTIALRUNNER_H

#include "helix/LoopPasses.h"
#include "ir/Module.h"

#include <cstdint>
#include <string>
#include <vector>

namespace helix {

/// Deliberate, deterministic corruptions of the transformed module.
enum class BugInjection {
  None,
  /// Flips the first commutative ALU op in a parallelized loop body
  /// (Add<->Sub). Breaks sequential equivalence deterministically; the
  /// transformed-sequential leg catches it.
  FlipFirstBodyOp,
  /// Turns the Waits of the first sequential segment into Nops. Sequential
  /// legs still agree (Wait is a no-op there); only true concurrency can
  /// expose the lost synchronization.
  DropFirstSegmentWaits,
};

struct DiffConfig {
  /// Worker counts for the threaded leg (paper Figure 9: 2/4/6 cores).
  std::vector<unsigned> ThreadCounts = {2, 4, 6};
  /// Interpreter budget of the sequential leg; the transformed and
  /// threaded legs get four times this (sync ops add instructions).
  uint64_t MaxInstructions = 20ull * 1000 * 1000;
  /// Sim sanity: simulated ParallelCycles <= traced seq cycles *
  /// SimSlackFactor + SimSlackCycles. Generous by design — loops are
  /// transformed without profitability selection here, so honest
  /// slowdowns (serial chains paying per-signal latency) are expected;
  /// only pathological blow-ups should trip it.
  double SimSlackFactor = 16.0;
  uint64_t SimSlackCycles = 200 * 1000;
  unsigned SimCores = 6;
  /// Audit the static dependence graph against the cross-iteration memory
  /// dependences the transformed-sequential leg actually exhibits
  /// (check/DepAudit). An uncovered witness is a DEP-UNSOUND divergence —
  /// reported before any threaded leg runs, since a racing schedule may
  /// mask it dynamically.
  bool AuditDeps = true;
  HelixOptions Helix;
  BugInjection Inject = BugInjection::None;
};

/// What one differential execution observed.
struct DiffOutcome {
  /// Checksum/trap mismatch between the legs, or a sim-sanity violation.
  bool Divergence = false;
  /// Which leg diverged. Shrinking uses this to rerun only the legs that
  /// matter (a sequential-leg divergence needs no threaded runs).
  enum class Leg { None, TransformedSeq, DepAudit, Threaded, Sim };
  Leg DivergentLeg = Leg::None;
  /// How it diverged. Shrinking preserves the kind, so a checksum
  /// mismatch cannot degrade into, say, an unrelated endless loop.
  enum class Kind { None, Checksum, Trap, Hang, SimBlowup, DepUnsound };
  Kind DivergentKind = Kind::None;
  /// Human-readable description of the first divergence (empty if clean).
  std::string Detail;
  /// The run could not judge equivalence (e.g. the sequential leg blew
  /// the instruction budget). Not a divergence; the fuzzer counts these
  /// separately.
  bool Inconclusive = false;

  unsigned LoopsTransformed = 0; ///< parallelizeLoop successes
  unsigned LoopsAttempted = 0;   ///< top-level loops offered to HELIX
  bool InjectionApplied = false; ///< requested corruption found a target

  /// Pre-execution leg: SyncChecker findings on the transformed (and
  /// possibly bug-injected) module, before any dynamic leg runs. A static
  /// finding the dynamic oracle confirms is corroboration; one the oracle
  /// misses is the checker's value-add — the campaign counts both.
  unsigned StaticFindings = 0;
  unsigned StaticLoopsChecked = 0;
  std::vector<std::string> StaticDiags; ///< rendered findings, in order

  /// Dependence-soundness audit of the transformed-sequential leg
  /// (check/DepAudit): witnessed cross-iteration memory dependences
  /// checked against the synchronized D_data. Uncovered > 0 is a
  /// DEP-UNSOUND divergence; StaticUnwitnessed measures precision only.
  unsigned DepLoopsAudited = 0;
  unsigned DepWitnessed = 0;
  unsigned DepCovered = 0;
  unsigned DepUncovered = 0;
  unsigned DepStaticMemDeps = 0;
  unsigned DepStaticUnwitnessed = 0;
  std::vector<std::string> DepDiags; ///< rendered uncovered witnesses

  bool SeqOk = false;
  int64_t SeqChecksum = 0;
  uint64_t SeqCycles = 0;
  uint64_t SeqInstructions = 0;
  uint64_t SimParCycles = 0;

  /// Per-pass wall time of the HELIX transforms this run performed,
  /// aggregated over loops (LoopPassManager instrumentation).
  std::vector<LoopPassTiming> PassTimings;

  /// Analysis-cache counters of the transform leg's AnalysisManager
  /// (build/hit/invalidate per analysis). The campaign driver aggregates
  /// them so preservation regressions surface in `helix-fuzz` output.
  std::vector<AnalysisCounterReport> AnalysisCounters;
};

/// Runs the three-way differential on \p M. The module itself is never
/// mutated (all legs run on clones).
DiffOutcome runDifferential(const Module &M, const DiffConfig &Config = {});

} // namespace helix

#endif // HELIX_FUZZ_DIFFERENTIALRUNNER_H
