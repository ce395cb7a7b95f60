//===----------------------------------------------------------------------===//
///
/// \file
/// The fuzz campaign driver: generate -> differential -> (on divergence)
/// shrink -> persist, fanned out over the shared ThreadPool. Per-case
/// seeds are derived from (campaign seed, case index) alone, so a
/// campaign's modules and verdicts are identical for a given seed no
/// matter how many workers run it or how the scheduler interleaves them.
///
//===----------------------------------------------------------------------===//

#ifndef HELIX_FUZZ_FUZZER_H
#define HELIX_FUZZ_FUZZER_H

#include "fuzz/DifferentialRunner.h"
#include "fuzz/ProgramGenerator.h"

#include <cstdint>
#include <string>
#include <vector>

namespace helix {

struct FuzzOptions {
  uint64_t Seed = 1;
  unsigned Runs = 100;
  /// When non-empty, run exactly these *generator* seeds (one case each);
  /// Seed/Runs are ignored. This is the replay path for a failing case:
  /// pass the case seed a campaign printed, with the campaign's Gen.
  std::vector<uint64_t> CaseSeeds;
  /// Worker threads the cases fan out over (0 = hardware concurrency,
  /// 1 = inline). Execution policy only; results are seed-deterministic.
  unsigned Jobs = 0;
  /// Shrink failing cases with the TestCaseReducer.
  bool Shrink = true;
  /// Directory for repro files of failing cases; empty = don't persist.
  std::string CorpusDir;
  GeneratorConfig Gen;
  DiffConfig Diff;
};

/// One named generator-configuration variant.
struct FuzzVariant {
  std::string Name;
  GeneratorConfig Config;
};

/// The deterministic variant table derived from \p Base. Index 0 is Base
/// itself; the others push individual knobs toward shapes that stress the
/// transform's accept/reject boundary (deep nests, flat loops, many
/// kernels, short/long trips, heavy/no local buffers, no leaf calls).
/// Stable across runs of the same binary, so a printed variant index
/// replays the same configuration.
std::vector<FuzzVariant> fuzzScheduleVariants(const GeneratorConfig &Base);

/// One failing (or inconclusive) case of a campaign.
struct FuzzFailure {
  unsigned CaseIndex = 0;
  uint64_t CaseSeed = 0;
  bool Inconclusive = false;
  /// The dynamic legs were clean but the static SyncChecker reported
  /// findings on an *uninjected* campaign — either a transform bug the
  /// oracle's schedules missed or a checker false positive; both demand a
  /// look, so the case fails the campaign.
  bool StaticAlarm = false;
  /// The divergence is a dependence-soundness violation: the transformed
  /// sequential leg witnessed a loop-carried memory dependence the static
  /// DDG never synchronized (DiffOutcome::Kind::DepUnsound).
  bool DepUnsound = false;
  std::string Detail;
  std::string ReproText;        ///< original failing module
  std::string ShrunkText;       ///< reduced module ("" when not shrunk)
  unsigned ShrunkInstrs = 0;
  std::string ReproPath;        ///< original repro on disk (CorpusDir set)
  std::string ShrunkPath;       ///< shrunk repro on disk (CorpusDir set)
};

struct FuzzSummary {
  unsigned Runs = 0;
  unsigned Clean = 0;
  unsigned Divergent = 0;
  unsigned Inconclusive = 0;
  /// Cases where HELIX accepted no loop at all (coverage signal).
  unsigned Untransformed = 0;
  uint64_t LoopsAttempted = 0;
  uint64_t LoopsTransformed = 0;

  /// Static-checker leg (runs before any dynamic execution, per case).
  uint64_t StaticLoopsChecked = 0; ///< loops the SyncChecker verified
  uint64_t StaticFindings = 0;     ///< diagnostics across all cases
  unsigned StaticFlagged = 0;      ///< cases with >= 1 static finding
  unsigned StaticConfirmed = 0;    ///< flagged cases the oracle also caught
  unsigned StaticOnly = 0;         ///< flagged cases the oracle missed
  unsigned StaticAlarms = 0;       ///< StaticOnly cases on an uninjected
                                   ///< campaign (reported as failures)
  unsigned InjectedCases = 0;      ///< cases where the injection applied
  unsigned InjectedStaticFlagged = 0; ///< of those, flagged statically

  /// Dependence-soundness audit (check/DepAudit), aggregated over every
  /// case's transformed-sequential leg. DepUnsoundCases are counted in
  /// Divergent too — this splits out the DDG-soundness class.
  uint64_t DepLoopsAudited = 0;
  uint64_t DepWitnessed = 0;        ///< witnessed cross-iteration deps
  uint64_t DepCovered = 0;          ///< of those, synchronized (sound)
  uint64_t DepUncovered = 0;        ///< of those, missed by D_data
  uint64_t DepStaticMemDeps = 0;    ///< static memory deps of audited loops
  uint64_t DepStaticUnwitnessed = 0; ///< never witnessed (precision gap)
  unsigned DepUnsoundCases = 0;     ///< cases failing with DEP-UNSOUND

  std::vector<FuzzFailure> Failures;
  /// Transform pass timing aggregated over every case.
  std::vector<LoopPassTiming> PassTimings;
  /// Analysis-cache counters aggregated over every case's transform leg.
  std::vector<AnalysisCounterReport> AnalysisCounters;
};

/// Derives the generator seed of case \p Index of campaign \p Seed.
uint64_t fuzzCaseSeed(uint64_t Seed, unsigned Index);

/// Runs the campaign. Deterministic for (Options.Seed, Options.Runs,
/// generator/differential configs); Jobs only changes the schedule.
FuzzSummary runFuzzCampaign(const FuzzOptions &Options);

} // namespace helix

#endif // HELIX_FUZZ_FUZZER_H
