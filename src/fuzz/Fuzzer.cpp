#include "fuzz/Fuzzer.h"

#include "exec/ExecLimits.h"
#include "fuzz/TestCaseReducer.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "support/Format.h"
#include "support/Random.h"
#include "support/ThreadPool.h"

#include <filesystem>
#include <fstream>

using namespace helix;

uint64_t helix::fuzzCaseSeed(uint64_t Seed, unsigned Index) {
  // One SplitMix64 step over a (seed, index) mix: cases are independent of
  // each other and of the worker schedule.
  return Rng(Seed ^ (0x9E3779B97F4A7C15ull * (uint64_t(Index) + 1))).next();
}

std::vector<FuzzVariant>
helix::fuzzScheduleVariants(const GeneratorConfig &Base) {
  std::vector<FuzzVariant> Out;
  auto Add = [&](const char *Name, auto Tweak) {
    FuzzVariant V;
    V.Name = Name;
    V.Config = Base;
    Tweak(V.Config);
    Out.push_back(std::move(V));
  };
  Add("base", [](GeneratorConfig &) {});
  Add("flat", [](GeneratorConfig &C) { C.MaxLoopDepth = 1; });
  Add("deep-nest", [](GeneratorConfig &C) { C.MaxLoopDepth += 1; });
  Add("many-kernels", [](GeneratorConfig &C) { C.MinKernels = C.MaxKernels; });
  Add("short-trip", [](GeneratorConfig &C) {
    C.MinTrip = 2;
    C.MaxTrip = 4;
  });
  Add("long-trip", [](GeneratorConfig &C) {
    C.MinTrip = 12;
    C.MaxTrip = 30;
  });
  Add("buffers", [](GeneratorConfig &C) { C.LocalBufferProb = 0.9; });
  Add("plain", [](GeneratorConfig &C) {
    C.LocalBufferProb = 0.0;
    C.MaxLeafFuncs = 0;
  });
  return Out;
}

namespace {

/// Everything one worker records about its case; merged in index order.
struct CaseResult {
  DiffOutcome Outcome;
  std::string ReproText;  ///< filled on divergence/inconclusive
  std::string ShrunkText; ///< filled when shrinking succeeded
  unsigned ShrunkInstrs = 0;
};

void writeRepro(const std::string &Dir, const std::string &Name,
                uint64_t CaseSeed, const std::string &Detail,
                const std::string &Text, std::string &PathOut) {
  std::error_code EC;
  std::filesystem::create_directories(Dir, EC);
  std::string Path = Dir + "/" + Name;
  std::ofstream OS(Path);
  if (!OS)
    return;
  // '#' starts a comment in the IR grammar: the repro stays parseable.
  OS << "# helix-fuzz repro; case seed 0x" << std::hex << CaseSeed
     << std::dec << "\n";
  OS << "# " << Detail << "\n";
  OS << Text;
  PathOut = Path;
}

} // namespace

FuzzSummary helix::runFuzzCampaign(const FuzzOptions &Options) {
  FuzzSummary Summary;
  unsigned Runs = Options.CaseSeeds.empty()
                      ? Options.Runs
                      : unsigned(Options.CaseSeeds.size());
  auto CaseSeedOf = [&](unsigned Index) {
    return Options.CaseSeeds.empty() ? fuzzCaseSeed(Options.Seed, Index)
                                     : Options.CaseSeeds[Index];
  };
  Summary.Runs = Runs;

  std::vector<CaseResult> Results(Runs);
  parallelForEach(Options.Jobs, Runs, [&](size_t K) {
    unsigned Index = unsigned(K);
    obs::TraceSpan CaseSpan("fuzz.case", "fuzz");
    obs::MetricsRegistry::global().counter("fuzz.cases").add();
    CaseResult &R = Results[Index];
    std::unique_ptr<Module> M =
        generateProgram(CaseSeedOf(Index), Options.Gen);
    R.Outcome = runDifferential(*M, Options.Diff);
    // On an uninjected campaign a static finding fails the case even
    // when every dynamic leg was clean, so its repro is needed too.
    bool StaticAlarm = Options.Diff.Inject == BugInjection::None &&
                       R.Outcome.StaticFindings != 0;
    if (!R.Outcome.Divergence && !R.Outcome.Inconclusive && !StaticAlarm)
      return;
    R.ReproText = M->toString();
    if (R.Outcome.Divergence && Options.Shrink) {
      // The shrink oracle replays the divergence hundreds of times; make
      // each replay as cheap as the original failure allows. A candidate
      // whose edit created an endless loop dies on the tightened budget
      // instead of burning the full campaign budget, and the threaded
      // legs only run when the divergence actually needed threads.
      DiffConfig Replay = Options.Diff;
      Replay.MaxInstructions =
          ExecLimits::hangBudget(R.Outcome.SeqInstructions);
      if (R.Outcome.DivergentLeg != DiffOutcome::Leg::Threaded)
        Replay.ThreadCounts.clear();
      DiffOutcome::Kind Kind = R.Outcome.DivergentKind;
      ReduceResult Reduced = reduceTestCase(*M, [&](const Module &Cand) {
        DiffOutcome O = runDifferential(Cand, Replay);
        return O.Divergence && O.DivergentKind == Kind;
      });
      R.ShrunkText = Reduced.Text;
      R.ShrunkInstrs = Reduced.InstrsAfter;
    }
  });

  for (unsigned Index = 0; Index != Runs; ++Index) {
    const CaseResult &R = Results[Index];
    Summary.LoopsAttempted += R.Outcome.LoopsAttempted;
    Summary.LoopsTransformed += R.Outcome.LoopsTransformed;
    if (R.Outcome.LoopsTransformed == 0)
      ++Summary.Untransformed;
    mergePassTimings(Summary.PassTimings, R.Outcome.PassTimings);
    mergeAnalysisCounters(Summary.AnalysisCounters, R.Outcome.AnalysisCounters);

    Summary.StaticLoopsChecked += R.Outcome.StaticLoopsChecked;
    Summary.StaticFindings += R.Outcome.StaticFindings;
    if (R.Outcome.StaticFindings) {
      ++Summary.StaticFlagged;
      if (R.Outcome.Divergence)
        ++Summary.StaticConfirmed;
      else
        ++Summary.StaticOnly;
    }
    if (R.Outcome.InjectionApplied) {
      ++Summary.InjectedCases;
      if (R.Outcome.StaticFindings)
        ++Summary.InjectedStaticFlagged;
    }

    Summary.DepLoopsAudited += R.Outcome.DepLoopsAudited;
    Summary.DepWitnessed += R.Outcome.DepWitnessed;
    Summary.DepCovered += R.Outcome.DepCovered;
    Summary.DepUncovered += R.Outcome.DepUncovered;
    Summary.DepStaticMemDeps += R.Outcome.DepStaticMemDeps;
    Summary.DepStaticUnwitnessed += R.Outcome.DepStaticUnwitnessed;
    if (R.Outcome.DivergentKind == DiffOutcome::Kind::DepUnsound)
      ++Summary.DepUnsoundCases;

    bool StaticAlarm = Options.Diff.Inject == BugInjection::None &&
                       R.Outcome.StaticFindings != 0 &&
                       !R.Outcome.Divergence && !R.Outcome.Inconclusive;
    if (!R.Outcome.Divergence && !R.Outcome.Inconclusive && !StaticAlarm) {
      ++Summary.Clean;
      continue;
    }
    FuzzFailure F;
    F.CaseIndex = Index;
    F.CaseSeed = CaseSeedOf(Index);
    F.Inconclusive = R.Outcome.Inconclusive;
    F.StaticAlarm = StaticAlarm;
    F.DepUnsound =
        R.Outcome.DivergentKind == DiffOutcome::Kind::DepUnsound;
    F.Detail = R.Outcome.Detail;
    if (StaticAlarm) {
      F.Detail = formatStr("static sync check: %s",
                           R.Outcome.StaticDiags.empty()
                               ? "finding"
                               : R.Outcome.StaticDiags.front().c_str());
      if (R.Outcome.StaticDiags.size() > 1)
        F.Detail +=
            formatStr(" (+%zu more)", R.Outcome.StaticDiags.size() - 1);
    }
    F.ReproText = R.ReproText;
    F.ShrunkText = R.ShrunkText;
    F.ShrunkInstrs = R.ShrunkInstrs;
    if (R.Outcome.Inconclusive)
      ++Summary.Inconclusive;
    else if (StaticAlarm)
      ++Summary.StaticAlarms;
    else
      ++Summary.Divergent;

    // Inconclusive cases are persisted too: they make the run non-clean
    // (the CLI exits nonzero), so CI's artifact upload must have the
    // module, not just a case seed in the log.
    if (!Options.CorpusDir.empty()) {
      std::string Base = formatStr(
          "%s-%04u-%016llx",
          F.DepUnsound        ? "dep"
          : R.Outcome.Divergence ? "div"
          : F.StaticAlarm        ? "static"
                                 : "inc",
          Index, (unsigned long long)F.CaseSeed);
      writeRepro(Options.CorpusDir, Base + ".ir", F.CaseSeed, F.Detail,
                 F.ReproText, F.ReproPath);
      if (!F.ShrunkText.empty())
        writeRepro(Options.CorpusDir, Base + ".shrunk.ir", F.CaseSeed,
                   F.Detail, F.ShrunkText, F.ShrunkPath);
    }
    Summary.Failures.push_back(std::move(F));
  }
  obs::MetricsRegistry &MR = obs::MetricsRegistry::global();
  MR.counter("fuzz.divergent").add(Summary.Divergent);
  MR.counter("fuzz.inconclusive").add(Summary.Inconclusive);
  MR.counter("fuzz.static_alarms").add(Summary.StaticAlarms);
  MR.counter("fuzz.dep_unsound").add(Summary.DepUnsoundCases);
  MR.counter("fuzz.dep_witnessed").add(Summary.DepWitnessed);
  MR.counter("fuzz.dep_uncovered").add(Summary.DepUncovered);
  return Summary;
}
