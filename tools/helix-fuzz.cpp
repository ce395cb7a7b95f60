//===----------------------------------------------------------------------===//
///
/// \file
/// helix-fuzz: differential fuzzing of the HELIX pipeline from the command
/// line.
///
///   helix-fuzz --seed 1 --runs 500 --corpus fuzz-corpus
///   helix-fuzz --case-seed 0xec779c3693f88501     # replay one case
///   helix-fuzz --replay fuzz-corpus/div-0003-....shrunk.ir
///
/// Each case generates a random loop program, executes it sequentially,
/// transformed-sequentially and threaded (2/4/6 workers by default), and
/// reports any checksum/trap divergence. Failing cases are shrunk and
/// written to the corpus directory as parseable .ir repro files; replay a
/// printed case seed with --case-seed, or run the differential oracle
/// directly on a saved .ir repro with --replay.
///
/// Exit codes: 0 = all cases differentially clean, 1 = divergence found,
/// 2 = bad usage, 3 = no divergence but some cases were inconclusive
/// (nothing was actually compared for them — not a clean run).
///
//===----------------------------------------------------------------------===//

#include "fuzz/FuzzJson.h"
#include "fuzz/Fuzzer.h"
#include "ir/IRParser.h"
#include "obs/Trace.h"
#include "support/Format.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace helix;

namespace {

void usage() {
  std::printf(
      "usage: helix-fuzz [options]\n"
      "  --seed N          campaign seed (default 1)\n"
      "  --runs N          number of generated programs (default 100)\n"
      "  --case-seed X     replay exactly this generator seed (repeatable;\n"
      "                    overrides --seed/--runs)\n"
      "  --gen-variant N   build every case, in a campaign or a --case-seed\n"
      "                    replay, with generator variant N (default 0, the\n"
      "                    base configuration; 0-7: base, flat, deep-nest,\n"
      "                    many-kernels, short-trip, long-trip, buffers,\n"
      "                    plain)\n"
      "  --replay FILE     run the differential oracle on a saved .ir repro\n"
      "                    (repeatable; overrides seed-based generation)\n"
      "  --jobs N          worker threads (0 = hardware, default)\n"
      "  --threads A,B,..  thread counts of the threaded leg (default "
      "2,4,6)\n"
      "  --corpus DIR      write repro files of failing cases here\n"
      "  --shrink          shrink failing cases (default)\n"
      "  --no-shrink       keep failing cases unreduced\n"
      "  --max-instrs N    interpreter budget per sequential run\n"
      "  --inject-bug K    deliberately corrupt the transform to prove the\n"
      "                    oracle works; K = flip | drop-waits\n"
      "  --json FILE       also write the campaign summary as JSON\n"
      "  --trace-out FILE  record trace spans (one per fuzz case, plus the\n"
      "                    pipeline stages and passes under each) and write\n"
      "                    them as Chrome trace_event JSON on exit\n"
      "  --require-static-catch\n"
      "                    with --inject-bug: exit 0 iff the static sync\n"
      "                    checker flagged every case the injection hit\n"
      "                    (the injected divergences themselves are\n"
      "                    expected and do not fail the run)\n"
      "  --require-dep-sound\n"
      "                    CI soundness gate: fail unless the dependence\n"
      "                    audit actually ran (>= 1 loop audited) and every\n"
      "                    witnessed loop-carried memory dependence was\n"
      "                    covered by the static D_data\n"
      "  --no-dep-audit    skip the dependence-soundness audit leg\n");
}

bool parseUnsigned(const char *S, uint64_t &Out) {
  char *End = nullptr;
  Out = std::strtoull(S, &End, 0);
  return End && *End == '\0' && End != S;
}

void printAnalysisCounters(const std::vector<AnalysisCounterReport> &Counters) {
  if (Counters.empty())
    return;
  std::printf("analysis cache:");
  for (const AnalysisCounterReport &C : Counters)
    if (C.Built || C.Hits || C.Invalidated)
      std::printf(" %s=%llu/%llu/%llu", C.Analysis.c_str(),
                  (unsigned long long)C.Built, (unsigned long long)C.Hits,
                  (unsigned long long)C.Invalidated);
  std::printf(" (built/hits/invalidated)\n");
}

/// Runs the oracle directly on saved .ir repro files ('#' comment lines
/// are part of the IR grammar, so campaign repros load unmodified).
/// \returns the process exit code.
int replayFiles(const std::vector<std::string> &Files, const DiffConfig &C) {
  unsigned Divergent = 0, Inconclusive = 0;
  std::vector<AnalysisCounterReport> Counters;
  for (const std::string &Path : Files) {
    std::ifstream In(Path);
    if (!In) {
      std::fprintf(stderr, "helix-fuzz: cannot read '%s'\n", Path.c_str());
      return 2;
    }
    std::ostringstream SS;
    SS << In.rdbuf();
    ParseResult P = parseModule(SS.str());
    if (!P.succeeded()) {
      std::fprintf(stderr, "helix-fuzz: '%s' does not parse: %s\n",
                   Path.c_str(), P.Error.c_str());
      return 2;
    }
    DiffOutcome O = runDifferential(*P.M, C);
    mergeAnalysisCounters(Counters, O.AnalysisCounters);
    const char *Verdict =
        O.DivergentKind == DiffOutcome::Kind::DepUnsound ? "DEP-UNSOUND"
        : O.Divergence                                   ? "DIVERGENCE"
        : O.Inconclusive                                 ? "INCONCLUSIVE"
                                                         : "clean";
    std::printf("%s: %s (%u/%u loops transformed, seq checksum %lld)%s%s\n",
                Path.c_str(), Verdict, O.LoopsTransformed, O.LoopsAttempted,
                (long long)O.SeqChecksum, O.Detail.empty() ? "" : ": ",
                O.Detail.c_str());
    // The static verdict next to the dynamic one: a confirmed finding
    // points straight at the broken Wait/Signal, and a static-only
    // finding is the repro to triage first.
    if (O.StaticFindings) {
      std::printf("  static: %u finding(s) on %u checked loop(s)\n",
                  O.StaticFindings, O.StaticLoopsChecked);
      for (const std::string &D : O.StaticDiags)
        std::printf("    %s\n", D.c_str());
    } else if (O.StaticLoopsChecked) {
      std::printf("  static: clean (%u loop(s) checked)\n",
                  O.StaticLoopsChecked);
    }
    // The dependence-audit verdict of the transformed-sequential leg: the
    // witnessed ground truth next to the static dependence set.
    if (O.DepLoopsAudited) {
      std::printf("  dep audit: %s (%u loop(s), %u witnessed, %u covered, "
                  "%u uncovered, %u static unwitnessed)\n",
                  O.DepUncovered ? "UNSOUND" : "sound", O.DepLoopsAudited,
                  O.DepWitnessed, O.DepCovered, O.DepUncovered,
                  O.DepStaticUnwitnessed);
      for (const std::string &D : O.DepDiags)
        std::printf("    %s\n", D.c_str());
    }
    Divergent += O.Divergence;
    Inconclusive += O.Inconclusive;
  }
  printAnalysisCounters(Counters);
  if (Divergent)
    return 1;
  return Inconclusive ? 3 : 0;
}

} // namespace

int main(int argc, char **argv) {
  FuzzOptions Opt;
  unsigned GenVariant = 0;
  std::vector<std::string> ReplayFilesList;
  bool RequireStaticCatch = false;
  bool RequireDepSound = false;
  std::string JsonPath, TraceOutPath;
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    auto NeedValue = [&]() -> const char * {
      if (I + 1 >= argc) {
        std::fprintf(stderr, "helix-fuzz: %s needs a value\n", Arg.c_str());
        std::exit(2);
      }
      return argv[++I];
    };
    uint64_t N = 0;
    if (Arg == "--seed") {
      if (!parseUnsigned(NeedValue(), Opt.Seed)) {
        std::fprintf(stderr, "helix-fuzz: bad --seed\n");
        return 2;
      }
    } else if (Arg == "--runs") {
      if (!parseUnsigned(NeedValue(), N)) {
        std::fprintf(stderr, "helix-fuzz: bad --runs\n");
        return 2;
      }
      Opt.Runs = unsigned(N);
    } else if (Arg == "--case-seed") {
      if (!parseUnsigned(NeedValue(), N)) {
        std::fprintf(stderr, "helix-fuzz: bad --case-seed\n");
        return 2;
      }
      Opt.CaseSeeds.push_back(N);
    } else if (Arg == "--jobs") {
      if (!parseUnsigned(NeedValue(), N)) {
        std::fprintf(stderr, "helix-fuzz: bad --jobs\n");
        return 2;
      }
      Opt.Jobs = unsigned(N);
    } else if (Arg == "--threads") {
      Opt.Diff.ThreadCounts.clear();
      std::string Spec = NeedValue();
      size_t Pos = 0;
      while (Pos < Spec.size()) {
        size_t Comma = Spec.find(',', Pos);
        if (Comma == std::string::npos)
          Comma = Spec.size();
        uint64_t T = 0;
        if (!parseUnsigned(Spec.substr(Pos, Comma - Pos).c_str(), T) ||
            T == 0) {
          std::fprintf(stderr, "helix-fuzz: bad --threads list\n");
          return 2;
        }
        Opt.Diff.ThreadCounts.push_back(unsigned(T));
        Pos = Comma + 1;
      }
      if (Opt.Diff.ThreadCounts.empty()) {
        std::fprintf(stderr, "helix-fuzz: empty --threads list\n");
        return 2;
      }
    } else if (Arg == "--gen-variant") {
      if (!parseUnsigned(NeedValue(), N)) {
        std::fprintf(stderr, "helix-fuzz: bad --gen-variant\n");
        return 2;
      }
      GenVariant = unsigned(N);
    } else if (Arg == "--replay") {
      ReplayFilesList.push_back(NeedValue());
    } else if (Arg == "--corpus") {
      Opt.CorpusDir = NeedValue();
    } else if (Arg == "--shrink") {
      Opt.Shrink = true;
    } else if (Arg == "--no-shrink") {
      Opt.Shrink = false;
    } else if (Arg == "--max-instrs") {
      if (!parseUnsigned(NeedValue(), Opt.Diff.MaxInstructions)) {
        std::fprintf(stderr, "helix-fuzz: bad --max-instrs\n");
        return 2;
      }
    } else if (Arg == "--inject-bug") {
      std::string Kind = NeedValue();
      if (Kind == "flip") {
        Opt.Diff.Inject = BugInjection::FlipFirstBodyOp;
      } else if (Kind == "drop-waits") {
        Opt.Diff.Inject = BugInjection::DropFirstSegmentWaits;
      } else {
        std::fprintf(stderr, "helix-fuzz: unknown --inject-bug '%s'\n",
                     Kind.c_str());
        return 2;
      }
    } else if (Arg == "--json") {
      JsonPath = NeedValue();
    } else if (Arg == "--trace-out") {
      TraceOutPath = NeedValue();
    } else if (Arg == "--require-static-catch") {
      RequireStaticCatch = true;
    } else if (Arg == "--require-dep-sound") {
      RequireDepSound = true;
    } else if (Arg == "--no-dep-audit") {
      Opt.Diff.AuditDeps = false;
    } else if (Arg == "--help" || Arg == "-h") {
      usage();
      return 0;
    } else {
      std::fprintf(stderr, "helix-fuzz: unknown option '%s'\n", Arg.c_str());
      usage();
      return 2;
    }
  }

  std::vector<FuzzVariant> Variants = fuzzScheduleVariants(Opt.Gen);
  if (GenVariant >= Variants.size()) {
    // Falling back to the base config here would silently regenerate a
    // different module than the failing case and report it "fixed".
    std::fprintf(stderr,
                 "helix-fuzz: --gen-variant %u out of range (the variant "
                 "table has %zu entries, 0-%zu)\n",
                 GenVariant, Variants.size(), Variants.size() - 1);
    return 2;
  }
  Opt.Gen = Variants[GenVariant].Config;

  if (!TraceOutPath.empty())
    obs::TraceRecorder::global().setEnabled(true);
  auto WriteTrace = [&] {
    if (TraceOutPath.empty())
      return;
    std::string Err;
    if (obs::TraceRecorder::global().drainToFile(TraceOutPath, &Err))
      std::printf("trace: wrote %s\n", TraceOutPath.c_str());
    else
      std::fprintf(stderr, "helix-fuzz: %s\n", Err.c_str());
  };

  if (!ReplayFilesList.empty()) {
    std::printf("helix-fuzz: replaying %zu repro file(s)\n",
                ReplayFilesList.size());
    int Code = replayFiles(ReplayFilesList, Opt.Diff);
    WriteTrace();
    return Code;
  }

  if (!Opt.CaseSeeds.empty())
    std::printf("helix-fuzz: replaying %zu case seed(s)\n",
                Opt.CaseSeeds.size());
  std::printf("helix-fuzz: seed=%llu runs=%u threads=",
              (unsigned long long)Opt.Seed,
              Opt.CaseSeeds.empty() ? Opt.Runs
                                    : unsigned(Opt.CaseSeeds.size()));
  for (size_t K = 0; K != Opt.Diff.ThreadCounts.size(); ++K)
    std::printf("%s%u", K ? "," : "", Opt.Diff.ThreadCounts[K]);
  std::printf("%s\n", Opt.Diff.Inject != BugInjection::None
                          ? " (bug injection active)"
                          : "");

  auto Start = std::chrono::steady_clock::now();
  FuzzSummary S = runFuzzCampaign(Opt);
  double Secs = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - Start)
                    .count();
  WriteTrace();

  if (!JsonPath.empty()) {
    Json Doc = fuzzSummaryToJson(S);
    Doc.set("seed", Json::integer(int64_t(Opt.Seed)));
    Doc.set("seconds", Json::number(Secs));
    std::ofstream Out(JsonPath);
    if (Out) {
      Out << Doc.toString() << "\n";
      std::printf("json: wrote %s\n", JsonPath.c_str());
    } else {
      std::fprintf(stderr, "helix-fuzz: cannot write '%s'\n",
                   JsonPath.c_str());
    }
  }

  std::printf("cases: %u clean, %u divergent, %u inconclusive, %u static "
              "alarms (%.1fs)\n",
              S.Clean, S.Divergent, S.Inconclusive, S.StaticAlarms, Secs);
  std::printf("static check: %llu loops verified, %llu finding(s); %u cases "
              "flagged (%u confirmed by the oracle, %u static-only)\n",
              (unsigned long long)S.StaticLoopsChecked,
              (unsigned long long)S.StaticFindings, S.StaticFlagged,
              S.StaticConfirmed, S.StaticOnly);
  if (Opt.Diff.AuditDeps)
    std::printf("dep audit: %llu loops audited, %llu deps witnessed "
                "(%llu covered, %llu uncovered); %llu static mem deps, "
                "%llu never witnessed\n",
                (unsigned long long)S.DepLoopsAudited,
                (unsigned long long)S.DepWitnessed,
                (unsigned long long)S.DepCovered,
                (unsigned long long)S.DepUncovered,
                (unsigned long long)S.DepStaticMemDeps,
                (unsigned long long)S.DepStaticUnwitnessed);
  if (Opt.Diff.Inject != BugInjection::None)
    std::printf("injection: applied in %u case(s), %u flagged statically\n",
                S.InjectedCases, S.InjectedStaticFlagged);
  std::printf("coverage: %llu loops offered, %llu parallelized, "
              "%u cases with no transformed loop\n",
              (unsigned long long)S.LoopsAttempted,
              (unsigned long long)S.LoopsTransformed, S.Untransformed);
  if (!S.PassTimings.empty()) {
    std::printf("transform pass time:");
    for (const LoopPassTiming &T : S.PassTimings)
      std::printf(" %s=%.0fms", T.Pass.c_str(), T.Millis);
    std::printf("\n");
  }
  printAnalysisCounters(S.AnalysisCounters);
  std::string VariantFlag =
      GenVariant ? formatStr(" --gen-variant %u", GenVariant) : "";
  for (const FuzzFailure &F : S.Failures) {
    std::printf("%s case %u (case seed 0x%llx, replay with "
                "--case-seed 0x%llx%s): %s\n",
                F.Inconclusive    ? "INCONCLUSIVE"
                : F.StaticAlarm   ? "STATIC-ALARM"
                : F.DepUnsound    ? "DEP-UNSOUND"
                                  : "DIVERGENCE",
                F.CaseIndex,
                (unsigned long long)F.CaseSeed,
                (unsigned long long)F.CaseSeed,
                VariantFlag.c_str(), F.Detail.c_str());
    if (!F.ReproPath.empty())
      std::printf("  repro: %s\n", F.ReproPath.c_str());
    if (F.ShrunkInstrs)
      std::printf("  shrunk to %u instructions%s%s\n", F.ShrunkInstrs,
                  F.ShrunkPath.empty() ? "" : ": ", F.ShrunkPath.c_str());
  }
  if (RequireStaticCatch) {
    // Injected-bug validation mode: the injected divergences are the
    // expected outcome; what's on trial is the static checker catching
    // every one of them before execution.
    if (Opt.Diff.Inject == BugInjection::None) {
      std::fprintf(stderr,
                   "helix-fuzz: --require-static-catch needs --inject-bug\n");
      return 2;
    }
    unsigned Missed = S.InjectedCases - S.InjectedStaticFlagged;
    if (Missed || S.InjectedCases == 0) {
      std::printf("static catch: FAILED (%u/%u injected cases flagged)\n",
                  S.InjectedStaticFlagged, S.InjectedCases);
      return 1;
    }
    std::printf("static catch: OK (%u/%u injected cases flagged)\n",
                S.InjectedStaticFlagged, S.InjectedCases);
    return 0;
  }
  if (RequireDepSound) {
    // CI soundness gate: an audit that never ran (audit disabled, or no
    // loop ever transformed *and invoked*) proves nothing — fail loudly
    // instead of certifying vacuous soundness.
    if (!Opt.Diff.AuditDeps) {
      std::fprintf(stderr, "helix-fuzz: --require-dep-sound conflicts with "
                           "--no-dep-audit\n");
      return 2;
    }
    if (S.DepUncovered || S.DepLoopsAudited == 0) {
      std::printf("dep soundness: FAILED (%llu loops audited, %llu "
                  "uncovered witnesses)\n",
                  (unsigned long long)S.DepLoopsAudited,
                  (unsigned long long)S.DepUncovered);
      return 1;
    }
    std::printf("dep soundness: OK (%llu loops audited, every witnessed "
                "dependence covered)\n",
                (unsigned long long)S.DepLoopsAudited);
  }
  if (S.Divergent || S.StaticAlarms)
    return 1;
  return S.Inconclusive ? 3 : 0;
}
