#include "fuzz/FuzzJson.h"

using namespace helix;

namespace {
Json u64(uint64_t V) { return Json::integer(int64_t(V)); }
} // namespace

Json helix::fuzzSummaryToJson(const FuzzSummary &S) {
  Json O = Json::object();
  O.set("runs", u64(S.Runs));
  O.set("clean", u64(S.Clean));
  O.set("divergent", u64(S.Divergent));
  O.set("inconclusive", u64(S.Inconclusive));
  O.set("untransformed", u64(S.Untransformed));
  O.set("loops_attempted", u64(S.LoopsAttempted));
  O.set("loops_transformed", u64(S.LoopsTransformed));

  Json St = Json::object();
  St.set("loops_checked", u64(S.StaticLoopsChecked));
  St.set("findings", u64(S.StaticFindings));
  St.set("flagged", u64(S.StaticFlagged));
  St.set("confirmed", u64(S.StaticConfirmed));
  St.set("static_only", u64(S.StaticOnly));
  St.set("alarms", u64(S.StaticAlarms));
  St.set("injected_cases", u64(S.InjectedCases));
  St.set("injected_flagged", u64(S.InjectedStaticFlagged));
  O.set("static_check", std::move(St));

  Json Dep = Json::object();
  Dep.set("loops_audited", u64(S.DepLoopsAudited));
  Dep.set("witnessed", u64(S.DepWitnessed));
  Dep.set("covered", u64(S.DepCovered));
  Dep.set("uncovered", u64(S.DepUncovered));
  Dep.set("static_mem_deps", u64(S.DepStaticMemDeps));
  Dep.set("static_unwitnessed", u64(S.DepStaticUnwitnessed));
  Dep.set("unsound_cases", u64(S.DepUnsoundCases));
  O.set("dep_audit", std::move(Dep));

  Json Timings = Json::array();
  for (const LoopPassTiming &T : S.PassTimings) {
    Json E = Json::object();
    E.set("pass", Json::str(T.Pass));
    E.set("millis", Json::number(T.Millis));
    E.set("invocations", u64(T.Invocations));
    Timings.push(std::move(E));
  }
  O.set("pass_timings", std::move(Timings));

  Json Counters = Json::array();
  for (const AnalysisCounterReport &C : S.AnalysisCounters) {
    Json E = Json::object();
    E.set("analysis", Json::str(C.Analysis));
    E.set("built", u64(C.Built));
    E.set("hits", u64(C.Hits));
    E.set("invalidated", u64(C.Invalidated));
    Counters.push(std::move(E));
  }
  O.set("analysis_counters", std::move(Counters));

  Json Failures = Json::array();
  for (const FuzzFailure &F : S.Failures) {
    Json E = Json::object();
    E.set("case_index", u64(F.CaseIndex));
    E.set("case_seed", u64(F.CaseSeed));
    E.set("kind", Json::str(F.Inconclusive  ? "inconclusive"
                            : F.StaticAlarm ? "static-alarm"
                            : F.DepUnsound  ? "dep-unsound"
                                            : "divergence"));
    E.set("detail", Json::str(F.Detail));
    if (!F.ReproPath.empty())
      E.set("repro", Json::str(F.ReproPath));
    if (!F.ShrunkPath.empty())
      E.set("shrunk", Json::str(F.ShrunkPath));
    if (F.ShrunkInstrs)
      E.set("shrunk_instrs", u64(F.ShrunkInstrs));
    Failures.push(std::move(E));
  }
  O.set("failures", std::move(Failures));
  return O;
}
