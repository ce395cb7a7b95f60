//===----------------------------------------------------------------------===//
///
/// Tests for the telemetry layer: metrics registry (concurrency, deltas,
/// histograms, JSON round-trip), trace spans (ring buffer, Chrome JSON,
/// nesting via a real pipeline run), BENCH_*.json emission and the
/// bench-diff regression gate, and the fuzz summary JSON.
///
//===----------------------------------------------------------------------===//

#include "fuzz/FuzzJson.h"
#include "obs/BenchJson.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "pipeline/PipelineBuilder.h"
#include "support/Json.h"
#include "workloads/WorkloadBuilder.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <thread>

using namespace helix;
using obs::MetricSample;

//===----------------------------------------------------------------------===//
// Metrics registry
//===----------------------------------------------------------------------===//

TEST(Metrics, CounterConcurrentBumpsAreExact) {
  obs::MetricsRegistry R;
  const unsigned Threads = 8, PerThread = 20000;
  std::vector<std::thread> Workers;
  for (unsigned T = 0; T != Threads; ++T)
    Workers.emplace_back([&R] {
      obs::Counter &C = R.counter("test.bumps");
      for (unsigned I = 0; I != PerThread; ++I)
        C.add();
    });
  for (std::thread &W : Workers)
    W.join();
  EXPECT_EQ(R.snapshot().value("test.bumps"),
            int64_t(Threads) * PerThread);
}

TEST(Metrics, InstrumentAddressesAreStable) {
  obs::MetricsRegistry R;
  obs::Counter &A = R.counter("a");
  for (int I = 0; I != 100; ++I)
    R.counter("filler." + std::to_string(I));
  EXPECT_EQ(&A, &R.counter("a"));
}

TEST(Metrics, KindClashReturnsSinkNotAlias) {
  obs::MetricsRegistry R;
  R.counter("name").add(5);
  // Asking for the same name as a gauge must not alias the counter's
  // storage or crash; writes to the sink are simply not snapshotted.
  R.gauge("name").set(-3);
  obs::MetricsSnapshot S = R.snapshot();
  ASSERT_NE(S.find("name"), nullptr);
  EXPECT_EQ(S.find("name")->K, MetricSample::Kind::Counter);
  EXPECT_EQ(S.value("name"), 5);
}

TEST(Metrics, DeltaSubtractsCountersAndKeepsGauges) {
  obs::MetricsRegistry R;
  R.counter("runs").add(10);
  R.gauge("depth").set(4);
  obs::MetricsSnapshot Before = R.snapshot();
  R.counter("runs").add(3);
  R.gauge("depth").set(7);
  R.counter("untouched").add(0);
  obs::MetricsSnapshot Delta = R.snapshot().deltaFrom(Before);
  EXPECT_EQ(Delta.value("runs"), 3);
  EXPECT_EQ(Delta.value("depth"), 7);
  // All-zero samples are dropped from the delta.
  EXPECT_EQ(Delta.find("untouched"), nullptr);
}

TEST(Metrics, HistogramBucketsAndDelta) {
  obs::MetricsRegistry R;
  obs::Histogram &H = R.histogram("wall", {10, 100});
  H.observe(5);
  H.observe(50);
  H.observe(5000);
  obs::MetricsSnapshot S = R.snapshot();
  const MetricSample *M = S.find("wall");
  ASSERT_NE(M, nullptr);
  EXPECT_EQ(M->K, MetricSample::Kind::Histogram);
  EXPECT_EQ(M->Value, 3); // count
  EXPECT_EQ(M->Sum, 5055);
  ASSERT_EQ(M->Buckets.size(), 3u);
  EXPECT_EQ(M->Buckets[0].UpperBound, 10);
  EXPECT_EQ(M->Buckets[0].Count, 1u);
  EXPECT_EQ(M->Buckets[1].Count, 1u);
  EXPECT_EQ(M->Buckets[2].UpperBound, -1); // +inf
  EXPECT_EQ(M->Buckets[2].Count, 1u);

  H.observe(7);
  obs::MetricsSnapshot Delta = R.snapshot().deltaFrom(S);
  const MetricSample *D = Delta.find("wall");
  ASSERT_NE(D, nullptr);
  EXPECT_EQ(D->Value, 1);
  EXPECT_EQ(D->Buckets[0].Count, 1u);
  EXPECT_EQ(D->Buckets[1].Count, 0u);
}

TEST(Metrics, SnapshotJsonRoundTrip) {
  obs::MetricsRegistry R;
  R.counter("c").add(42);
  R.gauge("g").set(-9);
  R.histogram("h", {1, 10}).observe(3);
  obs::MetricsSnapshot S = R.snapshot();

  obs::MetricsSnapshot Back;
  std::string Err;
  ASSERT_TRUE(obs::MetricsSnapshot::fromJson(S.toJson(), Back, &Err)) << Err;
  ASSERT_EQ(Back.Samples.size(), S.Samples.size());
  for (size_t I = 0; I != S.Samples.size(); ++I)
    EXPECT_TRUE(Back.Samples[I] == S.Samples[I]) << S.Samples[I].Name;
}

TEST(Metrics, SnapshotFromJsonRejectsMalformed) {
  obs::MetricsSnapshot Out;
  std::string Err;
  Json V;
  ASSERT_TRUE(Json::parse("[{\"kind\":\"counter\",\"value\":1}]", V, nullptr));
  EXPECT_FALSE(obs::MetricsSnapshot::fromJson(V, Out, &Err)) << "no name";
  ASSERT_TRUE(Json::parse("[{\"name\":\"x\",\"kind\":\"banana\"}]", V,
                          nullptr));
  EXPECT_FALSE(obs::MetricsSnapshot::fromJson(V, Out, &Err)) << "bad kind";
}

//===----------------------------------------------------------------------===//
// Trace spans
//===----------------------------------------------------------------------===//

TEST(Trace, DisabledRecorderRecordsNothing) {
  obs::TraceRecorder R(16);
  { obs::TraceSpan S("noop", "test", R); }
  EXPECT_TRUE(R.drain().empty());
}

TEST(Trace, RingOverwritesOldestAndCountsDrops) {
  obs::TraceRecorder R(4);
  R.setEnabled(true);
  for (int I = 0; I != 6; ++I)
    R.record({"e" + std::to_string(I), "test", 1, uint64_t(I), 1});
  std::vector<obs::TraceEvent> Events = R.drain();
  ASSERT_EQ(Events.size(), 4u);
  EXPECT_EQ(Events.front().Name, "e2"); // e0, e1 overwritten
  EXPECT_EQ(Events.back().Name, "e5");
  EXPECT_EQ(R.droppedCount(), 2u);
}

TEST(Trace, ChromeJsonIsWellFormed) {
  obs::TraceRecorder R(64);
  R.setEnabled(true);
  {
    obs::TraceSpan Outer("stage:transform", "stage", R);
    obs::TraceSpan Inner("pass:dependence", "pass", R);
  }
  Json Doc = R.drainToChromeJson();
  // Must survive a print/parse round-trip (what a viewer does).
  Json Back;
  std::string Err;
  ASSERT_TRUE(Json::parse(Doc.toString(), Back, &Err)) << Err;
  const Json *Events = Back.find("traceEvents");
  ASSERT_NE(Events, nullptr);
  ASSERT_TRUE(Events->isArray());
  ASSERT_EQ(Events->elements().size(), 2u);
  for (const Json &E : Events->elements()) {
    EXPECT_EQ(E.getString("ph"), "X");
    EXPECT_NE(E.find("ts"), nullptr);
    EXPECT_NE(E.find("dur"), nullptr);
    EXPECT_NE(E.find("tid"), nullptr);
    EXPECT_NE(E.find("pid"), nullptr);
  }
  EXPECT_EQ(Back.getString("displayTimeUnit"), "ms");
}

TEST(Trace, PipelineRunEmitsNestedStageAndPassSpans) {
  obs::TraceRecorder &R = obs::TraceRecorder::global();
  R.setEnabled(false);
  R.drain(); // discard anything earlier tests left behind

  std::unique_ptr<Module> M = buildSpecWorkload("art");
  Pipeline P = PipelineBuilder::standard();
  PipelineConfig C;
  C.TraceSpans = true; // the config knob enables the global recorder
  PipelineContext Ctx(*M, C);
  ASSERT_TRUE(P.run(Ctx).Ok);
  R.setEnabled(false);

  std::vector<obs::TraceEvent> Events = R.drain();
  const obs::TraceEvent *Transform = nullptr;
  bool SawPass = false, SawDecode = false;
  for (const obs::TraceEvent &E : Events)
    if (E.Name == "stage:transform")
      Transform = &E;
  ASSERT_NE(Transform, nullptr);
  for (const obs::TraceEvent &E : Events) {
    if (E.Cat == "pass" && E.StartMicros >= Transform->StartMicros &&
        E.StartMicros + E.DurMicros <=
            Transform->StartMicros + Transform->DurMicros + 1)
      SawPass = true;
    if (E.Name == "decode")
      SawDecode = true;
  }
  EXPECT_TRUE(SawPass) << "no loop-pass span nested in stage:transform";
  EXPECT_TRUE(SawDecode);
}

//===----------------------------------------------------------------------===//
// BENCH_*.json and the regression gate
//===----------------------------------------------------------------------===//

TEST(BenchJson, WriterSchemaAndFile) {
  obs::BenchJsonWriter W("unit_test");
  W.setMeta("note", Json::str("hello"));
  W.add("geomean", 2.25, "x");
  W.add("count", 13, "loops");

  Json Doc = W.toJson();
  EXPECT_EQ(Doc.getInt("schema", 0), 1);
  EXPECT_EQ(Doc.getString("bench"), "unit_test");
  const Json *Meta = Doc.find("meta");
  ASSERT_NE(Meta, nullptr);
  EXPECT_NE(Meta->find("threads"), nullptr);
  EXPECT_NE(Meta->find("cores"), nullptr);
  EXPECT_EQ(Meta->getString("note"), "hello");
  const Json *Series = Doc.find("series");
  ASSERT_NE(Series, nullptr);
  ASSERT_EQ(Series->elements().size(), 2u);
  EXPECT_EQ(Series->elements()[0].getString("name"), "geomean");
  EXPECT_DOUBLE_EQ(Series->elements()[0].getDouble("value"), 2.25);
  EXPECT_EQ(Series->elements()[0].getString("unit"), "x");

  std::string Dir = testing::TempDir();
  ASSERT_TRUE(W.write(Dir));
  std::ifstream In(Dir + "/BENCH_unit_test.json");
  ASSERT_TRUE(In.good());
  std::ostringstream SS;
  SS << In.rdbuf();
  Json Back;
  std::string Err;
  ASSERT_TRUE(Json::parse(SS.str(), Back, &Err)) << Err;
  EXPECT_EQ(Back.toString(), Doc.toString());
}

namespace {

Json parseJson(const char *Text) {
  Json V;
  std::string Err;
  EXPECT_TRUE(Json::parse(Text, V, &Err)) << Err;
  return V;
}

const char *BaselineText =
    "{\"schema\":1,\"series\":["
    "{\"bench\":\"b\",\"name\":\"speedup\",\"value\":2.0,\"unit\":\"x\","
    "\"direction\":\"higher\",\"gate\":\"hard\",\"tolerance_pct\":5},"
    "{\"bench\":\"b\",\"name\":\"wall_ms\",\"value\":100.0,\"unit\":\"ms\","
    "\"direction\":\"lower\",\"gate\":\"warn\",\"tolerance_pct\":50}]}";

Json currentDoc(double Speedup, double WallMs) {
  obs::BenchJsonWriter W("b");
  W.add("speedup", Speedup, "x");
  W.add("wall_ms", WallMs, "ms");
  return W.toJson();
}

} // namespace

TEST(BenchDiff, PassesOnMatchingBaseline) {
  obs::BenchDiffResult R =
      obs::benchDiff(parseJson(BaselineText), {currentDoc(2.0, 100.0)});
  EXPECT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(R.HardRegressions, 0u);
  EXPECT_EQ(R.WarnRegressions, 0u);
  EXPECT_EQ(R.MissingSeries, 0u);
  ASSERT_EQ(R.Findings.size(), 2u);
  EXPECT_FALSE(R.Findings[0].Regression);
}

TEST(BenchDiff, FailsOnInjectedHardRegression) {
  // An artificially injected 25% drop on a hard higher-is-better series
  // (tolerance 5%) must fail the gate — the CI contract.
  obs::BenchDiffResult R =
      obs::benchDiff(parseJson(BaselineText), {currentDoc(1.5, 100.0)});
  EXPECT_FALSE(R.ok());
  EXPECT_EQ(R.HardRegressions, 1u);
  ASSERT_FALSE(R.Findings.empty());
  EXPECT_TRUE(R.Findings[0].Regression);
  EXPECT_NEAR(R.Findings[0].DeltaPct, -25.0, 1e-9);
}

TEST(BenchDiff, WarnSeriesNeverFailsTheRun) {
  // wall_ms is lower-is-better, warn-gated: tripling it logs a warning
  // but ok() stays true (wall-clock noise must not break CI).
  obs::BenchDiffResult R =
      obs::benchDiff(parseJson(BaselineText), {currentDoc(2.0, 300.0)});
  EXPECT_TRUE(R.ok());
  EXPECT_EQ(R.WarnRegressions, 1u);
}

TEST(BenchDiff, ImprovementIsNotARegression) {
  obs::BenchDiffResult R =
      obs::benchDiff(parseJson(BaselineText), {currentDoc(3.0, 10.0)});
  EXPECT_TRUE(R.ok());
  EXPECT_EQ(R.HardRegressions, 0u);
  EXPECT_EQ(R.WarnRegressions, 0u);
}

TEST(BenchDiff, MissingSeriesReportedAndOptionallyHard) {
  obs::BenchDiffResult Soft = obs::benchDiff(parseJson(BaselineText), {});
  EXPECT_TRUE(Soft.ok()) << "missing is soft by default";
  EXPECT_EQ(Soft.MissingSeries, 2u);

  obs::BenchDiffOptions Opts;
  Opts.MissingIsHard = true;
  obs::BenchDiffResult Hard =
      obs::benchDiff(parseJson(BaselineText), {}, Opts);
  EXPECT_FALSE(Hard.ok());
  EXPECT_EQ(Hard.HardRegressions, 1u); // only the hard-gated series
}

TEST(BenchDiff, MalformedBaselineIsAnError) {
  obs::BenchDiffResult R = obs::benchDiff(parseJson("{\"schema\":1}"), {});
  EXPECT_FALSE(R.ok());
  EXPECT_FALSE(R.Error.empty());
}

//===----------------------------------------------------------------------===//
// Fuzz summary JSON
//===----------------------------------------------------------------------===//

TEST(FuzzJson, SummaryShape) {
  FuzzSummary S;
  S.Runs = 10;
  S.Clean = 8;
  S.Divergent = 1;
  S.StaticAlarms = 1;
  S.LoopsTransformed = 14;
  FuzzFailure F;
  F.CaseIndex = 3;
  F.CaseSeed = 0xDEAD;
  F.Detail = "mismatch";
  S.Failures.push_back(F);

  Json Doc = fuzzSummaryToJson(S);
  EXPECT_EQ(Doc.getInt("runs", 0), 10);
  EXPECT_EQ(Doc.getInt("clean", 0), 8);
  EXPECT_EQ(Doc.getInt("divergent", 0), 1);
  EXPECT_EQ(Doc.getInt("loops_transformed", 0), 14);
  ASSERT_NE(Doc.find("static_check"), nullptr);
  const Json *Failures = Doc.find("failures");
  ASSERT_NE(Failures, nullptr);
  ASSERT_EQ(Failures->elements().size(), 1u);
  EXPECT_EQ(Failures->elements()[0].getString("kind"), "divergence");
  EXPECT_EQ(Failures->elements()[0].getInt("case_index", -1), 3);
  // Round-trips through print/parse (what CI consumers do).
  Json Back;
  std::string Err;
  EXPECT_TRUE(Json::parse(Doc.toString(), Back, &Err)) << Err;
}

//===----------------------------------------------------------------------===//
// Pipeline report metrics
//===----------------------------------------------------------------------===//

TEST(Metrics, PipelineRunPublishesPerRunDeltas) {
  std::unique_ptr<Module> M = buildSpecWorkload("art");
  Pipeline P = PipelineBuilder::standard();
  PipelineContext Ctx(*M);
  PipelineReport R = P.run(Ctx);
  ASSERT_TRUE(R.Ok);
  ASSERT_FALSE(R.Metrics.empty());
  obs::MetricsSnapshot Snap;
  Snap.Samples = R.Metrics;
  // Every stage executed (cold context): misses, no hits; the run
  // interpreted something.
  EXPECT_GT(Snap.value("cache.stage.misses"), 0);
  EXPECT_GT(Snap.value("exec.dispatch.steps"), 0);
  EXPECT_EQ(Snap.value("pipeline.runs"), 1);

  // A second run over the same context reuses everything in memory: the
  // per-run delta must show hits and *fewer* dispatch steps than the cold
  // run (validate/simulate still execute), proving the deltas are per-run
  // and not process-lifetime totals.
  PipelineReport R2 = P.run(Ctx);
  ASSERT_TRUE(R2.Ok);
  obs::MetricsSnapshot Snap2;
  Snap2.Samples = R2.Metrics;
  EXPECT_EQ(Snap2.value("pipeline.runs"), 1);
  EXPECT_GT(Snap2.value("cache.stage.hits"), 0);
}
