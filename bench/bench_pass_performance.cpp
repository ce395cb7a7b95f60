//===----------------------------------------------------------------------===//
///
/// \file
/// google-benchmark microbenchmarks of the compiler itself: analysis and
/// transformation throughput on suite-sized programs. Not a paper figure —
/// this guards the compile-time cost of the HELIX passes.
///
//===----------------------------------------------------------------------===//

#include "analysis/AnalysisManager.h"
#include "analysis/DataDependence.h"
#include "analysis/LoopNestGraph.h"
#include "helix/HelixTransform.h"
#include "ir/Clone.h"
#include "obs/BenchJson.h"
#include "pipeline/PipelineBuilder.h"
#include "sim/Interpreter.h"
#include "sim/TreeWalkInterpreter.h"
#include "workloads/WorkloadBuilder.h"

#include <benchmark/benchmark.h>

using namespace helix;

namespace {

std::unique_ptr<Module> suiteModule() { return buildSpecWorkload("vpr"); }

void BM_CloneModule(benchmark::State &State) {
  auto M = suiteModule();
  for (auto _ : State)
    benchmark::DoNotOptimize(cloneModule(*M));
}
BENCHMARK(BM_CloneModule);

void BM_FunctionAnalyses(benchmark::State &State) {
  auto M = suiteModule();
  for (auto _ : State) {
    AnalysisManager AM(*M);
    for (Function *F : *M) {
      benchmark::DoNotOptimize(&AM.get<LoopInfo>(F));
      benchmark::DoNotOptimize(&AM.get<Liveness>(F));
    }
  }
}
BENCHMARK(BM_FunctionAnalyses);

void BM_PointsTo(benchmark::State &State) {
  auto M = suiteModule();
  for (auto _ : State) {
    AnalysisManager AM(*M);
    benchmark::DoNotOptimize(&AM.get<PointsToAnalysis>());
  }
}
BENCHMARK(BM_PointsTo);

void BM_LoopNestGraph(benchmark::State &State) {
  auto M = suiteModule();
  for (auto _ : State) {
    AnalysisManager AM(*M);
    LoopNestGraph LNG(*M, AM);
    benchmark::DoNotOptimize(LNG.numNodes());
  }
}
BENCHMARK(BM_LoopNestGraph);

void BM_DependenceAnalysis(benchmark::State &State) {
  auto M = suiteModule();
  AnalysisManager AM(*M);
  Function *F = nullptr;
  Loop *L = nullptr;
  for (Function *Cand : *M) {
    LoopInfo &LI = AM.get<LoopInfo>(Cand);
    if (LI.numLoops() > 0) {
      F = Cand;
      L = LI.loop(0);
    }
  }
  for (auto _ : State) {
    LoopVarAnalysis Vars(F, L, AM.get<DominatorTree>(F));
    LoopDependenceAnalysis DDA(F, L, AM.get<CFGInfo>(F),
                               AM.get<DominatorTree>(F), AM.get<Liveness>(F),
                               Vars, AM.get<PointsToAnalysis>(),
                               AM.get<MemEffects>());
    benchmark::DoNotOptimize(DDA.toSynchronize().size());
  }
}
BENCHMARK(BM_DependenceAnalysis);

void BM_ParallelizeLoop(benchmark::State &State) {
  auto M = suiteModule();
  // Find a loop header in a kernel function.
  for (auto _ : State) {
    State.PauseTiming();
    auto Clone = cloneModule(*M);
    AnalysisManager AM(*Clone);
    Function *F = nullptr;
    BasicBlock *Header = nullptr;
    for (Function *Cand : *Clone) {
      LoopInfo &LI = AM.get<LoopInfo>(Cand);
      if (LI.numLoops() > 0) {
        F = Cand;
        Header = LI.loop(0)->header();
        break;
      }
    }
    State.ResumeTiming();
    HelixOptions Opts;
    benchmark::DoNotOptimize(parallelizeLoop(AM, F, Header, Opts));
  }
}
BENCHMARK(BM_ParallelizeLoop);

/// The analysis-preservation acceptance gate, benchmark edition: transform
/// every top-level loop of the suite module through one shared
/// AnalysisManager, in preservation-aware mode (Arg 0) and in the
/// conservative invalidate-everything baseline (Arg 1). The exported
/// counters show the contract's effect — dom_built must be strictly lower
/// with preservation on, since transforming one function no longer drops
/// the dominator trees of the others. CI runs this with a filter and
/// prints the counters, so a pass silently regressing to invalidate-all
/// is visible in PR logs as a dom_built jump.
void BM_AnalysisPreservation(benchmark::State &State) {
  auto M = suiteModule();
  bool Conservative = State.range(0) != 0;
  uint64_t DomBuilt = 0, DomHits = 0, PtBuilt = 0, Loops = 0;
  for (auto _ : State) {
    State.PauseTiming();
    auto Clone = cloneModule(*M);
    State.ResumeTiming();
    AnalysisManager AM(*Clone);
    AM.setConservativeInvalidation(Conservative);
    std::vector<std::pair<Function *, BasicBlock *>> Targets;
    for (Function *F : *Clone)
      for (Loop *L : AM.get<LoopInfo>(F).topLevelLoops())
        Targets.push_back({F, L->header()});
    HelixOptions Opts;
    unsigned Done = 0;
    for (auto &[F, H] : Targets)
      Done += parallelizeLoop(AM, F, H, Opts).has_value();
    DomBuilt = AM.stats(AnalysisKind::DomTree).Built;
    DomHits = AM.stats(AnalysisKind::DomTree).Hits;
    PtBuilt = AM.stats(AnalysisKind::PointsTo).Built;
    Loops = Done;
  }
  State.counters["dom_built"] = double(DomBuilt);
  State.counters["dom_hits"] = double(DomHits);
  State.counters["pt_built"] = double(PtBuilt);
  State.counters["loops"] = double(Loops);
}
BENCHMARK(BM_AnalysisPreservation)
    ->Arg(0) // preservation-aware (the shipping configuration)
    ->Arg(1) // conservative invalidate-all baseline
    ->Unit(benchmark::kMillisecond);

void BM_ExecEngineDecode(benchmark::State &State) {
  // Cost of lowering the suite module into the flat pre-resolved
  // instruction stream — what the decode cache saves on every reuse.
  auto M = suiteModule();
  uint64_t Instrs = 0;
  for (auto _ : State) {
    ExecProgram Prog(*M);
    Instrs = 0;
    for (unsigned F = 0; F != Prog.numFunctions(); ++F)
      Instrs += Prog.function(F).code().size();
    benchmark::DoNotOptimize(Instrs);
  }
  State.counters["instrs"] = double(Instrs);
  State.SetItemsProcessed(int64_t(State.iterations()) * int64_t(Instrs));
}
BENCHMARK(BM_ExecEngineDecode);

/// The engine acceptance gate: per-instruction dispatch cost of the
/// decoded engine (Arg 1) against the retained tree-walk reference
/// (Arg 0), executing the whole suite module sequentially with no
/// observer. items_per_second is executed instructions per second — the
/// decoded row must beat the tree-walk row. CI prints both.
void BM_ExecEngineVsTreeWalk(benchmark::State &State) {
  auto M = suiteModule();
  // 0 = tree-walk reference, 1 = decoded engine (superinstruction fusion
  // on, as every driver runs it).
  const int Mode = int(State.range(0));
  uint64_t Instructions = 0;
  for (auto _ : State) {
    ExecResult R;
    if (Mode == 1) {
      Interpreter I(*M); // decode served from the cache after run one
      R = I.run();
    } else {
      TreeWalkInterpreter I(*M);
      R = I.run();
    }
    if (!R.Ok)
      State.SkipWithError("suite module failed to execute");
    Instructions = R.Instructions;
    benchmark::DoNotOptimize(R.ReturnValue.asInt());
  }
  State.counters["instrs"] = double(Instructions);
  if (Mode == 1)
    State.counters["fused_pairs"] =
        double(DecodeCache::global().get(*M)->fusedPairs());
  State.SetItemsProcessed(int64_t(State.iterations()) *
                          int64_t(Instructions));
}
BENCHMARK(BM_ExecEngineVsTreeWalk)
    ->Arg(0) // tree-walk baseline
    ->Arg(1) // decoded engine
    ->Unit(benchmark::kMillisecond);

void BM_PipelineStringParse(benchmark::State &State) {
  for (auto _ : State) {
    Pipeline P = PipelineBuilder()
                     .parse("profile,candidates,model-profile,select,"
                            "transform,validate,simulate")
                     .build();
    benchmark::DoNotOptimize(P.str());
  }
}
BENCHMARK(BM_PipelineStringParse);

void BM_FullPipelineCold(benchmark::State &State) {
  // The end-to-end cost a fresh context pays: every stage executes.
  auto M = suiteModule();
  Pipeline P = PipelineBuilder::standard();
  for (auto _ : State) {
    PipelineContext Ctx(*M);
    benchmark::DoNotOptimize(P.run(Ctx).Speedup);
  }
}
BENCHMARK(BM_FullPipelineCold)->Unit(benchmark::kMillisecond);

void BM_ModelProfileStageThreads(benchmark::State &State) {
  // Wall-clock of the model-profile stage alone at 1/2/4/8 worker
  // threads, aggregated over the whole spec2000 suite. The per-candidate
  // evaluations are independent, so this should scale near-linearly until
  // the suite's candidate counts (or the machine) run out — the
  // "parallelize model-profile" acceptance gate.
  std::vector<std::unique_ptr<Module>> Modules;
  std::vector<std::unique_ptr<PipelineContext>> Contexts;
  Pipeline Warm = PipelineBuilder().parse("candidates").build();
  PipelineConfig C;
  C.ModelProfileThreads = unsigned(State.range(0));
  for (const WorkloadSpec &Spec : spec2000Suite()) {
    Modules.push_back(buildWorkload(Spec));
    Contexts.push_back(
        std::make_unique<PipelineContext>(*Modules.back(), C));
    Warm.run(*Contexts.back()); // profile+candidates cached once, outside
  }
  Pipeline P = PipelineBuilder().parse("model-profile").build();
  for (auto _ : State) {
    for (auto &Ctx : Contexts) {
      Ctx->clearStageResult("model-profile"); // force re-execution
      benchmark::DoNotOptimize(P.run(*Ctx).Ok);
    }
  }
}
BENCHMARK(BM_ModelProfileStageThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_SelectionSweepPointCached(benchmark::State &State) {
  // The per-point cost of a Figure-12/13 style sweep on a warm context:
  // profiling stages are cached, only selection onward re-runs. Compare
  // against BM_FullPipelineCold for the caching win.
  auto M = suiteModule();
  Pipeline P = PipelineBuilder::standard();
  PipelineContext Ctx(*M);
  PipelineConfig C;
  P.run(Ctx); // warm up: populate the profile/model-profile caches
  double S = 0.0;
  for (auto _ : State) {
    S = S >= 110.0 ? 0.0 : S + 1.0; // new key each point, like a sweep
    C.Selection.SignalCycles = S;
    Ctx.setConfig(C);
    benchmark::DoNotOptimize(P.run(Ctx).Speedup);
  }
}
BENCHMARK(BM_SelectionSweepPointCached)->Unit(benchmark::kMillisecond);

/// The usual console output plus one BENCH_pass_performance.json series
/// per run: the adjusted real time (in the benchmark's declared unit) and
/// every user counter (items_per_second, dom_built, ...). Series names are
/// the benchmark names with '/' flattened to '_' so the baseline file can
/// address them.
class JsonCapturingReporter : public benchmark::ConsoleReporter {
public:
  explicit JsonCapturingReporter(obs::BenchJsonWriter &W) : Writer(W) {}

  void ReportRuns(const std::vector<Run> &Runs) override {
    for (const Run &R : Runs) {
      if (R.run_type != Run::RT_Iteration || R.error_occurred)
        continue;
      std::string Name = R.benchmark_name();
      for (char &Ch : Name)
        if (Ch == '/')
          Ch = '_';
      Writer.add(Name + "_time", R.GetAdjustedRealTime(),
                 benchmark::GetTimeUnitString(R.time_unit));
      for (const auto &KV : R.counters) {
        const char *Unit =
            KV.first == "items_per_second" ? "items/s" : "count";
        Writer.add(Name + "_" + KV.first, double(KV.second), Unit);
      }
    }
    ConsoleReporter::ReportRuns(Runs);
  }

private:
  obs::BenchJsonWriter &Writer;
};

} // namespace

int main(int argc, char **argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv))
    return 1;
  obs::BenchJsonWriter W("pass_performance");
  JsonCapturingReporter Reporter(W);
  benchmark::RunSpecifiedBenchmarks(&Reporter);
  benchmark::Shutdown();
  W.write();
  return 0;
}
