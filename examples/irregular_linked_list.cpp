//===----------------------------------------------------------------------===//
///
/// \file
/// Irregular-workload example: a linked-list traversal with a histogram
/// update — the kind of loop DOALL techniques cannot touch (irregular
/// control flow, irregular memory accesses). HELIX parallelizes it
/// non-speculatively and the example runs it three ways:
///   1. sequential interpretation (reference),
///   2. real std::thread execution through the HELIX runtime,
///   3. the CMP timing simulator, reporting the predicted speedup.
///
/// Run: ./examples/irregular_linked_list
///
//===----------------------------------------------------------------------===//

#include "helix/HelixTransform.h"
#include "ir/Clone.h"
#include "pipeline/PipelineBuilder.h"
#include "runtime/ThreadedRuntime.h"
#include "sim/TraceCollector.h"
#include "workloads/WorkloadBuilder.h"

#include <cstdio>

using namespace helix;

int main() {
  std::printf("== HELIX on an irregular workload ==\n\n");

  // A program mixing a pointer chase (serial dependence chain) with a
  // histogram (irregular updates, parallel work per element).
  WorkloadSpec Spec;
  Spec.Name = "irregular";
  Spec.Seed = 12345;
  Spec.MainRepeat = 2;
  Spec.Phases = {{2,
                  false,
                  {{KernelIdiom::PointerChase, 400, 8},
                   {KernelIdiom::Histogram, 300, 120}}}};
  std::unique_ptr<Module> M = buildWorkload(Spec);

  Interpreter Ref(*M);
  ExecResult Seq = Ref.run();
  std::printf("sequential checksum : %lld (%llu cycles)\n",
              (long long)Seq.ReturnValue.asInt(),
              (unsigned long long)Seq.Cycles);

  // Parallelize both kernel loops in a clone.
  CloneMap Map;
  auto Par = cloneModule(*M, &Map);
  AnalysisManager AM(*Par);
  HelixOptions Opts;
  std::vector<ParallelLoopInfo> Loops;
  std::vector<std::pair<Function *, BasicBlock *>> Targets;
  for (Function *F : *Par) {
    if (F->name().find(".k") == std::string::npos)
      continue;
    for (Loop *L : AM.get<LoopInfo>(F).topLevelLoops())
      Targets.push_back({F, L->header()});
  }
  for (auto &[F, H] : Targets)
    if (auto PLI = parallelizeLoop(AM, F, H, Opts))
      Loops.push_back(std::move(*PLI));

  for (const ParallelLoopInfo &PLI : Loops)
    std::printf("loop @%s: %zu segment(s), %s prologue, %u->%u signals\n",
                PLI.F->name().c_str(), PLI.Segments.size(),
                PLI.SelfStartingPrologue ? "self-starting" : "chained",
                PLI.NumSignalsInserted, PLI.NumSignalsKept);

  // Real threads.
  std::vector<const ParallelLoopInfo *> Ptrs;
  for (auto &L : Loops)
    Ptrs.push_back(&L);
  RuntimeStats Stats;
  ExecResult Thr = runThreaded(*Par, Ptrs, 4, &Stats);
  std::printf("\nthreaded checksum   : %lld on 4 threads "
              "(%llu invocations, %llu iterations, %llu signals) -> %s\n",
              (long long)Thr.ReturnValue.asInt(),
              (unsigned long long)Stats.ParallelInvocations,
              (unsigned long long)Stats.ParallelIterations,
              (unsigned long long)Stats.SignalsSent,
              Thr.Ok && Thr.ReturnValue == Seq.ReturnValue ? "MATCH"
                                                           : "MISMATCH");

  // Timing: the full pipeline lets loop selection decide, and it rejects
  // the pointer chase (serial chain + per-signal latency) while keeping
  // the histogram.
  PipelineConfig Config;
  PipelineReport Report = PipelineBuilder::standard().run(*M, Config);
  std::printf("pipeline (6 cores)  : speedup %.2fx, %zu of %u candidate "
              "loops chosen\n",
              Report.Speedup, Report.Loops.size(), Report.NumCandidates);
  for (const LoopReport &L : Report.Loops)
    std::printf("  chosen: %s\n", L.Name.c_str());
  std::printf("\nthe pointer chase is rejected by selection (serial "
              "dependence chain);\nthe histogram's parallel work "
              "dominates and speeds the program up.\n");
  return Thr.Ok && Thr.ReturnValue == Seq.ReturnValue && Report.Ok ? 0 : 1;
}
