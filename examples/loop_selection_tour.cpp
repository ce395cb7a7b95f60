//===----------------------------------------------------------------------===//
///
/// \file
/// Loop-selection tour (the Figure 8 walk-through): build a benchmark,
/// profile it, print the dynamic loop nesting graph with the T / maxT
/// attributes of the speedup model, and show which loops the two-phase
/// algorithm selects — and how the choice shifts when the assumed signal
/// latency changes.
///
/// Run: ./examples/loop_selection_tour [benchmark-name]
///
//===----------------------------------------------------------------------===//

#include "pipeline/PipelineBuilder.h"
#include "workloads/WorkloadBuilder.h"

#include <cstdio>
#include <cstring>

using namespace helix;

int main(int argc, char **argv) {
  const char *Name = argc > 1 ? argv[1] : "twolf";
  std::unique_ptr<Module> M = buildSpecWorkload(Name);
  if (!M) {
    std::printf("unknown benchmark '%s'\n", Name);
    return 1;
  }
  std::printf("== Loop selection on %s (Figure 8 methodology) ==\n\n", Name);

  for (double S : {4.0, 110.0}) {
    PipelineConfig Config;
    Config.Selection.SignalCycles = S;
    PipelineReport R = PipelineBuilder::standard().run(*M, Config);
    if (!R.Ok) {
      std::printf("pipeline failed: %s\n", R.Error.c_str());
      return 1;
    }
    std::printf("assumed signal latency S = %.0f cycles:\n", S);
    std::printf("  candidates=%u chosen=%zu speedup=%.2fx "
                "(model %.2fx)\n",
                R.NumCandidates, R.Loops.size(), R.Speedup,
                R.ModelSpeedup);
    for (const LoopReport &L : R.Loops)
      std::printf("    level %u  %-28s segs=%u  P=%llu/%llu cycles\n",
                  L.NestingLevel, L.Name.c_str(), L.NumSegments,
                  (unsigned long long)L.Inputs.ParallelCycles,
                  (unsigned long long)L.Inputs.SeqCycles);
    std::printf("\n");
  }

  std::printf("higher assumed latency pushes selection toward outermost "
              "loops\n(or drops unprofitable loops entirely), exactly "
              "Figure 13's effect.\n");
  return 0;
}
