//===----------------------------------------------------------------------===//
///
/// \file
/// Shared helpers for the benchmark harnesses: suite iteration with
/// stage-result reuse (in-memory across configuration points, on-disk
/// across invocations), geometric mean, table formatting.
///
//===----------------------------------------------------------------------===//

#ifndef HELIX_BENCH_BENCHUTIL_H
#define HELIX_BENCH_BENCHUTIL_H

#include "obs/BenchJson.h"
#include "pipeline/PipelineBuilder.h"
#include "pipeline/StageCache.h"
#include "workloads/WorkloadBuilder.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

namespace helix {
namespace bench {

inline double geoMean(const std::vector<double> &Values) {
  if (Values.empty())
    return 0.0;
  double LogSum = 0.0;
  for (double V : Values)
    LogSum += std::log(std::max(1e-9, V));
  return std::exp(LogSum / double(Values.size()));
}

/// The disk-persistent stage cache every bench harness shares. Directory:
/// $HELIX_STAGE_CACHE_DIR, defaulting to ".helix-stage-cache" under the
/// working directory; set it to "off" to disable. A second invocation of
/// any harness restores the training-run stages (profile, candidates,
/// model-profile) from here with zero interpreter instructions.
inline DiskStageCache *defaultStageCache() {
  static std::unique_ptr<DiskStageCache> Cache = [] {
    const char *Env = std::getenv("HELIX_STAGE_CACHE_DIR");
    std::string Dir = Env ? Env : ".helix-stage-cache";
    if (Dir.empty() || Dir == "off" || Dir == "0")
      return std::unique_ptr<DiskStageCache>();
    auto C = std::make_unique<DiskStageCache>(Dir);
    if (!C->ok()) {
      std::fprintf(stderr,
                   "warning: stage cache directory '%s' unusable; "
                   "running cold\n",
                   Dir.c_str());
      return std::unique_ptr<DiskStageCache>();
    }
    return C;
  }();
  return Cache.get();
}

/// Sweeps several configurations over one workload through a single
/// PipelineContext wired to the shared disk cache: stages whose
/// configuration slice is unchanged between points are reused in memory,
/// and training runs recorded by an earlier process are restored from
/// disk. \p PerRun is invoked as (configIndex, report); \p PerWorkload
/// (context) once afterwards, e.g. to report cache reuse.
template <typename PerRunT, typename PerWorkloadT>
void sweepWorkload(const std::string &Name, const Module &M,
                   const std::vector<PipelineConfig> &Configs, PerRunT PerRun,
                   PerWorkloadT PerWorkload) {
  Pipeline P = PipelineBuilder::standard();
  PipelineContext Ctx(M);
  Ctx.setStageCache(defaultStageCache(), Name);
  for (size_t K = 0; K != Configs.size(); ++K) {
    Ctx.setConfig(Configs[K]);
    PipelineReport Report = P.run(Ctx);
    PerRun(unsigned(K), Report);
  }
  PerWorkload(Ctx);
}

/// Sweeps several configurations over every suite benchmark (one context
/// per benchmark, see sweepWorkload). \p PerRun is invoked as
/// (spec, configIndex, report); \p PerBench (spec, context) after each
/// benchmark's sweep.
template <typename PerRunT, typename PerBenchT>
void sweepEachBenchmark(const std::vector<PipelineConfig> &Configs,
                        PerRunT PerRun, PerBenchT PerBench) {
  for (const WorkloadSpec &Spec : spec2000Suite()) {
    std::unique_ptr<Module> M = buildWorkload(Spec);
    sweepWorkload(
        Spec.Name, *M, Configs,
        [&](unsigned K, const PipelineReport &R) { PerRun(Spec, K, R); },
        [&](const PipelineContext &Ctx) { PerBench(Spec, Ctx); });
  }
}

/// One-line summary of where a context's training work came from, for the
/// harnesses' per-benchmark "checks" column.
inline std::string trainingSourceNote(const PipelineContext &Ctx) {
  char Buf[96];
  std::snprintf(Buf, sizeof(Buf), "profile ran %ux, reused %ux, disk %ux",
                Ctx.timesExecuted("profile"), Ctx.timesReused("profile"),
                Ctx.timesLoadedFromDisk("profile"));
  return Buf;
}

inline void printHeader(const char *Title, const char *Reference) {
  std::printf("==========================================================\n");
  std::printf("%s\n", Title);
  std::printf("(reproduces %s of Campanoni et al., CGO 2012)\n", Reference);
  std::printf("==========================================================\n");
}

} // namespace bench
} // namespace helix

#endif // HELIX_BENCH_BENCHUTIL_H
