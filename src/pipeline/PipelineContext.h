//===----------------------------------------------------------------------===//
///
/// \file
/// The typed blackboard the pipeline stages communicate through. A context
/// is bound to one original module and owns every artifact the stages
/// produce: the pristine clone, its analyses and loop nesting graph, the
/// profiles, the model inputs, the chosen set, the transformed program,
/// the execution traces and the report.
///
/// The context also implements stage-result caching: each successful stage
/// execution is recorded together with a key derived from the slice of the
/// configuration the stage reads. Re-running a pipeline on the same
/// context after changing the configuration re-executes only the stages
/// whose key changed (and everything downstream of them), so a sweep that
/// varies one selection knob re-uses the expensive profiling work — the
/// Figure 10/12/13 ablations profile once instead of once per point.
///
//===----------------------------------------------------------------------===//

#ifndef HELIX_PIPELINE_PIPELINECONTEXT_H
#define HELIX_PIPELINE_PIPELINECONTEXT_H

#include "analysis/AnalysisManager.h"
#include "analysis/LoopNestGraph.h"
#include "helix/ParallelLoopInfo.h"
#include "pipeline/PipelineConfig.h"
#include "pipeline/PipelineReport.h"
#include "profile/Profiler.h"
#include "sim/TraceCollector.h"

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace helix {

class StageCache;

class PipelineContext {
public:
  /// \p Original must outlive the context; stages clone it and never
  /// mutate it.
  explicit PipelineContext(const Module &Original,
                           const PipelineConfig &Config = PipelineConfig())
      : Original(&Original), Config(Config) {}

  PipelineContext(const PipelineContext &) = delete;
  PipelineContext &operator=(const PipelineContext &) = delete;

  const Module &original() const { return *Original; }

  const PipelineConfig &config() const { return Config; }
  /// Replaces the configuration for subsequent runs. Cached stage results
  /// are *not* dropped here: each stage's cache key decides whether the
  /// new configuration invalidates it.
  void setConfig(const PipelineConfig &C) { Config = C; }

  // --- Artifacts, in stage order. Public by design: stages are spread
  //     over several translation units and the context is their interface.

  // profile
  std::unique_ptr<Module> Pristine;     ///< clone the pipeline works on
  std::unique_ptr<AnalysisManager> AM;  ///< analyses of Pristine
  std::unique_ptr<LoopNestGraph> LNG;   ///< loop nesting graph of Pristine
  ExecResult SeqRun;                  ///< sequential (training) run
  ProgramProfile Profile;
  std::vector<unsigned> Levels; ///< dynamic nesting level per LNG node

  // candidates
  std::vector<unsigned> Candidates; ///< LNG node ids worth evaluating

  // model-profile
  std::vector<std::optional<LoopModelInputs>> ModelInputs; ///< per LNG node

  // select
  std::vector<unsigned> Chosen; ///< LNG node ids to parallelize

  // transform
  std::unique_ptr<Module> Transformed;
  std::unique_ptr<AnalysisManager> TransformedAM;
  /// (LNG node, metadata) per successfully parallelized loop. Stable for
  /// the lifetime of the transform result: Traces points into it.
  std::vector<std::pair<unsigned, ParallelLoopInfo>> TransformedLoops;

  // validate
  std::unique_ptr<TraceCollector> Traces;
  ExecResult ParRun;

  // simulate / aggregate
  PipelineReport Report;

  // --- Stage-result cache ------------------------------------------------

  /// A successful stage execution: the config key it ran under and a
  /// monotonic generation stamp. The stamp orders executions *across*
  /// pipeline runs, so a cached result is trusted only when nothing
  /// upstream of it has executed more recently — even when the upstream
  /// stage re-ran as part of a different (e.g. partial) pipeline.
  struct StageRecord {
    std::string Key;
    uint64_t Generation = 0;
  };
  const StageRecord *stageRecord(const std::string &Name) const {
    auto It = StageKeys.find(Name);
    return It == StageKeys.end() ? nullptr : &It->second;
  }
  /// Records a successful execution and returns its generation stamp.
  uint64_t recordStageResult(const std::string &Name, const std::string &Key) {
    StageKeys[Name] = {Key, ++Generation};
    return Generation;
  }
  void clearStageResult(const std::string &Name) { StageKeys.erase(Name); }

  // --- Persistent / shared stage cache -----------------------------------

  /// Attaches a stage cache (pipeline/StageCache.h — disk-backed,
  /// in-memory, or layered). \p WorkloadKey names this context's program
  /// in entry files — bench harnesses pass the workload name, the serve
  /// daemon a per-service label. The cache must outlive the context. Pass
  /// nullptr to detach. Subsequent Pipeline::run calls will satisfy
  /// persistence-aware stages from it (and populate it after executions).
  void setStageCache(StageCache *Cache, std::string WorkloadKey) {
    this->Cache = Cache;
    this->WorkloadKey = std::move(WorkloadKey);
  }
  StageCache *stageCache() const { return Cache; }
  const std::string &workloadKey() const { return WorkloadKey; }

  /// Fingerprint of the original module, computed lazily by Pipeline::run
  /// when a disk cache is attached (it needs the IR printer, which this
  /// header must not depend on).
  const std::string &moduleFingerprint() const { return Fingerprint; }
  void setModuleFingerprint(std::string F) { Fingerprint = std::move(F); }

  // --- Instrumentation ---------------------------------------------------

  /// One entry per stage slot of every pipeline run on this context.
  struct StageRun {
    std::string Name;
    bool Cached = false;     ///< in-memory result reused, body not executed
    bool FromDisk = false;   ///< restored from the disk cache, body not run
    double WallMillis = 0.0; ///< 0 when Cached; load time when FromDisk
    uint64_t InterpretedInstructions = 0; ///< interpreter work in the stage
  };
  /// Detailed per-slot records, most recent last. Bounded: on very long
  /// sweeps the oldest half is dropped once the cap is hit; the
  /// timesExecuted/timesReused counters below are exact regardless.
  const std::vector<StageRun> &history() const { return History; }
  /// How often the stage body actually executed on this context.
  unsigned timesExecuted(const std::string &Name) const {
    auto It = ExecutedCount.find(Name);
    return It == ExecutedCount.end() ? 0 : It->second;
  }
  /// How often a cached result was reused instead.
  unsigned timesReused(const std::string &Name) const {
    auto It = ReusedCount.find(Name);
    return It == ReusedCount.end() ? 0 : It->second;
  }
  /// How often the stage was restored from the disk cache.
  unsigned timesLoadedFromDisk(const std::string &Name) const {
    auto It = DiskLoadCount.find(Name);
    return It == DiskLoadCount.end() ? 0 : It->second;
  }

  /// Stages call this to attribute interpreter work to the current run;
  /// the pipeline driver folds it into the StageRun record.
  void noteInterpreted(uint64_t Instructions) {
    PendingInstructions += Instructions;
  }

  /// Used by Pipeline::run around each stage execution.
  uint64_t takePendingInterpreted() {
    uint64_t N = PendingInstructions;
    PendingInstructions = 0;
    return N;
  }
  void addHistory(StageRun R) {
    (R.Cached ? ReusedCount : R.FromDisk ? DiskLoadCount : ExecutedCount)
        [R.Name] += 1;
    if (History.size() >= MaxHistory)
      History.erase(History.begin(), History.begin() + MaxHistory / 2);
    History.push_back(std::move(R));
  }

private:
  static constexpr size_t MaxHistory = 8192;
  const Module *Original;
  PipelineConfig Config;
  std::map<std::string, StageRecord> StageKeys;
  uint64_t Generation = 0;
  std::vector<StageRun> History;
  std::map<std::string, unsigned> ExecutedCount, ReusedCount, DiskLoadCount;
  uint64_t PendingInstructions = 0;
  StageCache *Cache = nullptr;
  std::string WorkloadKey;
  std::string Fingerprint;
};

} // namespace helix

#endif // HELIX_PIPELINE_PIPELINECONTEXT_H
