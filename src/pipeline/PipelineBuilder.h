//===----------------------------------------------------------------------===//
///
/// \file
/// Composition of stages into runnable pipelines.
///
/// A Pipeline is an ordered list of stages executed against a
/// PipelineContext with per-stage caching and instrumentation. A
/// PipelineBuilder assembles one from code (add()) or from a pipeline
/// string such as
///
///   "profile,candidates,model-profile,select,transform,validate,simulate"
///
/// Shorthand strings are allowed: build() completes missing dependencies
/// by inserting them before their dependents, so "profile,select,simulate"
/// builds the full eight-stage pipeline. Ordering violations (a stage
/// listed after one that depends on it) and duplicates are build errors.
///
//===----------------------------------------------------------------------===//

#ifndef HELIX_PIPELINE_PIPELINEBUILDER_H
#define HELIX_PIPELINE_PIPELINEBUILDER_H

#include "pipeline/PipelineContext.h"
#include "pipeline/Stage.h"

#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace helix {

/// Called after every stage slot of a run (executed or cache-skipped).
using StageCallback = std::function<void(const PipelineContext::StageRun &)>;

class Pipeline {
public:
  Pipeline() = default;
  Pipeline(Pipeline &&) = default;
  Pipeline &operator=(Pipeline &&) = default;

  /// Executes the stages in order against \p Ctx. Stages whose cached
  /// result is still valid for Ctx.config() are skipped; the first stage
  /// that must re-run invalidates everything downstream. \returns a copy
  /// of the context's report (Ok=true when every stage succeeded).
  PipelineReport run(PipelineContext &Ctx) const;

  /// One-shot convenience: fresh context over \p Original, run, report.
  PipelineReport run(const Module &Original,
                     const PipelineConfig &Config) const;

  size_t size() const { return Stages.size(); }
  const Stage &stage(size_t I) const { return *Stages[I]; }
  bool empty() const { return Stages.empty(); }

  /// The pipeline string: stage names joined with ','. Parsing this string
  /// again builds an identical pipeline (round trip).
  std::string str() const;

  void setInstrumentation(StageCallback CB) { Callback = std::move(CB); }

private:
  friend class PipelineBuilder;
  std::vector<std::unique_ptr<Stage>> Stages;
  StageCallback Callback;
};

class PipelineBuilder {
public:
  /// Instantiates a registered standard stage by name; null for unknown
  /// names.
  static std::unique_ptr<Stage> createStage(const std::string &Name);
  /// Names of all registered standard stages, in canonical order.
  static const std::vector<std::string> &standardStageNames();
  /// The full eight-stage pipeline.
  static Pipeline standard();

  /// Appends a custom stage instance.
  PipelineBuilder &add(std::unique_ptr<Stage> S);
  /// Appends a registered stage by name; records an error for unknown
  /// names.
  PipelineBuilder &add(const std::string &Name);
  /// Appends every stage of a pipeline string ("a,b,c", whitespace
  /// tolerated).
  PipelineBuilder &parse(const std::string &Text);
  /// Instrumentation hook installed on the built pipeline.
  PipelineBuilder &instrument(StageCallback CB);

  /// Validates the composition, completes missing dependencies, and
  /// returns the pipeline. On error returns an empty pipeline and, when
  /// \p Err is non-null, stores a description. The builder is consumed.
  Pipeline build(std::string *Err = nullptr);

private:
  std::vector<std::unique_ptr<Stage>> Pending;
  StageCallback Callback;
  std::string Error;
};

} // namespace helix

#endif // HELIX_PIPELINE_PIPELINEBUILDER_H
