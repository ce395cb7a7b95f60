//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the loop-selection algorithm (Section 2.2): maxT propagation,
/// outer-vs-inner decisions, and sensitivity to the assumed signal latency.
///
//===----------------------------------------------------------------------===//

#include "helix/LoopSelection.h"
#include "pipeline/PipelineBuilder.h"
#include "workloads/WorkloadBuilder.h"

#include <gtest/gtest.h>

using namespace helix;

namespace {

/// Builds a tiny two-level program: a main loop over a kernel containing
/// an inner DOALL loop, and profiles it.
struct Fixture {
  std::unique_ptr<Module> M;
  std::unique_ptr<AnalysisManager> AM;
  std::unique_ptr<LoopNestGraph> LNG;
  ProgramProfile Profile;
};

Fixture makeSetup() {
  Fixture S;
  WorkloadSpec Spec;
  Spec.Name = "sel";
  Spec.Seed = 3;
  Spec.MainRepeat = 2;
  Spec.Phases = {{2, false, {{KernelIdiom::DoAll, 64, 16, 8}}}};
  S.M = buildWorkload(Spec);
  S.AM = std::make_unique<AnalysisManager>(*S.M);
  S.LNG = std::make_unique<LoopNestGraph>(*S.M, *S.AM);
  ExecResult R;
  S.Profile = profileProgram(*S.M, *S.LNG, *S.AM, &R);
  EXPECT_TRUE(R.Ok) << R.Error;
  return S;
}

TEST(Selection, ProfilerCountsInvocationsAndIterations) {
  Fixture S = makeSetup();
  // Find the kernel loop node and check its dynamic counts: 2 main
  // iterations x 2 phase repeats = 4 invocations of 64 iterations.
  bool Found = false;
  for (unsigned N = 0; N != S.LNG->numNodes(); ++N) {
    const LoopNestNode &Node = S.LNG->node(N);
    if (Node.F->name().find(".k0.") == std::string::npos)
      continue;
    Found = true;
    EXPECT_EQ(S.Profile.Loops[N].Invocations, 4u);
    EXPECT_GE(S.Profile.Loops[N].Iterations, 4u * 64u);
  }
  EXPECT_TRUE(Found);
  EXPECT_GT(S.Profile.TotalCycles, 0u);
  EXPECT_FALSE(S.Profile.DynamicEdges.empty());
}

TEST(Selection, MaxTPropagatesFromChildren) {
  Fixture S = makeSetup();
  // Give only the innermost (kernel) loop a profitable model input.
  std::vector<std::optional<LoopModelInputs>> Inputs(S.LNG->numNodes());
  for (unsigned N = 0; N != S.LNG->numNodes(); ++N) {
    if (S.LNG->node(N).F->name().find(".k0.") == std::string::npos)
      continue;
    LoopModelInputs In;
    In.SeqCycles = 100000;
    In.ParallelCycles = 95000;
    In.SelfStarting = true;
    In.Invocations = 4;
    In.Iterations = 256;
    Inputs[N] = In;
  }
  ModelParams P;
  SelectionResult R = selectLoops(*S.LNG, S.Profile, Inputs, P);
  ASSERT_EQ(R.Chosen.size(), 1u);
  EXPECT_NE(S.LNG->node(R.Chosen[0]).F->name().find(".k0."),
            std::string::npos);
  // Ancestors carry the child's maxT.
  for (unsigned N = 0; N != S.LNG->numNodes(); ++N)
    if (S.LNG->node(N).F->name() == "main") {
      EXPECT_GE(R.MaxT[N], R.T[R.Chosen[0]] - 1e-6);
    }
}

TEST(Selection, PrefersOuterLoopWhenEquallyGood) {
  Fixture S = makeSetup();
  std::vector<std::optional<LoopModelInputs>> Inputs(S.LNG->numNodes());
  // Outer (phase) loop saves as much as the kernel loop: choose outer.
  for (unsigned N = 0; N != S.LNG->numNodes(); ++N) {
    const LoopNestNode &Node = S.LNG->node(N);
    LoopModelInputs In;
    In.SelfStarting = true;
    In.Invocations = 1;
    In.Iterations = 10;
    if (Node.F->name().find("phase") != std::string::npos) {
      In.SeqCycles = 200000;
      In.ParallelCycles = 190000;
      Inputs[N] = In;
    } else if (Node.F->name().find(".k0.") != std::string::npos) {
      In.SeqCycles = 100000;
      In.ParallelCycles = 95000;
      Inputs[N] = In;
    }
  }
  ModelParams P;
  SelectionResult R = selectLoops(*S.LNG, S.Profile, Inputs, P);
  ASSERT_FALSE(R.Chosen.empty());
  bool ChoseOuter = false;
  for (unsigned C : R.Chosen)
    ChoseOuter |=
        S.LNG->node(C).F->name().find("phase") != std::string::npos;
  EXPECT_TRUE(ChoseOuter);
  // And nothing below the chosen outer loop is also chosen.
  for (unsigned C : R.Chosen)
    EXPECT_EQ(S.LNG->node(C).F->name().find(".k0."), std::string::npos);
}

TEST(Selection, RejectsLoopsWithNoSavings) {
  Fixture S = makeSetup();
  std::vector<std::optional<LoopModelInputs>> Inputs(S.LNG->numNodes());
  for (unsigned N = 0; N != S.LNG->numNodes(); ++N) {
    LoopModelInputs In;
    In.SeqCycles = 1000;
    In.ParallelCycles = 100; // almost entirely serial
    In.Invocations = 50;     // heavy per-invocation overhead
    In.Iterations = 100;
    In.DataSignals = 100;
    Inputs[N] = In;
  }
  ModelParams P;
  P.SignalCycles = 110.0;
  SelectionResult R = selectLoops(*S.LNG, S.Profile, Inputs, P);
  EXPECT_TRUE(R.Chosen.empty());
}

TEST(Selection, HigherLatencyNeverSelectsMoreLoops) {
  auto M = buildSpecWorkload("twolf");
  PipelineConfig Fast, Slow;
  Fast.Selection.SignalCycles = 0.0;
  Slow.Selection.SignalCycles = 110.0;
  PipelineReport RF = PipelineBuilder::standard().run(*M, Fast);
  PipelineReport RS = PipelineBuilder::standard().run(*M, Slow);
  ASSERT_TRUE(RF.Ok && RS.Ok);
  EXPECT_LE(RS.Loops.size(), RF.Loops.size());
}

} // namespace
