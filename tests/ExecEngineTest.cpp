//===----------------------------------------------------------------------===//
///
/// \file
/// Differential tests of the decoded execution engine against the retained
/// tree-walk reference: ExecResult fields, observer event streams, loop
/// traces and runtime statistics must match instruction-for-instruction on
/// every workload idiom, plus decode/cache semantics and a fuzz smoke
/// running all three oracle legs on the engine.
///
//===----------------------------------------------------------------------===//

#include "analysis/LoopInfo.h"
#include "fuzz/Fuzzer.h"
#include "helix/HelixTransform.h"
#include "ir/Clone.h"
#include "ir/IRParser.h"
#include "runtime/ThreadedRuntime.h"
#include "sim/Interpreter.h"
#include "sim/TraceCollector.h"
#include "sim/TreeWalkInterpreter.h"
#include "workloads/WorkloadBuilder.h"

#include <gtest/gtest.h>

using namespace helix;

namespace {

void expectResultsEqual(const ExecResult &Ref, const ExecResult &Got) {
  EXPECT_EQ(Ref.Ok, Got.Ok) << Ref.Error << " vs " << Got.Error;
  EXPECT_EQ(Ref.Error, Got.Error);
  EXPECT_EQ(Ref.BudgetExhausted, Got.BudgetExhausted);
  EXPECT_TRUE(Ref.ReturnValue == Got.ReturnValue);
  EXPECT_EQ(Ref.Cycles, Got.Cycles);
  EXPECT_EQ(Ref.Instructions, Got.Instructions);
}

void expectTracesEqual(const TraceCollector &Ref, const TraceCollector &Got) {
  EXPECT_EQ(Ref.outsideCycles(), Got.outsideCycles());
  ASSERT_EQ(Ref.traces().size(), Got.traces().size());
  for (size_t L = 0; L != Ref.traces().size(); ++L) {
    const LoopTraces &RT = Ref.traces()[L];
    const LoopTraces &GT = Got.traces()[L];
    ASSERT_EQ(RT.Invocations.size(), GT.Invocations.size()) << "loop " << L;
    for (size_t V = 0; V != RT.Invocations.size(); ++V) {
      const InvocationTrace &RI = RT.Invocations[V];
      const InvocationTrace &GI = GT.Invocations[V];
      EXPECT_EQ(RI.SeqCycles, GI.SeqCycles);
      ASSERT_EQ(RI.Iterations.size(), GI.Iterations.size())
          << "loop " << L << " invocation " << V;
      for (size_t I = 0; I != RI.Iterations.size(); ++I) {
        const IterationTrace &RIt = RI.Iterations[I];
        const IterationTrace &GIt = GI.Iterations[I];
        EXPECT_EQ(RIt.TotalCycles, GIt.TotalCycles);
        EXPECT_EQ(RIt.PrologueCycles, GIt.PrologueCycles);
        EXPECT_EQ(RIt.SegmentCycles, GIt.SegmentCycles);
        EXPECT_EQ(RIt.NumLoads, GIt.NumLoads);
        ASSERT_EQ(RIt.Events.size(), GIt.Events.size())
            << "loop " << L << " invocation " << V << " iteration " << I;
        for (size_t E = 0; E != RIt.Events.size(); ++E) {
          EXPECT_EQ(RIt.Events[E].K, GIt.Events[E].K);
          EXPECT_EQ(RIt.Events[E].A, GIt.Events[E].A);
          EXPECT_EQ(RIt.Events[E].C, GIt.Events[E].C);
        }
      }
    }
  }
}

/// Transforms every loop of every kernel function of \p M (in a clone) and
/// returns the clone plus loop metadata.
struct Prepared {
  std::unique_ptr<Module> M;
  std::vector<ParallelLoopInfo> Loops;
};

Prepared prepare(const Module &Original) {
  Prepared Out;
  CloneMap Map;
  Out.M = cloneModule(Original, &Map);
  AnalysisManager AM(*Out.M);
  HelixOptions Opts;
  std::vector<std::pair<Function *, BasicBlock *>> Targets;
  for (Function *F : *Out.M) {
    if (F->name().find(".k") == std::string::npos)
      continue;
    for (Loop *L : AM.get<LoopInfo>(F).topLevelLoops())
      Targets.push_back({F, L->header()});
  }
  for (auto &[F, H] : Targets) {
    auto PLI = parallelizeLoop(AM, F, H, Opts);
    if (PLI)
      Out.Loops.push_back(std::move(*PLI));
  }
  return Out;
}

std::unique_ptr<Module> idiomWorkload(KernelIdiom Idiom) {
  WorkloadSpec Spec;
  Spec.Name = "exec";
  Spec.Seed = 11;
  Spec.MainRepeat = 2;
  Spec.Phases = {{2, false, {{Idiom, 80, 30, 16}}}};
  return buildWorkload(Spec);
}

class DecodedIdiom : public ::testing::TestWithParam<KernelIdiom> {};

/// Plain sequential execution: decoded run must match the tree-walk run in
/// result, error, cycle and instruction accounting.
TEST_P(DecodedIdiom, SequentialMatchesTreeWalk) {
  auto M = idiomWorkload(GetParam());
  TreeWalkInterpreter Ref(*M);
  ExecResult RefR = Ref.run();
  Interpreter Dec(*M);
  ExecResult DecR = Dec.run();
  ASSERT_TRUE(RefR.Ok) << RefR.Error;
  expectResultsEqual(RefR, DecR);
}

/// The tracing driver: run the transformed module under a TraceCollector
/// on both engines; every invocation, iteration and event must agree.
TEST_P(DecodedIdiom, TracesMatchTreeWalk) {
  auto M = idiomWorkload(GetParam());
  Prepared P = prepare(*M);
  ASSERT_FALSE(P.Loops.empty());
  std::vector<const ParallelLoopInfo *> Ptrs;
  for (auto &L : P.Loops)
    Ptrs.push_back(&L);

  TraceCollector RefTC(Ptrs);
  TreeWalkInterpreter Ref(*P.M);
  Ref.setObserver(&RefTC);
  ExecResult RefR = Ref.run();
  ASSERT_TRUE(RefR.Ok) << RefR.Error;

  TraceCollector DecTC(Ptrs);
  Interpreter Dec(*P.M);
  Dec.setObserver(&DecTC);
  ExecResult DecR = Dec.run();

  expectResultsEqual(RefR, DecR);
  expectTracesEqual(RefTC, DecTC);
}

/// The threaded driver: decoded workers must compute the sequential
/// checksum, and the runtime statistics (invocations, iterations, signals)
/// must be thread-count invariant — every iteration executes the same
/// decoded code no matter which worker runs it.
TEST_P(DecodedIdiom, ThreadedMatchesSequentialAndStatsAreStable) {
  auto M = idiomWorkload(GetParam());
  TreeWalkInterpreter Ref(*M);
  ExecResult RefR = Ref.run();
  ASSERT_TRUE(RefR.Ok) << RefR.Error;

  Prepared P = prepare(*M);
  ASSERT_FALSE(P.Loops.empty());
  std::vector<const ParallelLoopInfo *> Ptrs;
  for (auto &L : P.Loops)
    Ptrs.push_back(&L);

  RuntimeStats First;
  for (unsigned Threads : {1u, 2u, 4u, 8u}) {
    RuntimeStats Stats;
    ExecResult R = runThreaded(*P.M, Ptrs, Threads, &Stats);
    ASSERT_TRUE(R.Ok) << R.Error;
    EXPECT_TRUE(R.ReturnValue == RefR.ReturnValue) << "threads " << Threads;
    EXPECT_GT(Stats.ParallelInvocations, 0u);
    EXPECT_GT(Stats.ParallelIterations, 0u);
    if (Threads == 1u) {
      First = Stats;
      continue;
    }
    EXPECT_EQ(Stats.ParallelInvocations, First.ParallelInvocations);
    EXPECT_EQ(Stats.ParallelIterations, First.ParallelIterations);
    EXPECT_EQ(Stats.SignalsSent, First.SignalsSent);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllIdioms, DecodedIdiom,
    ::testing::Values(KernelIdiom::DoAll, KernelIdiom::DoAllFP,
                      KernelIdiom::Reduction, KernelIdiom::PointerChase,
                      KernelIdiom::Histogram, KernelIdiom::Stencil,
                      KernelIdiom::Branchy, KernelIdiom::Nested2D,
                      KernelIdiom::TwoAccum));

/// Observer event streams must be identical element-for-element: same
/// instructions in the same order with the same costs, same edges. The
/// observed Interpreter runs the fused decode, so fused handlers must
/// report every original instruction exactly once, in tree-walk order,
/// with its own cost.
TEST(ExecEngine, ObserverStreamMatchesTreeWalk) {
  struct Recorder : ExecObserver {
    std::vector<std::pair<const Instruction *, unsigned>> Instrs;
    std::vector<std::pair<const BasicBlock *, const BasicBlock *>> Edges;
    std::vector<unsigned> Depths;
    void onInstruction(const Instruction *I, unsigned Cycles,
                       ExecState &S) override {
      Instrs.push_back({I, Cycles});
      Depths.push_back(S.callDepth());
    }
    void onEdge(const BasicBlock *From, const BasicBlock *To,
                ExecState &) override {
      Edges.push_back({From, To});
    }
  };

  obs::Counter &StepsFused =
      obs::MetricsRegistry::global().counter("exec.dispatch.steps_fused");
  std::unique_ptr<Module> Inputs[] = {buildSpecWorkload("mcf"),
                                      idiomWorkload(KernelIdiom::Branchy)};
  for (const auto &M : Inputs) {
    Recorder Ref, Dec;
    TreeWalkInterpreter RefI(*M);
    RefI.setObserver(&Ref);
    ASSERT_TRUE(RefI.run().Ok);
    Interpreter DecI(*M);
    DecI.setObserver(&Dec);
    uint64_t Fused0 = StepsFused.value();
    ASSERT_TRUE(DecI.run().Ok);
    EXPECT_GT(StepsFused.value(), Fused0); // fused handlers ran observed

    ASSERT_EQ(Ref.Instrs.size(), Dec.Instrs.size());
    EXPECT_TRUE(Ref.Instrs == Dec.Instrs);
    EXPECT_TRUE(Ref.Edges == Dec.Edges);
    EXPECT_TRUE(Ref.Depths == Dec.Depths);
  }
}

TEST(ExecEngine, TrapsMatchTreeWalk) {
  ParseResult P = parseModule(
      "func @main(0) {\nentry:\n  r0 = mov 5\n  r1 = div r0, 0\n  ret r1\n}\n");
  ASSERT_TRUE(P.succeeded());
  TreeWalkInterpreter Ref(*P.M);
  Interpreter Dec(*P.M);
  expectResultsEqual(Ref.run(), Dec.run());
}

TEST(ExecEngine, BudgetMatchesTreeWalk) {
  ParseResult P = parseModule("func @main(0) {\nentry:\n  br entry\n}\n");
  ASSERT_TRUE(P.succeeded());
  TreeWalkInterpreter Ref(*P.M);
  Ref.setMaxInstructions(1234);
  Interpreter Dec(*P.M);
  Dec.setMaxInstructions(1234);
  ExecResult RefR = Ref.run(), DecR = Dec.run();
  EXPECT_TRUE(RefR.BudgetExhausted);
  expectResultsEqual(RefR, DecR);
}

TEST(ExecEngine, FunctionArgumentsAndNamedEntryPoints) {
  ParseResult P = parseModule("func @addmul(2) {\nentry:\n  r2 = add r0, r1\n"
                              "  r3 = mul r2, r0\n  ret r3\n}\n"
                              "func @main(0) {\nentry:\n  ret 0\n}\n");
  ASSERT_TRUE(P.succeeded());
  Interpreter Dec(*P.M);
  ExecResult R = Dec.run("addmul", {Value::ofInt(3), Value::ofInt(4)});
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.ReturnValue.asInt(), 21);
  EXPECT_FALSE(Dec.run("nosuch").Ok);
  EXPECT_FALSE(Dec.run("addmul", {Value::ofInt(1)}).Ok); // arity mismatch
}

TEST(ExecEngine, DecodeCacheHitsAndInvalidation) {
  ParseResult P = parseModule(
      "func @main(0) {\nentry:\n  r0 = add 40, 2\n  ret r0\n}\n");
  ASSERT_TRUE(P.succeeded());
  Module &M = *P.M;

  DecodeCache &Cache = DecodeCache::global();
  Cache.clear();
  uint64_t Decodes0 = Cache.decodes(), Hits0 = Cache.hits();

  auto A = Cache.get(M);
  auto B = Cache.get(M);
  EXPECT_EQ(A.get(), B.get()); // same decode served twice
  EXPECT_EQ(Cache.decodes(), Decodes0 + 1);
  EXPECT_EQ(Cache.hits(), Hits0 + 1);

  // Engines running the same module share the decode...
  Interpreter I1(M), I2(M);
  EXPECT_EQ(&I1.program(), &I2.program());
  EXPECT_EQ(Cache.decodes(), Decodes0 + 1);
  // ...and an observed run executes that same decode: attaching an
  // observer costs no second one.
  ExecObserver Silent;
  I1.setObserver(&Silent);
  ASSERT_TRUE(I1.run().Ok);
  EXPECT_EQ(Cache.decodes(), Decodes0 + 1);

  // ...until the module is mutated: the structural fingerprint changes and
  // the cache re-decodes instead of serving stale code.
  uint64_t FPBefore = ExecProgram::fingerprintModule(M);
  Module &Mut = M;
  Mut.function(0)->block(0)->instr(0)->setImm(7); // any semantic change
  EXPECT_NE(ExecProgram::fingerprintModule(M), FPBefore);
  auto C = Cache.get(M);
  EXPECT_NE(A.get(), C.get());
  EXPECT_EQ(Cache.decodes(), Decodes0 + 2);
}

TEST(ExecEngine, DecodePreResolvesOperandsAndTargets) {
  ParseResult P = parseModule(R"(
global @g 4 = {10, 20, 30}

func @main(0) {
entry:
  r0 = add @g, 1
  r1 = load r0
  br next
next:
  ret r1
}
)");
  ASSERT_TRUE(P.succeeded());
  ExecProgram Prog(*P.M);
  const DecodedFunction *Main = Prog.findFunction("main");
  ASSERT_NE(Main, nullptr);
  ASSERT_EQ(Main->code().size(), 4u);
  // The global operand became a pooled constant holding its base address.
  EXPECT_TRUE(Main->code()[0].Ops[0] & ConstOperandBit);
  EXPECT_EQ(Prog.constants()[Main->code()[0].Ops[0] & ~ConstOperandBit].asInt(),
            int64_t(Prog.globalBase(0)));
  // The branch target is a flat PC, pointing at the ret.
  EXPECT_EQ(Main->code()[2].Op, Opcode::Br);
  EXPECT_EQ(Main->code()[2].Succ1, 3u);
  EXPECT_EQ(Main->code()[3].Op, Opcode::Ret);
}

//===----------------------------------------------------------------------===//
// Superinstruction fusion
//===----------------------------------------------------------------------===//

/// The fused decode must be observationally identical to the tree-walk
/// reference: same return value, same step and cycle accounting. Swept
/// over every workload idiom so every fusion pattern (cmp+condbr, add+load,
/// add+store, sync pairs, ALU pairs) gets exercised; runs @main bare on
/// the dispatch loop so the fused-step count is visible.
TEST_P(DecodedIdiom, FusedMatchesTreeWalkAndFusionFires) {
  auto M = idiomWorkload(GetParam());
  ExecProgram Fused(*M);
  ASSERT_GT(Fused.fusedPairs(), 0u) << "idiom produced nothing fusable";

  TreeWalkInterpreter Ref(*M);
  ExecResult RefR = Ref.run();
  ASSERT_TRUE(RefR.Ok) << RefR.Error;

  PrivateExecMemory Mem(Fused);
  ExecContext Ctx;
  Ctx.pushFrame(*Fused.findFunction("main"));
  ASSERT_EQ(runEngine(Fused, Mem, Ctx, DefaultExecHooks()),
            ExecStop::Returned)
      << Ctx.Error;
  EXPECT_TRUE(RefR.ReturnValue == Ctx.Returned);
  EXPECT_EQ(RefR.Instructions, Ctx.Steps);
  EXPECT_EQ(RefR.Cycles, Ctx.Cycles);
  EXPECT_GT(Ctx.StepsFused, 0u);
}

/// Fusion must not change what a budget-capped run looks like: sweep the
/// step budget across values that land a cutoff inside fused pairs and
/// compare the exact stop state against the tree-walk reference.
TEST(ExecEngine, FusedBudgetCutoffsMatchTreeWalk) {
  auto M = idiomWorkload(KernelIdiom::Branchy);
  for (uint64_t Budget : {1u, 2u, 3u, 7u, 50u, 51u, 52u, 53u, 1000u, 1001u}) {
    TreeWalkInterpreter Ref(*M);
    Ref.setMaxInstructions(Budget);
    Interpreter Dec(*M);
    ASSERT_GT(Dec.program().fusedPairs(), 0u);
    Dec.setMaxInstructions(Budget);
    SCOPED_TRACE("budget " + std::to_string(Budget));
    expectResultsEqual(Ref.run(), Dec.run());
  }
}

//===----------------------------------------------------------------------===//
// Register windows
//===----------------------------------------------------------------------===//

/// A deep recursive chain: thousands of live frames means thousands of
/// live register windows stacked in one contiguous RegStack. The sum must
/// match the tree-walk reference exactly (and arithmetic: n(n+1)/2).
TEST(ExecEngine, RegisterWindowsSurviveDeepCallChains) {
  ParseResult P = parseModule(R"(
func @sum(1) {
entry:
  r1 = cmple r0, 0
  condbr r1, base, rec
base:
  ret 0
rec:
  r2 = sub r0, 1
  r3 = call @sum(r2)
  r4 = add r3, r0
  ret r4
}
func @main(0) {
entry:
  r0 = call @sum(3000)
  ret r0
}
)");
  ASSERT_TRUE(P.succeeded()) << P.Error;
  TreeWalkInterpreter Ref(*P.M);
  Interpreter Dec(*P.M);
  ExecResult RefR = Ref.run(), DecR = Dec.run();
  ASSERT_TRUE(RefR.Ok) << RefR.Error;
  EXPECT_EQ(RefR.ReturnValue.asInt(), 3000 * 3001 / 2);
  expectResultsEqual(RefR, DecR);
}

/// A trap deep inside a call chain: the error, the step/cycle accounting
/// at the trap point, and the interpreter's ability to run again cleanly
/// afterwards must all match the reference.
TEST(ExecEngine, TrapMidCallChainUnwindsLikeTreeWalk) {
  ParseResult P = parseModule(R"(
func @down(1) {
entry:
  r1 = cmple r0, 0
  condbr r1, boom, rec
boom:
  r2 = div 1, 0
  ret r2
rec:
  r3 = sub r0, 1
  r4 = call @down(r3)
  ret r4
}
func @main(0) {
entry:
  r0 = call @down(40)
  ret r0
}
)");
  ASSERT_TRUE(P.succeeded()) << P.Error;
  TreeWalkInterpreter Ref(*P.M);
  Interpreter Dec(*P.M);
  ExecResult RefR = Ref.run(), DecR = Dec.run();
  EXPECT_FALSE(RefR.Ok);
  expectResultsEqual(RefR, DecR);
  // A fresh run on the same engine starts from a clean window stack.
  expectResultsEqual(Ref.run(), Dec.run());
}

//===----------------------------------------------------------------------===//
// Content-addressed decode
//===----------------------------------------------------------------------===//

/// Two structurally identical modules (separate parses, different Module
/// objects) must share one decoded body: the second get() is a body hit,
/// not a decode, and both instances point at the same ExecCodeBody.
TEST(ExecEngine, ContentAddressedDecodeSharesBodies) {
  const char *Text = R"(
global @caddr_g 3 = {5, 6, 7}

func @main(0) {
entry:
  r0 = add @caddr_g, 2
  r1 = load r0
  ret r1
}
)";
  ParseResult P1 = parseModule(Text), P2 = parseModule(Text);
  ASSERT_TRUE(P1.succeeded() && P2.succeeded());
  ASSERT_NE(P1.M.get(), P2.M.get());
  EXPECT_EQ(ExecProgram::fingerprintModule(*P1.M),
            ExecProgram::fingerprintModule(*P2.M));

  DecodeCache &Cache = DecodeCache::global();
  Cache.clear();
  uint64_t Decodes0 = Cache.decodes(), BodyHits0 = Cache.bodyHits();

  auto A = Cache.get(*P1.M);
  EXPECT_EQ(Cache.decodes(), Decodes0 + 1);
  auto B = Cache.get(*P2.M);
  EXPECT_EQ(Cache.decodes(), Decodes0 + 1) << "second module re-decoded";
  EXPECT_EQ(Cache.bodyHits(), BodyHits0 + 1);

  EXPECT_NE(A.get(), B.get()); // distinct instances (per-Module tables)...
  EXPECT_EQ(A->sharedBody().get(), B->sharedBody().get()); // ...one body
  EXPECT_EQ(A->fusedPairs(), B->fusedPairs());

  // Both instances execute, and agree.
  Interpreter I1(*P1.M), I2(*P2.M);
  ExecResult R1 = I1.run(), R2 = I2.run();
  ASSERT_TRUE(R1.Ok) << R1.Error;
  EXPECT_TRUE(R1.ReturnValue == R2.ReturnValue);
  EXPECT_EQ(R1.ReturnValue.asInt(), 7);
}

/// All three fuzz-oracle legs (sequential, transform-then-sequential,
/// threaded 2/4/6) run on the decoded engine: a campaign must stay
/// divergence-free. Smaller under TSan, where each case costs ~10x.
#if defined(__SANITIZE_THREAD__)
constexpr unsigned SmokeRuns = 60;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
constexpr unsigned SmokeRuns = 60;
#else
constexpr unsigned SmokeRuns = 500;
#endif
#else
constexpr unsigned SmokeRuns = 500;
#endif

TEST(ExecEngine, FuzzSmokeAllLegsDivergenceFree) {
  FuzzOptions Opt;
  Opt.Seed = 0xEC0DE;
  Opt.Runs = SmokeRuns;
  Opt.Shrink = false;
  FuzzSummary S = runFuzzCampaign(Opt);
  EXPECT_EQ(S.Divergent, 0u);
  EXPECT_EQ(S.Clean + S.Inconclusive, S.Runs);
}

} // namespace
