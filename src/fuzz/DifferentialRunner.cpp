#include "fuzz/DifferentialRunner.h"

#include "analysis/LoopInfo.h"
#include "check/DepAudit.h"
#include "check/SyncChecker.h"
#include "exec/ExecLimits.h"
#include "helix/HelixTransform.h"
#include "ir/Clone.h"
#include "runtime/ThreadedRuntime.h"
#include "sim/ParallelSim.h"
#include "sim/TraceCollector.h"
#include "support/Format.h"

#include <set>

using namespace helix;

namespace {

/// Transforms every top-level loop of every function of \p M in place.
/// \returns the metadata of the loops HELIX accepted.
std::vector<ParallelLoopInfo> transformAll(Module &M, const DiffConfig &C,
                                           DiffOutcome &Out) {
  AnalysisManager AM(M);
  std::vector<std::pair<Function *, BasicBlock *>> Targets;
  for (Function *F : M)
    for (Loop *L : AM.get<LoopInfo>(F).topLevelLoops())
      Targets.push_back({F, L->header()});
  std::vector<ParallelLoopInfo> Loops;
  for (auto &[F, H] : Targets) {
    ++Out.LoopsAttempted;
    std::optional<ParallelLoopInfo> PLI =
        parallelizeLoop(AM, F, H, C.Helix, &Out.PassTimings);
    if (PLI) {
      ++Out.LoopsTransformed;
      Loops.push_back(std::move(*PLI));
    }
  }
  // One AM serves every loop above; transforming F no longer drops the
  // analyses of untouched functions, which these counters demonstrate
  // campaign-wide once the driver aggregates them.
  Out.AnalysisCounters = AM.counterReport();
  return Loops;
}

/// Functions reachable from @main through direct calls. Transforming
/// @main's loop can inline the kernels it calls (Step 5a), leaving the
/// original kernel functions dead — a corruption planted there would never
/// execute.
std::set<const Function *> reachableFromMain(const Module &M) {
  std::set<const Function *> Seen;
  std::vector<const Function *> Queue;
  if (const Function *Main = M.findFunction("main")) {
    Seen.insert(Main);
    Queue.push_back(Main);
  }
  while (!Queue.empty()) {
    const Function *F = Queue.back();
    Queue.pop_back();
    for (BasicBlock *BB : *F)
      for (Instruction *I : *BB)
        if (I->isCall() && I->callee() && Seen.insert(I->callee()).second)
          Queue.push_back(I->callee());
  }
  return Seen;
}

/// Applies the requested deterministic corruption to the transformed
/// module. \returns true when a target was found and mutated.
bool injectBug(const Module &M, BugInjection Inject,
               std::vector<ParallelLoopInfo> &Loops) {
  std::set<const Function *> Live = reachableFromMain(M);
  switch (Inject) {
  case BugInjection::None:
    return false;
  case BugInjection::FlipFirstBodyOp: {
    // Prefer a carried self-update `r = r op t` with a register t: its
    // value feeds the checksum (accumulator) or the trip count (IV), so
    // the flip is practically never dead. Fall back to any Add/Sub whose
    // operands are not a literal zero (flipping `x + 0` is a no-op).
    Instruction *Fallback = nullptr;
    for (ParallelLoopInfo &PLI : Loops) {
      if (!Live.count(PLI.F))
        continue;
      for (BasicBlock *BB : PLI.BodyBlocks)
        for (Instruction *I : *BB) {
          if ((I->opcode() != Opcode::Add && I->opcode() != Opcode::Sub) ||
              !I->hasDest() || I->numOperands() != 2)
            continue;
          auto IsDest = [&](const Operand &O) {
            return O.isReg() && O.regId() == I->dest();
          };
          bool SelfUpdate = (IsDest(I->operand(0)) && I->operand(1).isReg()) ||
                            (IsDest(I->operand(1)) && I->operand(0).isReg());
          if (SelfUpdate) {
            I->setOpcode(I->opcode() == Opcode::Add ? Opcode::Sub
                                                    : Opcode::Add);
            return true;
          }
          bool HasZeroImm =
              (I->operand(0).isImmInt() && I->operand(0).intValue() == 0) ||
              (I->operand(1).isImmInt() && I->operand(1).intValue() == 0);
          if (!Fallback && !HasZeroImm)
            Fallback = I;
        }
    }
    if (Fallback) {
      Fallback->setOpcode(Fallback->opcode() == Opcode::Add ? Opcode::Sub
                                                            : Opcode::Add);
      return true;
    }
    return false;
  }
  case BugInjection::DropFirstSegmentWaits:
    for (ParallelLoopInfo &PLI : Loops) {
      if (!Live.count(PLI.F))
        continue;
      for (SequentialSegment &S : PLI.Segments)
        if (!S.Waits.empty()) {
          for (Instruction *W : S.Waits)
            W->setOpcode(Opcode::Nop);
          return true;
        }
    }
    return false;
  }
  return false;
}

bool budgetExhausted(const ExecResult &R) {
  return !R.Ok && R.BudgetExhausted;
}

/// Checks one leg against the sequential reference. \returns true when the
/// outcome judgement should stop (divergence or inconclusive recorded).
bool compareLeg(const char *Leg, const ExecResult &Ref, const ExecResult &R,
                DiffOutcome &Out) {
  if (budgetExhausted(R)) {
    // The reference completed but this leg ran out of budget: with the 4x
    // headroom that is a hang-shaped divergence, not noise.
    Out.Divergence = true;
    Out.DivergentKind = DiffOutcome::Kind::Hang;
    Out.Detail = formatStr("%s leg exhausted its instruction budget while "
                           "the sequential leg finished",
                           Leg);
    return true;
  }
  if (Ref.Ok != R.Ok) {
    Out.Divergence = true;
    Out.DivergentKind = DiffOutcome::Kind::Trap;
    Out.Detail = formatStr(
        "%s leg %s but the sequential leg %s (%s)", Leg,
        R.Ok ? "succeeded" : ("trapped: " + R.Error).c_str(),
        Ref.Ok ? "succeeded" : "trapped", Ref.Ok ? "" : Ref.Error.c_str());
    return true;
  }
  if (!Ref.Ok)
    return false; // both trapped: consistent (messages may rename blocks)
  if (!(R.ReturnValue == Ref.ReturnValue)) {
    Out.Divergence = true;
    Out.DivergentKind = DiffOutcome::Kind::Checksum;
    Out.Detail = formatStr("%s checksum %lld != sequential checksum %lld",
                           Leg, (long long)R.ReturnValue.asInt(),
                           (long long)Ref.ReturnValue.asInt());
    return true;
  }
  return false;
}

} // namespace

DiffOutcome helix::runDifferential(const Module &M, const DiffConfig &C) {
  DiffOutcome Out;

  // --- Leg 1: plain sequential reference. --------------------------------
  std::unique_ptr<Module> SeqM = cloneModule(M);
  Interpreter SeqI(*SeqM);
  SeqI.setMaxInstructions(C.MaxInstructions);
  ExecResult Seq = SeqI.run();
  Out.SeqOk = Seq.Ok;
  Out.SeqChecksum = Seq.Ok ? Seq.ReturnValue.asInt() : 0;
  Out.SeqCycles = Seq.Cycles;
  Out.SeqInstructions = Seq.Instructions;
  if (budgetExhausted(Seq)) {
    // The generator produced a longer-running program than the budget
    // covers; nothing can be compared.
    Out.Inconclusive = true;
    Out.Detail = "sequential leg exhausted the instruction budget";
    return Out;
  }

  // --- Transform (Steps 1-8) on a private clone. -------------------------
  std::unique_ptr<Module> TM = cloneModule(M);
  std::vector<ParallelLoopInfo> Loops = transformAll(*TM, C, Out);
  Out.InjectionApplied = injectBug(*TM, C.Inject, Loops);

  // --- Static leg: verify the synchronization contract before executing
  // --- anything. A fresh manager keeps the transform leg's analysis
  // --- counters (asserted by tests) untouched. ----------------------------
  {
    AnalysisManager CheckAM(*TM);
    std::vector<const ParallelLoopInfo *> CheckPLIs;
    for (ParallelLoopInfo &L : Loops)
      CheckPLIs.push_back(&L);
    SyncCheckResult SC = checkModuleSync(CheckAM, CheckPLIs);
    Out.StaticFindings = unsigned(SC.Diags.size());
    Out.StaticLoopsChecked = SC.LoopsChecked;
    for (const SyncDiag &D : SC.Diags)
      Out.StaticDiags.push_back(D.str());
  }

  // The hang classifier's leg budget: 4x headroom over the sequential
  // budget (shared formula in exec/ExecLimits.h — saturating, so a huge
  // --max-instrs "unlimited" does not wrap into a tiny leg budget and
  // report clean programs as hangs).
  uint64_t LegBudget = ExecLimits::hangBudget(C.MaxInstructions);

  // --- Leg 2: transformed module, sequential semantics (Step 9), with
  // --- traces for the simulator sanity check and dependence witnesses
  // --- for the soundness audit. ------------------------------------------
  std::vector<const ParallelLoopInfo *> PLIs;
  for (ParallelLoopInfo &L : Loops)
    PLIs.push_back(&L);
  TraceCollector TC(PLIs);
  DepWitnessObserver DW(PLIs);
  FanoutObserver Both(TC, DW);
  Interpreter TI(*TM);
  TI.setMaxInstructions(LegBudget);
  TI.setObserver(C.AuditDeps ? static_cast<ExecObserver *>(&Both) : &TC);
  ExecResult TRun = TI.run();
  if (compareLeg("transformed-sequential", Seq, TRun, Out)) {
    Out.DivergentLeg = DiffOutcome::Leg::TransformedSeq;
    return Out;
  }

  // --- Dependence-soundness audit, before any threaded leg: a witnessed
  // --- loop-carried dependence the transform never synchronized is a DDG
  // --- soundness bug even when a lucky schedule hides it dynamically. ----
  if (C.AuditDeps) {
    DepAuditResult AR = auditDependences(DW);
    Out.DepLoopsAudited = AR.LoopsAudited;
    Out.DepWitnessed = AR.WitnessedDeps;
    Out.DepCovered = AR.CoveredDeps;
    Out.DepUncovered = AR.UncoveredDeps;
    Out.DepStaticMemDeps = AR.StaticMemDeps;
    Out.DepStaticUnwitnessed = AR.StaticUnwitnessed;
    Out.DepDiags = std::move(AR.Diags);
    if (AR.UncoveredDeps > 0) {
      Out.Divergence = true;
      Out.DivergentLeg = DiffOutcome::Leg::DepAudit;
      Out.DivergentKind = DiffOutcome::Kind::DepUnsound;
      Out.Detail = Out.DepDiags.front();
      return Out;
    }
  }

  // --- Leg 3: true concurrency across the configured thread counts. -----
  for (unsigned Threads : C.ThreadCounts) {
    RuntimeStats Stats;
    ExecResult R = runThreaded(*TM, PLIs, Threads, &Stats, LegBudget);
    if (compareLeg(formatStr("threaded(%u)", Threads).c_str(), Seq, R, Out)) {
      Out.DivergentLeg = DiffOutcome::Leg::Threaded;
      return Out;
    }
  }

  // --- Simulator sanity: predicted parallel time must not blow up. -------
  if (TRun.Ok && !Loops.empty()) {
    SimConfig SC;
    SC.NumCores = C.SimCores;
    SC.Machine = C.Helix.Machine;
    Out.SimParCycles = simulateProgram(TC, SC);
    uint64_t Traced = TC.totalCycles();
    double Bound =
        double(Traced) * C.SimSlackFactor + double(C.SimSlackCycles);
    if (double(Out.SimParCycles) > Bound) {
      Out.Divergence = true;
      Out.DivergentLeg = DiffOutcome::Leg::Sim;
      Out.DivergentKind = DiffOutcome::Kind::SimBlowup;
      Out.Detail = formatStr(
          "sim sanity: simulated ParallelCycles %llu exceeds traced "
          "sequential cycles %llu by more than %gx + %llu",
          (unsigned long long)Out.SimParCycles, (unsigned long long)Traced,
          C.SimSlackFactor, (unsigned long long)C.SimSlackCycles);
      return Out;
    }
  }

  return Out;
}
