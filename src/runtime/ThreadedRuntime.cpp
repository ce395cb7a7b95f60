#include "runtime/ThreadedRuntime.h"

#include "exec/ExecEngine.h"
#include "support/Compiler.h"

#include <atomic>
#include <deque>
#include <mutex>
#include <thread>
#include <unordered_set>

using namespace helix;

namespace {

/// Per-iteration synchronization row (the thread memory buffer).
struct IterRow {
  std::atomic<uint64_t> SegMask{0};
  std::atomic<uint32_t> IterStartDone{0};
};

/// Book-keeping of one parallel-loop invocation.
struct Invocation {
  const ParallelLoopInfo *PLI = nullptr;
  /// Sync/IterStart instructions belonging to this loop (a nested
  /// parallelized loop's operations are sequential no-ops here). Decoded
  /// instructions keep their Instruction identity, so membership tests
  /// work unchanged on the engine.
  std::unordered_set<const Instruction *> OwnedSync;
  std::deque<IterRow> Rows; // deque: growth never moves existing rows
  std::mutex RowsMutex;
  std::atomic<int64_t> ExitIter{-1};
  std::atomic<bool> Failed{false};
  // Exit continuation (filled by the exiting iteration's worker).
  const BasicBlock *ExitBlock = nullptr;
  std::vector<Value> ExitRegs;
  std::atomic<uint64_t> Signals{0};

  IterRow &row(uint64_t I) {
    std::lock_guard<std::mutex> Lock(RowsMutex);
    while (Rows.size() <= I)
      Rows.emplace_back();
    return Rows[I];
  }
};

/// Engine hooks of one worker iteration: detect the back edge and loop
/// exits in the base frame, and give Wait/Signal/IterStart the
/// release/acquire semantics of Section 2.3 (Signal is a release store,
/// Wait an acquire spin on the predecessor iteration's segment flags).
struct WorkerHooks : DefaultExecHooks {
  static constexpr bool WantsEdges = true;

  WorkerHooks(ExecContext &Ctx, Invocation &Inv, uint64_t IterIdx)
      : Ctx(Ctx), Inv(Inv), IterIdx(IterIdx) {}

  bool onEdge(const BasicBlock *From, const BasicBlock *To) {
    if (Ctx.Frames.size() != 1)
      return true; // edges inside called functions are opaque
    const ParallelLoopInfo *PLI = Inv.PLI;
    if (From == PLI->Latch && To == PLI->Header) {
      IterationEnded = true;
      return false; // back edge: this iteration is done
    }
    if (PLI->contains(From) && !PLI->contains(To)) {
      TookExit = true;
      ExitTo = To;
      return false;
    }
    return true;
  }

  bool sync(const DecodedInst &I, const Instruction *Src) {
    // Only meaningful in the base frame for sync ops this loop owns.
    if (Ctx.Frames.size() != 1 || !Inv.OwnedSync.count(Src))
      return true;
    switch (I.Op) {
    case Opcode::Wait: {
      if (IterIdx == 0)
        break;
      uint64_t Bit = uint64_t(1) << (I.Imm & 63);
      IterRow &Prev = Inv.row(IterIdx - 1);
      while (!(Prev.SegMask.load(std::memory_order_acquire) & Bit)) {
        // A predecessor that trapped or exited will never publish this
        // flag; abandoning here (instead of spinning forever) is how dead
        // iterations past the exit unwind.
        int64_t Exit = Inv.ExitIter.load(std::memory_order_acquire);
        if ((Exit >= 0 && int64_t(IterIdx) > Exit) ||
            Inv.Failed.load(std::memory_order_relaxed))
          return false;
        std::this_thread::yield();
      }
      break;
    }
    case Opcode::SignalOp: {
      uint64_t Bit = uint64_t(1) << (I.Imm & 63);
      Inv.row(IterIdx).SegMask.fetch_or(Bit, std::memory_order_release);
      Inv.Signals.fetch_add(1, std::memory_order_relaxed);
      break;
    }
    case Opcode::IterStart:
      Inv.row(IterIdx).IterStartDone.store(1, std::memory_order_release);
      break;
    default:
      break;
    }
    return true;
  }

  ExecContext &Ctx;
  Invocation &Inv;
  uint64_t IterIdx;
  bool IterationEnded = false;
  bool TookExit = false;
  const BasicBlock *ExitTo = nullptr;
};

/// Engine hooks of the main context between invocations: watch for edges
/// entering a parallelized loop's header from outside it.
struct LoopEntryHooks : DefaultExecHooks {
  static constexpr bool WantsEdges = true;

  LoopEntryHooks(ExecContext &Ctx,
                 const std::vector<const ParallelLoopInfo *> &Loops)
      : Ctx(Ctx), Loops(Loops) {}

  bool onEdge(const BasicBlock *From, const BasicBlock *To) {
    for (const ParallelLoopInfo *PLI : Loops) {
      if (PLI->F == Ctx.Frames.back().F->Src && To == PLI->Header &&
          !PLI->contains(From)) {
        Entered = PLI;
        return false;
      }
    }
    return true;
  }

  ExecContext &Ctx;
  const std::vector<const ParallelLoopInfo *> &Loops;
  const ParallelLoopInfo *Entered = nullptr;
};

/// Runs iterations Worker, Worker+N, ... of one invocation over the
/// decoded program.
void workerMain(const ExecProgram &Prog, SharedExecMemory &Mem,
                Invocation &Inv, const std::vector<Value> &Snapshot,
                unsigned Worker, unsigned NumThreads, uint64_t MaxSteps) {
  const ParallelLoopInfo *PLI = Inv.PLI;
  const DecodedFunction *DF = Prog.function(PLI->F);
  assert(DF && "parallel loop in an undecoded function");
  uint32_t HeaderPC = DF->startOf(PLI->Header);

  // One context per worker, reset per iteration: the register stack and
  // alloca arena keep their capacity across iterations, so steady-state
  // iterations allocate nothing.
  ExecContext Ctx;
  Ctx.MaxSteps = MaxSteps;

  for (uint64_t Iter = Worker;; Iter += NumThreads) {
    // Control chain: iteration Iter may start once its predecessor passed
    // IterStart (or finished). The exiting iteration never sets its flag,
    // which is how later iterations learn to stop.
    if (Iter > 0) {
      IterRow &Prev = Inv.row(Iter - 1);
      while (!Prev.IterStartDone.load(std::memory_order_acquire)) {
        int64_t Exit = Inv.ExitIter.load(std::memory_order_acquire);
        if ((Exit >= 0 && int64_t(Iter) > Exit) ||
            Inv.Failed.load(std::memory_order_relaxed))
          return;
        std::this_thread::yield();
      }
    }

    Ctx.Frames.clear();
    Ctx.RegTop = 0;
    Ctx.Stack.clear();
    Ctx.StackPtr = 0;
    Ctx.Error.clear();
    Ctx.BudgetExhausted = false;
    Ctx.Steps = 0;
    Ctx.Cycles = 0;
    Ctx.StepsFused = 0;
    ExecContext::Frame &Fr = Ctx.pushFrame(*DF);
    Fr.PC = HeaderPC;
    assert(Snapshot.size() == DF->NumRegs && "snapshot/frame width mismatch");
    Value *Regs = Ctx.frameRegs(Fr);
    std::copy(Snapshot.begin(), Snapshot.end(), Regs);
    // Materialize induction variables: Reg = snapshot + Iter * stride.
    for (const MaterializedIV &IV : PLI->IVs)
      Regs[IV.Reg] =
          Value::ofInt(Snapshot[IV.Reg].asInt() + int64_t(Iter) * IV.Stride);

    WorkerHooks Hooks(Ctx, Inv, Iter);
    ExecStop R = runEngine(Prog, Mem, Ctx, Hooks);

    if (Ctx.BudgetExhausted)
      Mem.BudgetExhausted.store(true, std::memory_order_relaxed);
    if (R == ExecStop::Abandoned)
      return; // dead iteration past the exit (or after a failure)
    if (R == ExecStop::Trapped || R == ExecStop::Returned) {
      // Returning out of the loop's function mid-iteration would be a
      // malformed loop; treat as failure.
      Inv.Failed.store(true, std::memory_order_relaxed);
      Inv.ExitIter.store(int64_t(Iter), std::memory_order_release);
      return;
    }

    if (Hooks.TookExit) {
      // First (and only) exit: Step 9's exit bookkeeping.
      Inv.ExitBlock = Hooks.ExitTo;
      const Value *BaseRegs = Ctx.frameRegs(Ctx.Frames[0]);
      Inv.ExitRegs.assign(BaseRegs, BaseRegs + Ctx.Frames[0].F->NumRegs);
      Inv.ExitIter.store(int64_t(Iter), std::memory_order_release);
      return;
    }

    // Completed an iteration; defensively publish all segment flags (every
    // path signalled every segment already, by construction).
    Inv.row(Iter).SegMask.store(~uint64_t(0), std::memory_order_release);
    if (Inv.Failed.load(std::memory_order_relaxed))
      return;
  }
}

} // namespace

ExecResult helix::runThreaded(
    Module &M, const std::vector<const ParallelLoopInfo *> &Loops,
    unsigned NumThreads, RuntimeStats *Stats, uint64_t MaxSteps) {
  ExecResult Result;
  std::shared_ptr<const ExecProgram> Prog = DecodeCache::global().get(M);
  SharedExecMemory Mem(*Prog);
  uint64_t StepCap = MaxSteps ? MaxSteps : ExecLimits::DefaultMaxSteps;
  RuntimeStats LocalStats;

  const DecodedFunction *Main = Prog->findFunction("main");
  if (!Main) {
    Result.Error = "no @main";
    return Result;
  }

  ExecContext Ctx;
  Ctx.MaxSteps = StepCap;
  Ctx.pushFrame(*Main);

  while (true) {
    LoopEntryHooks Hooks(Ctx, Loops);
    ExecStop R = runEngine(*Prog, Mem, Ctx, Hooks);

    if (Ctx.BudgetExhausted)
      Mem.BudgetExhausted.store(true, std::memory_order_relaxed);
    if (R == ExecStop::Returned) {
      Result.Ok = true;
      Result.ReturnValue = Ctx.Returned;
      break;
    }
    if (R == ExecStop::Trapped) {
      Result.Error = Ctx.Error;
      break;
    }
    assert(R == ExecStop::EdgeStopped && Hooks.Entered &&
           "engine stopped without reason");
    const ParallelLoopInfo *Entered = Hooks.Entered;

    // ----- Parallel invocation (Figure 3(b)). ---------------------------
    Invocation Inv;
    Inv.PLI = Entered;
    for (const SequentialSegment &Seg : Entered->Segments) {
      Inv.OwnedSync.insert(Seg.Waits.begin(), Seg.Waits.end());
      Inv.OwnedSync.insert(Seg.Signals.begin(), Seg.Signals.end());
    }
    Inv.OwnedSync.insert(Entered->IterStarts.begin(),
                         Entered->IterStarts.end());
    const ExecContext::Frame &Base = Ctx.Frames.back();
    std::vector<Value> Snapshot(Ctx.frameRegs(Base),
                                Ctx.frameRegs(Base) + Base.F->NumRegs);

    {
      std::vector<std::thread> Workers;
      for (unsigned W = 0; W != NumThreads; ++W)
        Workers.emplace_back(workerMain, std::cref(*Prog), std::ref(Mem),
                             std::ref(Inv), std::cref(Snapshot), W,
                             NumThreads, StepCap);
      for (std::thread &T : Workers)
        T.join();
    }

    if (Inv.Failed.load() || Inv.ExitIter.load() < 0) {
      Result.Error = "parallel invocation failed or never exited";
      break;
    }
    ++LocalStats.ParallelInvocations;
    LocalStats.ParallelIterations += uint64_t(Inv.ExitIter.load()) + 1;
    LocalStats.SignalsSent += Inv.Signals.load();

    // Continue after the loop with the exiting iteration's registers
    // (boundary values are re-loaded from storage by the exit-edge blocks).
    ExecContext::Frame &Fr = Ctx.Frames.back();
    assert(Inv.ExitRegs.size() == Fr.F->NumRegs && "exit-regs width mismatch");
    std::copy(Inv.ExitRegs.begin(), Inv.ExitRegs.end(), Ctx.frameRegs(Fr));
    Fr.PC = Fr.F->startOf(Inv.ExitBlock);
  }

  Result.BudgetExhausted = Mem.BudgetExhausted.load();
  if (Stats)
    *Stats = LocalStats;
  return Result;
}
