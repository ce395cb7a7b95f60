//===----------------------------------------------------------------------===//
///
/// \file
/// The shared execution engine: one tight dispatch loop over the decoded
/// instruction stream (exec/ExecProgram.h), parameterized over a memory
/// model and a hook set so the three drivers stay thin:
///
///   - sim/Interpreter: private growable memory, optional observer hooks
///     (the profiler and the trace collector attach here);
///   - runtime/ThreadedRuntime: a pre-sized shared arena, edge-watch hooks
///     for loop entry/back-edge/exit detection and sync-op hooks for the
///     Signal/Wait release/acquire protocol;
///   - differential tests and benches drive all of the above against the
///     retained tree-walk reference (sim/TreeWalkInterpreter.h).
///
/// Hooks are compile-time: a driver that wants no observation instantiates
/// the engine with the default hooks and the callbacks (and the edge
/// bookkeeping feeding them) vanish entirely from the hot loop.
///
/// The loop is one switch over the decode-time XOpcode key, so
/// superinstructions (fused cmp+condbr, add+load, add+store, sync pairs,
/// ALU pairs) execute both halves of a pair in one dispatch; every fused
/// handler keeps the tree-walk reference's step accounting, observer
/// ordering and trap points exactly, so observed and unobserved drivers
/// run the same decode.
///
/// Registers live in one contiguous per-context register stack: a frame is
/// just a window [RegBase, RegBase + NumRegs) and call/return slide the
/// window — no per-call allocation, registers stay cache-hot.
///
//===----------------------------------------------------------------------===//

#ifndef HELIX_EXEC_EXECENGINE_H
#define HELIX_EXEC_EXECENGINE_H

#include "exec/ExecLimits.h"
#include "exec/ExecProgram.h"
#include "obs/Metrics.h"
#include "support/Compiler.h"
#include "support/Format.h"

#include <algorithm>
#include <atomic>
#include <string>
#include <type_traits>
#include <vector>

namespace helix {

//===----------------------------------------------------------------------===//
// Results and observation
//===----------------------------------------------------------------------===//

/// Outcome of a run.
struct ExecResult {
  bool Ok = false;
  std::string Error;      ///< set when Ok is false
  /// The run stopped on an instruction/step cap rather than a trap.
  /// Structural (not derived from Error text): the differential oracle
  /// classifies hang-shaped failures through this flag.
  bool BudgetExhausted = false;
  Value ReturnValue;      ///< main's return value
  uint64_t Cycles = 0;    ///< accumulated cost-model cycles
  uint64_t Instructions = 0;
};

/// Introspection handle observers receive. Implemented by every engine an
/// observer can attach to (the decoded sequential driver and the tree-walk
/// reference), so one observer — the profiler, the trace collector —
/// serves both.
class ExecState {
public:
  virtual unsigned callDepth() const = 0;
  virtual const Function *currentFunction() const = 0;
  /// Value of an operand in the current (innermost) frame.
  virtual Value operandValue(const Operand &O) const = 0;
  /// Base address of global \p Idx.
  virtual uint64_t globalBase(unsigned Idx) const = 0;

protected:
  ~ExecState() = default;
};

/// Receives execution events. All callbacks are invoked synchronously
/// during the run, in the same order the tree-walk interpreter always
/// used: non-control instructions report after executing, control
/// instructions report before transferring, edges report after the
/// transfer. Observers see one event per *original* instruction even when
/// the engine executes a fused superinstruction.
class ExecObserver {
public:
  virtual ~ExecObserver();
  /// After \p I executed, costing \p Cycles.
  virtual void onInstruction(const Instruction *I, unsigned Cycles,
                             ExecState &State) {
    (void)I;
    (void)Cycles;
    (void)State;
  }
  /// Control transferred along the CFG edge \p From -> \p To (same frame).
  virtual void onEdge(const BasicBlock *From, const BasicBlock *To,
                      ExecState &State) {
    (void)From;
    (void)To;
    (void)State;
  }
};

/// Forwards every event to two observers, in order. Engines hold a single
/// observer slot; legs that need both tracing and dependence-witness
/// collection chain through this.
class FanoutObserver : public ExecObserver {
public:
  FanoutObserver(ExecObserver &First, ExecObserver &Second)
      : A(First), B(Second) {}
  void onInstruction(const Instruction *I, unsigned Cycles,
                     ExecState &State) override {
    A.onInstruction(I, Cycles, State);
    B.onInstruction(I, Cycles, State);
  }
  void onEdge(const BasicBlock *From, const BasicBlock *To,
              ExecState &State) override {
    A.onEdge(From, To, State);
    B.onEdge(From, To, State);
  }

private:
  ExecObserver &A;
  ExecObserver &B;
};

//===----------------------------------------------------------------------===//
// Execution context and memory models
//===----------------------------------------------------------------------===//

/// Stack (Alloca) addresses live in a high range disjoint from the
/// globals+heap segment — the layout every engine shares.
inline constexpr uint64_t ExecStackBase = uint64_t(1) << 40;

/// One thread of execution: a frame stack, the frame-windowed register
/// file, and the private Alloca region. The globals+heap segment lives in
/// the memory model (private to the context for sequential runs, shared
/// across contexts for threaded ones).
///
/// Registers of all live frames sit back to back in RegStack; a frame's
/// window is [RegBase, RegBase + F->NumRegs) and RegTop is the watermark
/// the next call allocates from. pushFrame/Call only ever *grow* RegStack
/// (geometrically), so a window stays valid — though its data() pointer
/// must be re-derived after any call that may grow the stack.
struct ExecContext {
  struct Frame {
    const DecodedFunction *F = nullptr;
    uint32_t PC = 0;
    uint32_t RegBase = 0; ///< window start in the context's RegStack
    uint64_t SavedSP = 0;
    uint32_t DestRegInCaller = ~0u;
    bool WantsResult = false;
  };

  std::vector<Frame> Frames;
  std::vector<Value> RegStack; ///< frame-windowed register file
  uint64_t RegTop = 0;         ///< one past the innermost frame's window
  std::vector<Value> Stack;    ///< alloca region
  uint64_t StackPtr = 0;
  Value Returned;
  std::string Error;
  bool BudgetExhausted = false;
  uint64_t Steps = 0;
  uint64_t MaxSteps = ExecLimits::DefaultMaxSteps;
  uint64_t Cycles = 0;
  /// Instructions executed as halves of fused superinstructions (a subset
  /// of Steps; published as "exec.dispatch.steps_fused").
  uint64_t StepsFused = 0;

  /// The register window of \p Fr. Invalidated by RegStack growth
  /// (pushFrame or the engine's Call handler) — re-derive after either.
  Value *frameRegs(Frame &Fr) { return RegStack.data() + Fr.RegBase; }
  const Value *frameRegs(const Frame &Fr) const {
    return RegStack.data() + Fr.RegBase;
  }

  /// Grows the register stack geometrically to hold \p Needed slots.
  void ensureRegs(uint64_t Needed) {
    if (HELIX_UNLIKELY(Needed > RegStack.size())) {
      size_t NewSize = std::max<size_t>(size_t(256), RegStack.size());
      while (NewSize < Needed)
        NewSize *= 2;
      RegStack.resize(NewSize);
    }
  }

  /// Pushes a fresh base/call frame for \p DF starting at its entry PC,
  /// sliding the register window up. The window is zeroed (registers read
  /// 0 until written — windows are reused across calls).
  Frame &pushFrame(const DecodedFunction &DF) {
    assert(RegTop + DF.NumRegs <= ~0u && "register stack exceeds 2^32 slots");
    Frame Fr;
    Fr.F = &DF;
    Fr.RegBase = uint32_t(RegTop);
    Fr.SavedSP = StackPtr;
    ensureRegs(RegTop + DF.NumRegs);
    std::fill(RegStack.begin() + RegTop,
              RegStack.begin() + RegTop + DF.NumRegs, Value());
    RegTop += DF.NumRegs;
    Frames.push_back(Fr);
    return Frames.back();
  }
};

/// Growable private memory of a sequential execution. Loads outside the
/// populated region read zero; stores extend it (geometrically, so an
/// ascending store pattern re-copies O(log n) times, not per store).
class PrivateExecMemory {
public:
  explicit PrivateExecMemory(const ExecProgram &P) {
    Low.assign(P.globalEnd(), Value());
    P.initGlobals(Low);
    HeapPtr = P.globalEnd();
  }

  Value load(uint64_t Addr) const {
    return Addr < Low.size() ? Low[Addr] : Value();
  }
  void store(uint64_t Addr, Value V) {
    if (HELIX_UNLIKELY(Addr >= Low.size()))
      grow(Addr + 1);
    Low[Addr] = V;
  }
  uint64_t heapAlloc(uint64_t N) {
    uint64_t Base = HeapPtr;
    HeapPtr += N;
    if (Low.size() < HeapPtr)
      grow(HeapPtr);
    return Base;
  }

  std::vector<Value> Low; ///< globals + heap
  uint64_t HeapPtr = 0;

private:
  void grow(uint64_t Needed) {
    uint64_t NewSize = std::max<uint64_t>(64, Low.size());
    while (NewSize < Needed)
      NewSize *= 2;
    Low.resize(size_t(NewSize));
  }
};

/// Shared program memory of a threaded execution: globals + heap in one
/// pre-sized arena (so worker threads never race a reallocation), with an
/// atomic heap bump allocator. Per-context stacks live elsewhere.
class SharedExecMemory {
public:
  explicit SharedExecMemory(const ExecProgram &P,
                            uint64_t HeapHeadroom = uint64_t(1) << 22) {
    Low.assign(P.globalEnd() + HeapHeadroom, Value());
    P.initGlobals(Low);
    HeapPtr.store(P.globalEnd(), std::memory_order_relaxed);
  }

  Value load(uint64_t Addr) const {
    return Addr < Low.size() ? Low[Addr] : Value();
  }
  void store(uint64_t Addr, Value V) {
    if (Addr >= Low.size())
      reportFatalError("threaded runtime store out of arena");
    Low[Addr] = V;
  }
  uint64_t heapAlloc(uint64_t N) {
    uint64_t Base = HeapPtr.fetch_add(N);
    if (Base + N > Low.size())
      reportFatalError("threaded runtime heap exhausted");
    return Base;
  }

  std::vector<Value> Low;
  std::atomic<uint64_t> HeapPtr{0};
  /// Set by any context that hit the step cap, so the final ExecResult can
  /// report budget exhaustion structurally even when the failing context
  /// was a worker whose message is summarized away.
  std::atomic<bool> BudgetExhausted{false};
};

//===----------------------------------------------------------------------===//
// Hooks
//===----------------------------------------------------------------------===//

/// What stopped a runEngine call.
enum class ExecStop {
  Returned,    ///< base frame returned (ExecContext::Returned is set)
  EdgeStopped, ///< an edge hook stopped execution *before* the edge was
               ///< taken; the frame's PC stays on the terminator
  Abandoned,   ///< a sync hook asked to abandon the context (dead parallel
               ///< iteration); no error
  Trapped,     ///< runtime error or budget exhaustion (Error is set)
};

/// The no-op hook set: everything compiles away. Drivers derive from this
/// and override what they need; the two `Wants*` constants gate the edge
/// bookkeeping and the instruction callbacks at compile time.
struct DefaultExecHooks {
  static constexpr bool WantsInstruction = false;
  static constexpr bool WantsEdges = false;

  /// After the original instruction \p Src executed. Fires once per
  /// original instruction even inside fused superinstructions.
  void onInstruction(const Instruction *Src, unsigned Cycles) {
    (void)Src;
    (void)Cycles;
  }
  /// \returns false to stop execution before the edge is taken.
  bool onEdge(const BasicBlock *From, const BasicBlock *To) {
    (void)From;
    (void)To;
    return true;
  }
  /// Wait / SignalOp / IterStart; \p Src is the source instruction (sync
  /// ownership is identity-based). \returns false to abandon the context.
  bool sync(const DecodedInst &I, const Instruction *Src) {
    (void)I;
    (void)Src;
    return true;
  }
};

/// Hooks forwarding to an ExecObserver (sequential driver with observer).
struct ObserverExecHooks : DefaultExecHooks {
  static constexpr bool WantsInstruction = true;
  static constexpr bool WantsEdges = true;

  ObserverExecHooks(ExecObserver &Obs, ExecState &State)
      : Obs(Obs), State(State) {}

  void onInstruction(const Instruction *Src, unsigned Cycles) {
    Obs.onInstruction(Src, Cycles, State);
  }
  bool onEdge(const BasicBlock *From, const BasicBlock *To) {
    Obs.onEdge(From, To, State);
    return true;
  }

  ExecObserver &Obs;
  ExecState &State;
};

//===----------------------------------------------------------------------===//
// The dispatch loop
//===----------------------------------------------------------------------===//

/// Runs \p Ctx until its base frame returns, a hook stops it, or it traps.
/// The context must have at least one frame. Instantiated per
/// (memory model, hook set) pair so unwanted observation costs nothing.
template <typename MemoryT, typename HooksT>
ExecStop runEngine(const ExecProgram &P, MemoryT &Mem, ExecContext &Ctx,
                   HooksT &&Hooks) {
  using HT = std::remove_reference_t<HooksT>;
  const Value *Consts = P.constants().data();

  // Publish this call's dispatched-instruction counts into the process-wide
  // metrics registry ("exec.dispatch.steps" / "exec.dispatch.steps_fused")
  // on every exit path: one relaxed atomic add per runEngine call, never
  // per instruction, so the hot loop below is untouched. The registry
  // lookups resolve once per template instantiation.
  static obs::Counter &DispatchSteps =
      obs::MetricsRegistry::global().counter("exec.dispatch.steps");
  static obs::Counter &DispatchStepsFused =
      obs::MetricsRegistry::global().counter("exec.dispatch.steps_fused");
  struct StepsPublisher {
    ExecContext &Ctx;
    uint64_t StartSteps, StartFused;
    ~StepsPublisher() {
      DispatchSteps.add(Ctx.Steps - StartSteps);
      DispatchStepsFused.add(Ctx.StepsFused - StartFused);
    }
  } Publish{Ctx, Ctx.Steps, Ctx.StepsFused};

  // Deferred step/cycle accounting. Within a straight-line segment the
  // engine touches no counters at all: each original instruction is one
  // step (fused pairs advance PC by 2 and spend 2 steps), so steps are the
  // PC distance from the segment start, and cycle costs come from the
  // decode-time prefix-sum table in one subtraction. Counters materialize
  // only at control transfers, traps, stops and frame changes — `Steps` and
  // `Cycles` below are "accounted through SegPC", and every exit path
  // flushes them back into the context. The budget check collapses to a
  // single PC-vs-precomputed-limit compare per dispatch.
  uint64_t Steps = Ctx.Steps;
  uint64_t Cycles = Ctx.Cycles;
  uint64_t StepsFused = Ctx.StepsFused;
  const uint64_t MaxSteps = Ctx.MaxSteps;
  auto Flush = [&] {
    Ctx.Steps = Steps;
    Ctx.Cycles = Cycles;
    Ctx.StepsFused = StepsFused;
  };

  while (!Ctx.Frames.empty()) {
    // Cache the hot frame state; re-acquired after every frame change.
    ExecContext::Frame &Fr = Ctx.Frames.back();
    const DecodedFunction *DF = Fr.F;
    const DecodedInst *Code = DF->code().data();
    const uint64_t *CycPfx = DF->Body->CyclePrefix.data();
    const uint32_t CodeSize = uint32_t(DF->code().size());
    Value *Regs = Ctx.frameRegs(Fr);
    // The loop walks an instruction pointer, not a PC index: the dispatch
    // fast path then needs no index-to-address arithmetic, and the budget
    // check is a plain pointer compare. PC indexes (frame resume points,
    // IR identity tables, the cycle-prefix table) are reconstructed as
    // Ip - Code only at control transfers and cold exits.
    const DecodedInst *Ip = Code + Fr.PC;
    auto PCOf = [&](const DecodedInst *At) { return uint32_t(At - Code); };

    // Charge the current segment [SegPC, EndExclusive): one step per
    // instruction, cycles from the prefix table. Callers reset the segment
    // (Reseg) when control moves, or stop right after.
    uint32_t SegPC = Fr.PC;
    auto Account = [&](const DecodedInst *EndExclusive) {
      uint32_t End = PCOf(EndExclusive);
      Steps += End - SegPC;
      Cycles += CycPfx[End] - CycPfx[SegPC];
    };
    // Start a segment at NewPC. LimitIp clamps to the code end: a segment
    // never runs past its block's terminator, so a limit at or beyond
    // CodeSize can never fire within the segment — the clamp keeps every
    // computed pointer inside [Code, Code + CodeSize] for any MaxSteps.
    const DecodedInst *LimitIp;
    auto Reseg = [&](uint32_t NewPC) {
      SegPC = NewPC;
      uint64_t Remaining = Steps < MaxSteps ? MaxSteps - Steps : 0;
      uint64_t End = uint64_t(NewPC) + Remaining;
      if (End > CodeSize)
        End = CodeSize;
      LimitIp = Code + End;
    };
    Reseg(Fr.PC);

    // Branchless operand fetch: select the pool base by the tag bit (the
    // compiler emits a cmov), then index. The tag pattern at a given
    // handler's fetch site varies across dynamic instructions, so a branch
    // here mispredicts heavily on mixed workloads.
    auto Val = [&](OperandRef R) -> Value {
      const Value *Base = (R & ConstOperandBit) ? Consts : Regs;
      return Base[R & ~ConstOperandBit];
    };
    auto CallArg = [&](const DecodedInst &I, unsigned K) -> Value {
      return Val(K < 2 ? I.Ops[K]
                       : DF->Body->ExtraOperands[I.ExtraOps + (K - 2)]);
    };
    auto Trap = [&](const DecodedInst *At, const char *Msg) HELIX_NOINLINE_COLD {
      // The trapping instruction's step and cycles are charged, exactly as
      // the eager engine counted them at dispatch before the handler ran.
      Account(At + 1);
      uint32_t AtPC = PCOf(At);
      Ctx.Error = formatStr("@%s/%s: %s", DF->Src->name().c_str(),
                            DF->BlockOf[AtPC]->name().c_str(), Msg);
      Fr.PC = AtPC;
      Flush();
      return ExecStop::Trapped;
    };
    // Budget exhausted with \p Stop not yet executed: everything before
    // it ran and is charged; execution resumes (if the driver raises the
    // cap) at Stop. Serves both the dispatch check and the fused-pair
    // straddle check (there Stop is the unexecuted tail).
    auto BudgetStop = [&](const DecodedInst *Stop) HELIX_NOINLINE_COLD {
      Account(Stop);
      Ctx.Error = formatStr("instruction budget exhausted (%llu)",
                            (unsigned long long)Ctx.MaxSteps);
      Ctx.BudgetExhausted = true;
      Fr.PC = PCOf(Stop);
      Flush();
      return ExecStop::Trapped;
    };

  dispatch:
    assert(Ip < Code + CodeSize && "ran off the decoded code");
    if (HELIX_UNLIKELY(Ip >= LimitIp))
      return BudgetStop(Ip);
    {
      const DecodedInst &I = *Ip;

      // Handlers exit with `goto step_done` (ordinary instruction:
      // post-report, PC+1), `goto dispatch` (control transfer, PC already
      // set) or `goto reframe` (call/return: re-derive cached frame state).
      switch (I.X) {
      case XOpcode::Add:
      Regs[I.Dest] = Value::ofInt(int64_t(uint64_t(Val(I.Ops[0]).asInt()) +
                                          uint64_t(Val(I.Ops[1]).asInt())));
      goto step_done;
      case XOpcode::Sub:
      Regs[I.Dest] = Value::ofInt(int64_t(uint64_t(Val(I.Ops[0]).asInt()) -
                                          uint64_t(Val(I.Ops[1]).asInt())));
      goto step_done;
      case XOpcode::Mul:
      Regs[I.Dest] = Value::ofInt(int64_t(uint64_t(Val(I.Ops[0]).asInt()) *
                                          uint64_t(Val(I.Ops[1]).asInt())));
      goto step_done;
      case XOpcode::Div: {
        int64_t B = Val(I.Ops[1]).asInt();
        if (B == 0)
          return Trap(Ip, "integer division by zero");
        Regs[I.Dest] = Value::ofInt(Val(I.Ops[0]).asInt() / B);
        goto step_done;
      }
      case XOpcode::Rem: {
        int64_t B = Val(I.Ops[1]).asInt();
        if (B == 0)
          return Trap(Ip, "integer remainder by zero");
        Regs[I.Dest] = Value::ofInt(Val(I.Ops[0]).asInt() % B);
        goto step_done;
      }
      case XOpcode::And:
      Regs[I.Dest] =
          Value::ofInt(Val(I.Ops[0]).asInt() & Val(I.Ops[1]).asInt());
      goto step_done;
      case XOpcode::Or:
      Regs[I.Dest] =
          Value::ofInt(Val(I.Ops[0]).asInt() | Val(I.Ops[1]).asInt());
      goto step_done;
      case XOpcode::Xor:
      Regs[I.Dest] =
          Value::ofInt(Val(I.Ops[0]).asInt() ^ Val(I.Ops[1]).asInt());
      goto step_done;
      case XOpcode::Shl:
      Regs[I.Dest] = Value::ofInt(int64_t(uint64_t(Val(I.Ops[0]).asInt())
                                          << (Val(I.Ops[1]).asInt() & 63)));
      goto step_done;
      case XOpcode::Shr:
      Regs[I.Dest] = Value::ofInt(int64_t(uint64_t(Val(I.Ops[0]).asInt()) >>
                                          (Val(I.Ops[1]).asInt() & 63)));
      goto step_done;
      case XOpcode::FAdd:
      Regs[I.Dest] =
          Value::ofFloat(Val(I.Ops[0]).asFloat() + Val(I.Ops[1]).asFloat());
      goto step_done;
      case XOpcode::FSub:
      Regs[I.Dest] =
          Value::ofFloat(Val(I.Ops[0]).asFloat() - Val(I.Ops[1]).asFloat());
      goto step_done;
      case XOpcode::FMul:
      Regs[I.Dest] =
          Value::ofFloat(Val(I.Ops[0]).asFloat() * Val(I.Ops[1]).asFloat());
      goto step_done;
      case XOpcode::FDiv:
      Regs[I.Dest] =
          Value::ofFloat(Val(I.Ops[0]).asFloat() / Val(I.Ops[1]).asFloat());
      goto step_done;
      case XOpcode::IntToFP:
      Regs[I.Dest] = Value::ofFloat(Val(I.Ops[0]).asFloat());
      goto step_done;
      case XOpcode::FPToInt:
      Regs[I.Dest] = Value::ofInt(Val(I.Ops[0]).asInt());
      goto step_done;
      case XOpcode::CmpEQ:
      Regs[I.Dest] =
          Value::ofInt(Val(I.Ops[0]).asInt() == Val(I.Ops[1]).asInt());
      goto step_done;
      case XOpcode::CmpNE:
      Regs[I.Dest] =
          Value::ofInt(Val(I.Ops[0]).asInt() != Val(I.Ops[1]).asInt());
      goto step_done;
      case XOpcode::CmpLT:
      Regs[I.Dest] =
          Value::ofInt(Val(I.Ops[0]).asInt() < Val(I.Ops[1]).asInt());
      goto step_done;
      case XOpcode::CmpLE:
      Regs[I.Dest] =
          Value::ofInt(Val(I.Ops[0]).asInt() <= Val(I.Ops[1]).asInt());
      goto step_done;
      case XOpcode::CmpGT:
      Regs[I.Dest] =
          Value::ofInt(Val(I.Ops[0]).asInt() > Val(I.Ops[1]).asInt());
      goto step_done;
      case XOpcode::CmpGE:
      Regs[I.Dest] =
          Value::ofInt(Val(I.Ops[0]).asInt() >= Val(I.Ops[1]).asInt());
      goto step_done;
      case XOpcode::FCmpEQ:
      Regs[I.Dest] =
          Value::ofInt(Val(I.Ops[0]).asFloat() == Val(I.Ops[1]).asFloat());
      goto step_done;
      case XOpcode::FCmpNE:
      Regs[I.Dest] =
          Value::ofInt(Val(I.Ops[0]).asFloat() != Val(I.Ops[1]).asFloat());
      goto step_done;
      case XOpcode::FCmpLT:
      Regs[I.Dest] =
          Value::ofInt(Val(I.Ops[0]).asFloat() < Val(I.Ops[1]).asFloat());
      goto step_done;
      case XOpcode::FCmpLE:
      Regs[I.Dest] =
          Value::ofInt(Val(I.Ops[0]).asFloat() <= Val(I.Ops[1]).asFloat());
      goto step_done;
      case XOpcode::FCmpGT:
      Regs[I.Dest] =
          Value::ofInt(Val(I.Ops[0]).asFloat() > Val(I.Ops[1]).asFloat());
      goto step_done;
      case XOpcode::FCmpGE:
      Regs[I.Dest] =
          Value::ofInt(Val(I.Ops[0]).asFloat() >= Val(I.Ops[1]).asFloat());
      goto step_done;
      case XOpcode::Mov:
      Regs[I.Dest] = Val(I.Ops[0]);
      goto step_done;
      case XOpcode::Load: {
        int64_t Addr = Val(I.Ops[0]).asInt();
        if (Addr <= 0)
          return Trap(Ip, "load from null/negative address");
        uint64_t A = uint64_t(Addr);
        if (A >= ExecStackBase) {
          uint64_t Idx = A - ExecStackBase;
          Regs[I.Dest] = Idx < Ctx.Stack.size() ? Ctx.Stack[Idx] : Value();
        } else {
          Regs[I.Dest] = Mem.load(A);
        }
        goto step_done;
      }
      case XOpcode::Store: {
        int64_t Addr = Val(I.Ops[1]).asInt();
        if (Addr <= 0)
          return Trap(Ip, "store to null/negative address");
        uint64_t A = uint64_t(Addr);
        if (A >= ExecStackBase) {
          uint64_t Idx = A - ExecStackBase;
          if (Idx >= Ctx.Stack.size())
            Ctx.Stack.resize(Idx + 1);
          Ctx.Stack[Idx] = Val(I.Ops[0]);
        } else {
          Mem.store(A, Val(I.Ops[0]));
        }
        goto step_done;
      }
      case XOpcode::Alloca: {
        uint64_t Base = ExecStackBase + Ctx.StackPtr;
        Ctx.StackPtr += uint64_t(I.Imm);
        if (Ctx.Stack.size() < Ctx.StackPtr)
          Ctx.Stack.resize(Ctx.StackPtr);
        Regs[I.Dest] = Value::ofInt(int64_t(Base));
        goto step_done;
      }
      case XOpcode::HeapAlloc: {
        int64_t N = Val(I.Ops[0]).asInt();
        if (N <= 0)
          return Trap(Ip, "heap allocation of non-positive size");
        Regs[I.Dest] = Value::ofInt(int64_t(Mem.heapAlloc(uint64_t(N))));
        goto step_done;
      }
      case XOpcode::Br: {
        Account(Ip + 1); // the branch itself is charged, taken or stopped
        if constexpr (HT::WantsInstruction)
          Hooks.onInstruction(DF->SrcOf[PCOf(Ip)], I.Cycles);
        if constexpr (HT::WantsEdges) {
          if (!Hooks.onEdge(DF->BlockOf[PCOf(Ip)], DF->BlockOf[I.Succ1])) {
            Fr.PC = PCOf(Ip);
            Flush();
            return ExecStop::EdgeStopped;
          }
        }
        Ip = Code + I.Succ1;
        Reseg(I.Succ1);
        goto dispatch;
      }
      case XOpcode::CondBr: {
        Account(Ip + 1);
        if constexpr (HT::WantsInstruction)
          Hooks.onInstruction(DF->SrcOf[PCOf(Ip)], I.Cycles);
        uint32_t Target = Val(I.Ops[0]).asInt() != 0 ? I.Succ1 : I.Succ2;
        if constexpr (HT::WantsEdges) {
          if (!Hooks.onEdge(DF->BlockOf[PCOf(Ip)], DF->BlockOf[Target])) {
            Fr.PC = PCOf(Ip);
            Flush();
            return ExecStop::EdgeStopped;
          }
        }
        Ip = Code + Target;
        Reseg(Target);
        goto dispatch;
      }
      case XOpcode::Call: {
        Account(Ip + 1);
        if constexpr (HT::WantsInstruction)
          Hooks.onInstruction(DF->SrcOf[PCOf(Ip)], I.Cycles);
        const DecodedFunction &CF = P.function(I.Callee);
        assert(I.NumOperands <= CF.NumRegs && "more call args than registers");
        uint64_t Base = Ctx.RegTop;
        Ctx.ensureRegs(Base + CF.NumRegs); // may move the register stack...
        Regs = Ctx.frameRegs(Fr);          // ...so re-derive our window
        Value *CalleeRegs = Ctx.RegStack.data() + Base;
        unsigned NArgs = I.NumOperands;
        for (unsigned K = 0; K != NArgs; ++K)
          CalleeRegs[K] = CallArg(I, K);
        std::fill(CalleeRegs + NArgs, CalleeRegs + CF.NumRegs, Value());
        Ctx.RegTop = Base + CF.NumRegs;
        Fr.PC = PCOf(Ip) + 1; // resume after the call upon return
        ExecContext::Frame NewFr;
        NewFr.F = &CF;
        NewFr.RegBase = uint32_t(Base);
        NewFr.SavedSP = Ctx.StackPtr;
        NewFr.DestRegInCaller = I.Dest;
        NewFr.WantsResult = I.Dest != ~0u;
        Ctx.Frames.push_back(NewFr);
        goto reframe;
      }
      case XOpcode::Ret: {
        Account(Ip + 1);
        if constexpr (HT::WantsInstruction)
          Hooks.onInstruction(DF->SrcOf[PCOf(Ip)], I.Cycles);
        Value RV = I.NumOperands == 1 ? Val(I.Ops[0]) : Value();
        Ctx.StackPtr = Fr.SavedSP;
        uint32_t DestReg = Fr.DestRegInCaller;
        bool Wants = Fr.WantsResult;
        Ctx.RegTop = Fr.RegBase; // slide the register window back
        Ctx.Frames.pop_back();
        if (Ctx.Frames.empty()) {
          Ctx.Returned = RV;
          Flush();
          return ExecStop::Returned;
        }
        if (Wants && DestReg != ~0u)
          Ctx.frameRegs(Ctx.Frames.back())[DestReg] = RV;
        goto reframe;
      }
      case XOpcode::Wait:
      case XOpcode::SignalOp:
      case XOpcode::IterStart:
      // Sequentially these are no-ops; the threaded driver's hooks give
      // them their synchronization semantics.
      if (!Hooks.sync(I, DF->SrcOf[PCOf(Ip)])) {
        // An abandoned sync op is charged (and re-charged on resume),
        // matching the eager engine's count-at-dispatch behavior.
        Account(Ip + 1);
        Fr.PC = PCOf(Ip);
        Flush();
        return ExecStop::Abandoned;
      }
      goto step_done;
      case XOpcode::Nop:
      goto step_done;

      // --- Fused superinstructions ---------------------------------------
      // Each handler executes the head, then the untouched tail at PC+1,
      // replaying two plain dispatches' step accounting, observer ordering
      // (non-control after executing, control before transferring, edges
      // after) and trap points instruction for instruction.

      // A fused pair spends two budget steps. Between the halves (head
      // executed and reported, its step charged) stop exactly where two
      // plain dispatches would when the budget runs out: at the tail, which
      // has not run. Keeping this inside the fused handlers leaves the
      // per-dispatch fast path with a single budget compare. Ip+1 >= LimitIp
      // is precisely "the head was the last step the budget allowed".
#define HELIX_FUSED_TAIL_BUDGET_CHECK()                                        \
  if (HELIX_UNLIKELY(Ip + 1 >= LimitIp))                                       \
    return BudgetStop(Ip + 1);

#define HELIX_CMPBR_CASE(N, ACC, OP)                                           \
  case XOpcode::N: {                                                           \
    bool Cond = Val(I.Ops[0]).ACC() OP Val(I.Ops[1]).ACC();                    \
    Regs[I.Dest] = Value::ofInt(Cond); /* may be live across the branch */     \
    if constexpr (HT::WantsInstruction)                                        \
      Hooks.onInstruction(DF->SrcOf[PCOf(Ip)], I.Cycles);                      \
    HELIX_FUSED_TAIL_BUDGET_CHECK()                                            \
    const DecodedInst &T = Ip[1];                                              \
    StepsFused += 2;                                                           \
    Account(Ip + 2);                                                           \
    if constexpr (HT::WantsInstruction)                                        \
      Hooks.onInstruction(DF->SrcOf[PCOf(Ip) + 1], T.Cycles);                  \
    uint32_t Target = Cond ? T.Succ1 : T.Succ2;                                \
    if constexpr (HT::WantsEdges) {                                            \
      if (!Hooks.onEdge(DF->BlockOf[PCOf(Ip) + 1], DF->BlockOf[Target])) {     \
        Fr.PC = PCOf(Ip) + 1;                                                  \
        Flush();                                                               \
        return ExecStop::EdgeStopped;                                          \
      }                                                                        \
    }                                                                          \
    Ip = Code + Target;                                                        \
    Reseg(Target);                                                             \
    goto dispatch;                                                             \
  }

      HELIX_CMPBR_CASE(CmpEQBr, asInt, ==)
      HELIX_CMPBR_CASE(CmpNEBr, asInt, !=)
      HELIX_CMPBR_CASE(CmpLTBr, asInt, <)
      HELIX_CMPBR_CASE(CmpLEBr, asInt, <=)
      HELIX_CMPBR_CASE(CmpGTBr, asInt, >)
      HELIX_CMPBR_CASE(CmpGEBr, asInt, >=)
      HELIX_CMPBR_CASE(FCmpEQBr, asFloat, ==)
      HELIX_CMPBR_CASE(FCmpNEBr, asFloat, !=)
      HELIX_CMPBR_CASE(FCmpLTBr, asFloat, <)
      HELIX_CMPBR_CASE(FCmpLEBr, asFloat, <=)
      HELIX_CMPBR_CASE(FCmpGTBr, asFloat, >)
      HELIX_CMPBR_CASE(FCmpGEBr, asFloat, >=)
#undef HELIX_CMPBR_CASE

      case XOpcode::AddLoad: {
        uint64_t Sum =
            uint64_t(Val(I.Ops[0]).asInt()) + uint64_t(Val(I.Ops[1]).asInt());
        Regs[I.Dest] = Value::ofInt(int64_t(Sum));
        if constexpr (HT::WantsInstruction)
          Hooks.onInstruction(DF->SrcOf[PCOf(Ip)], I.Cycles);
        HELIX_FUSED_TAIL_BUDGET_CHECK()
        const DecodedInst &T = Ip[1];
        StepsFused += 2;
        int64_t Addr = int64_t(Sum);
        if (Addr <= 0)
          return Trap(Ip + 1, "load from null/negative address");
        uint64_t A = uint64_t(Addr);
        if (A >= ExecStackBase) {
          uint64_t Idx = A - ExecStackBase;
          Regs[T.Dest] = Idx < Ctx.Stack.size() ? Ctx.Stack[Idx] : Value();
        } else {
          Regs[T.Dest] = Mem.load(A);
        }
        if constexpr (HT::WantsInstruction)
          Hooks.onInstruction(DF->SrcOf[PCOf(Ip) + 1], T.Cycles);
        Ip += 2;
        goto dispatch;
      }
      case XOpcode::AddStore: {
        uint64_t Sum =
            uint64_t(Val(I.Ops[0]).asInt()) + uint64_t(Val(I.Ops[1]).asInt());
        // Write the sum before reading the store value: the stored operand
        // may name the add's destination register.
        Regs[I.Dest] = Value::ofInt(int64_t(Sum));
        if constexpr (HT::WantsInstruction)
          Hooks.onInstruction(DF->SrcOf[PCOf(Ip)], I.Cycles);
        HELIX_FUSED_TAIL_BUDGET_CHECK()
        const DecodedInst &T = Ip[1];
        StepsFused += 2;
        int64_t Addr = int64_t(Sum);
        if (Addr <= 0)
          return Trap(Ip + 1, "store to null/negative address");
        uint64_t A = uint64_t(Addr);
        if (A >= ExecStackBase) {
          uint64_t Idx = A - ExecStackBase;
          if (Idx >= Ctx.Stack.size())
            Ctx.Stack.resize(Idx + 1);
          Ctx.Stack[Idx] = Val(T.Ops[0]);
        } else {
          Mem.store(A, Val(T.Ops[0]));
        }
        if constexpr (HT::WantsInstruction)
          Hooks.onInstruction(DF->SrcOf[PCOf(Ip) + 1], T.Cycles);
        Ip += 2;
        goto dispatch;
      }
      case XOpcode::SyncPair: {
        if (!Hooks.sync(I, DF->SrcOf[PCOf(Ip)])) {
          Account(Ip + 1); // head abandoned: only its step was spent
          Fr.PC = PCOf(Ip);
          Flush();
          return ExecStop::Abandoned;
        }
        if constexpr (HT::WantsInstruction)
          Hooks.onInstruction(DF->SrcOf[PCOf(Ip)], I.Cycles);
        HELIX_FUSED_TAIL_BUDGET_CHECK()
        const DecodedInst &T = Ip[1];
        StepsFused += 2;
        if (!Hooks.sync(T, DF->SrcOf[PCOf(Ip) + 1])) {
          Account(Ip + 2); // tail abandoned: both halves charged
          Fr.PC = PCOf(Ip) + 1;
          Flush();
          return ExecStop::Abandoned;
        }
        if constexpr (HT::WantsInstruction)
          Hooks.onInstruction(DF->SrcOf[PCOf(Ip) + 1], T.Cycles);
        Ip += 2;
        goto dispatch;
      }

      // Generic ALU pair handlers: head and tail are trap-free integer ALU
      // ops, executed back to back in one dispatch. The head's destination
      // is written before the tail's operands are read, so a tail that
      // consumes the head's result (the common case) behaves exactly like
      // two sequential dispatches.
#define HELIX_ALU_Add(A, B) int64_t(uint64_t(A) + uint64_t(B))
#define HELIX_ALU_Sub(A, B) int64_t(uint64_t(A) - uint64_t(B))
#define HELIX_ALU_Mul(A, B) int64_t(uint64_t(A) * uint64_t(B))
#define HELIX_ALU_And(A, B) ((A) & (B))
#define HELIX_ALU_Or(A, B) ((A) | (B))
#define HELIX_ALU_Xor(A, B) ((A) ^ (B))
#define HELIX_ALU_Shl(A, B) int64_t(uint64_t(A) << ((B) & 63))
#define HELIX_ALU_Shr(A, B) int64_t(uint64_t(A) >> ((B) & 63))

#define HELIX_ALUPAIR_CASE(HD, TL)                                             \
  case XOpcode::HD##TL: {                                                      \
    Regs[I.Dest] = Value::ofInt(                                               \
        HELIX_ALU_##HD(Val(I.Ops[0]).asInt(), Val(I.Ops[1]).asInt()));         \
    if constexpr (HT::WantsInstruction)                                        \
      Hooks.onInstruction(DF->SrcOf[PCOf(Ip)], I.Cycles);                      \
    HELIX_FUSED_TAIL_BUDGET_CHECK()                                            \
    const DecodedInst &T = Ip[1];                                              \
    StepsFused += 2;                                                           \
    Regs[T.Dest] = Value::ofInt(                                               \
        HELIX_ALU_##TL(Val(T.Ops[0]).asInt(), Val(T.Ops[1]).asInt()));         \
    if constexpr (HT::WantsInstruction)                                        \
      Hooks.onInstruction(DF->SrcOf[PCOf(Ip) + 1], T.Cycles);                  \
    Ip += 2;                                                                   \
    goto dispatch;                                                             \
  }
#define HELIX_ALUPAIR_CASE_ROW(HD)                                             \
  HELIX_ALUPAIR_CASE(HD, Add)                                                  \
  HELIX_ALUPAIR_CASE(HD, Sub)                                                  \
  HELIX_ALUPAIR_CASE(HD, Mul)                                                  \
  HELIX_ALUPAIR_CASE(HD, And)                                                  \
  HELIX_ALUPAIR_CASE(HD, Or)                                                   \
  HELIX_ALUPAIR_CASE(HD, Xor)                                                  \
  HELIX_ALUPAIR_CASE(HD, Shl)                                                  \
  HELIX_ALUPAIR_CASE(HD, Shr)

      HELIX_ALUPAIR_CASE_ROW(Add)
      HELIX_ALUPAIR_CASE_ROW(Sub)
      HELIX_ALUPAIR_CASE_ROW(Mul)
      HELIX_ALUPAIR_CASE_ROW(And)
      HELIX_ALUPAIR_CASE_ROW(Or)
      HELIX_ALUPAIR_CASE_ROW(Xor)
      HELIX_ALUPAIR_CASE_ROW(Shl)
      HELIX_ALUPAIR_CASE_ROW(Shr)
#undef HELIX_ALUPAIR_CASE_ROW
#undef HELIX_ALUPAIR_CASE

      // Every dispatch key is covered above: telling the optimizer so
      // deletes the jump-table bounds check from the hottest branch in the
      // process.
      default:
        assert(!"invalid dispatch key");
        HELIX_UNREACHABLE_HINT();
      }

    step_done:
      if constexpr (HT::WantsInstruction)
        Hooks.onInstruction(DF->SrcOf[PCOf(Ip)], I.Cycles);
      ++Ip;
      goto dispatch;
    }
  reframe:;
  }
  Flush();
  return ExecStop::Returned;
}

#undef HELIX_ALU_Add
#undef HELIX_ALU_Sub
#undef HELIX_ALU_Mul
#undef HELIX_ALU_And
#undef HELIX_ALU_Or
#undef HELIX_ALU_Xor
#undef HELIX_ALU_Shl
#undef HELIX_ALU_Shr
#undef HELIX_FUSED_TAIL_BUDGET_CHECK

} // namespace helix

#endif // HELIX_EXEC_EXECENGINE_H
