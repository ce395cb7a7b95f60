#include "sim/Interpreter.h"

#include "support/Compiler.h"

using namespace helix;

Interpreter::Interpreter(Module &M)
    : Prog(DecodeCache::global().get(M)), Mem(*Prog) {}

const Function *Interpreter::currentFunction() const {
  return Ctx.Frames.empty() ? nullptr : Ctx.Frames.back().F->Src;
}

Value Interpreter::operandValue(const Operand &O) const {
  assert(!Ctx.Frames.empty() && "no active frame");
  switch (O.kind()) {
  case Operand::Kind::Reg: {
    const ExecContext::Frame &Fr = Ctx.Frames.back();
    assert(O.regId() < Fr.F->NumRegs && "register out of range");
    return Ctx.frameRegs(Fr)[O.regId()];
  }
  case Operand::Kind::ImmInt:
    return Value::ofInt(O.intValue());
  case Operand::Kind::ImmFloat:
    return Value::ofFloat(O.floatValue());
  case Operand::Kind::Global:
    return Value::ofInt(int64_t(Prog->globalBase(O.globalIndex())));
  }
  HELIX_UNREACHABLE("unknown operand kind");
}

Value Interpreter::regValue(unsigned Reg) const {
  assert(!Ctx.Frames.empty() && "no active frame");
  const ExecContext::Frame &Fr = Ctx.Frames.back();
  assert(Reg < Fr.F->NumRegs && "register out of range");
  return Ctx.frameRegs(Fr)[Reg];
}

Value Interpreter::loadSlot(uint64_t Addr) const {
  if (Addr >= ExecStackBase) {
    uint64_t Idx = Addr - ExecStackBase;
    return Idx < Ctx.Stack.size() ? Ctx.Stack[Idx] : Value();
  }
  return Mem.load(Addr);
}

void Interpreter::storeSlot(uint64_t Addr, Value V) {
  if (Addr >= ExecStackBase) {
    uint64_t Idx = Addr - ExecStackBase;
    if (Idx >= Ctx.Stack.size())
      Ctx.Stack.resize(Idx + 1);
    Ctx.Stack[Idx] = V;
    return;
  }
  Mem.store(Addr, V);
}

ExecResult Interpreter::run(const std::string &Name,
                            const std::vector<Value> &Args) {
  ExecResult R;
  const ExecProgram &P = *Prog;
  const DecodedFunction *DF = P.findFunction(Name);
  if (!DF) {
    R.Error = "no function @" + Name;
    return R;
  }
  if (Args.size() != DF->NumParams) {
    R.Error = "argument count mismatch for @" + Name;
    return R;
  }

  Ctx.Frames.clear();
  Ctx.RegTop = 0;
  Ctx.Steps = 0;
  Ctx.Cycles = 0;
  Ctx.StepsFused = 0;
  Ctx.Error.clear();
  Ctx.BudgetExhausted = false;
  Ctx.MaxSteps = MaxInstructions;
  ExecContext::Frame &Fr = Ctx.pushFrame(*DF);
  Value *Regs = Ctx.frameRegs(Fr);
  for (size_t K = 0; K != Args.size(); ++K)
    Regs[K] = Args[K];

  ExecStop Stop;
  if (Obs) {
    ObserverExecHooks Hooks(*Obs, *this);
    Stop = runEngine(P, Mem, Ctx, Hooks);
  } else {
    Stop = runEngine(P, Mem, Ctx, DefaultExecHooks());
  }

  R.Cycles = Ctx.Cycles;
  R.Instructions = Ctx.Steps;
  if (Stop == ExecStop::Returned) {
    R.Ok = true;
    R.ReturnValue = Ctx.Returned;
  } else {
    R.Error = Ctx.Error;
    R.BudgetExhausted = Ctx.BudgetExhausted;
  }
  return R;
}
