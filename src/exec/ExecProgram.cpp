#include "exec/ExecProgram.h"

#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "sim/CostModel.h"
#include "support/Compiler.h"
#include "support/Hash.h"

#include <map>

using namespace helix;

//===----------------------------------------------------------------------===//
// Body decode
//===----------------------------------------------------------------------===//

namespace {

/// Interns constants so repeated immediates share one pool slot.
class ConstPool {
public:
  explicit ConstPool(std::vector<Value> &Out) : Out(Out) {}

  OperandRef intern(Value V) {
    uint64_t Bits = 0;
    static_assert(sizeof(V.I) == sizeof(Bits), "value payload is 8 bytes");
    __builtin_memcpy(&Bits, &V.I, sizeof(Bits));
    auto [It, Inserted] =
        Index.try_emplace({V.IsFloat, Bits}, uint32_t(Out.size()));
    if (Inserted)
      Out.push_back(V);
    assert(It->second < ConstOperandBit && "constant pool overflow");
    return OperandRef(It->second) | ConstOperandBit;
  }

private:
  std::vector<Value> &Out;
  std::map<std::pair<bool, uint64_t>, uint32_t> Index;
};

bool isAnyCmp(Opcode Op) {
  return Op >= Opcode::CmpEQ && Op <= Opcode::FCmpGE;
}
bool isSyncOpcode(Opcode Op) {
  return Op == Opcode::Wait || Op == Opcode::SignalOp ||
         Op == Opcode::IterStart;
}

/// True when operand \p R names register \p Reg (not a pool constant).
bool isReg(OperandRef R, uint32_t Reg) {
  return !(R & ConstOperandBit) && R == Reg;
}

/// Peephole superinstruction fusion over one block's PC range
/// [Begin, End). Layout preserving: the head instruction's dispatch key
/// becomes a fused XOpcode and the tail at PC+1 stays fully intact (the
/// fused handler reads it), so PCs, block boundaries and branch targets
/// are unchanged. Pairs are disjoint; a pair tail is mid-block and thus
/// never a branch target. \returns the number of pairs fused.
uint64_t fuseBlock(DecodedInst *Code, uint32_t Begin, uint32_t End) {
  uint64_t Fused = 0;
  for (uint32_t PC = Begin; PC + 1 < End; ++PC) {
    DecodedInst &A = Code[PC];
    const DecodedInst &B = Code[PC + 1];

    // cmp + condbr on the comparison result. The fused handler still
    // writes the cmp's destination (it may be live across the branch).
    if (isAnyCmp(A.Op) && B.Op == Opcode::CondBr && isReg(B.Ops[0], A.Dest)) {
      unsigned Rel = unsigned(A.Op) - unsigned(Opcode::CmpEQ);
      A.X = XOpcode(unsigned(XOpcode::CmpEQBr) + Rel);
      ++Fused;
      ++PC; // pairs are disjoint
      continue;
    }
    // add + load/store through the freshly computed address.
    if (A.Op == Opcode::Add && B.Op == Opcode::Load &&
        isReg(B.Ops[0], A.Dest)) {
      A.X = XOpcode::AddLoad;
      ++Fused;
      ++PC;
      continue;
    }
    if (A.Op == Opcode::Add && B.Op == Opcode::Store &&
        isReg(B.Ops[1], A.Dest)) {
      A.X = XOpcode::AddStore;
      ++Fused;
      ++PC;
      continue;
    }
    // Adjacent synchronization operations (Signal/Wait sequences emitted
    // back to back by the parallelizer).
    if (isSyncOpcode(A.Op) && isSyncOpcode(B.Op)) {
      A.X = XOpcode::SyncPair;
      ++Fused;
      ++PC;
      continue;
    }
    // Generic trap-free integer ALU pair: any adjacency qualifies (the
    // fused handler writes the head's destination before reading the
    // tail's operands, exactly like two sequential dispatches), so the
    // dominant short ALU chains of loop bodies pair off greedily.
    if (aluPairIndex(A.Op) >= 0 && aluPairIndex(B.Op) >= 0) {
      A.X = aluPairKey(A.Op, B.Op);
      ++Fused;
      ++PC;
      continue;
    }
  }
  return Fused;
}

} // namespace

ExecCodeBody::ExecCodeBody(const Module &M) {
  Fingerprint = ExecProgram::fingerprintModule(M);

  // Memory layout: identical for every engine — address 0 reserved,
  // globals from 1, heap after the globals.
  uint64_t Next = 1;
  for (unsigned I = 0, E = M.numGlobals(); I != E; ++I) {
    GlobalBase.push_back(Next);
    Next += M.global(I).Size;
  }
  GlobalEnd = Next;

  // Function index first, so calls bind directly even when the callee
  // appears later in the module.
  Functions.resize(M.numFunctions());
  std::unordered_map<const Function *, uint32_t> FunctionIndex;
  for (unsigned I = 0, E = M.numFunctions(); I != E; ++I)
    FunctionIndex[M.function(I)] = I;

  ConstPool Pool(Consts);
  auto Bind = [&](const Operand &O) -> OperandRef {
    switch (O.kind()) {
    case Operand::Kind::Reg:
      return OperandRef(O.regId());
    case Operand::Kind::ImmInt:
      return Pool.intern(Value::ofInt(O.intValue()));
    case Operand::Kind::ImmFloat:
      return Pool.intern(Value::ofFloat(O.floatValue()));
    case Operand::Kind::Global:
      return Pool.intern(Value::ofInt(int64_t(GlobalBase[O.globalIndex()])));
    }
    HELIX_UNREACHABLE("unknown operand kind");
  };

  for (unsigned FI = 0, FE = M.numFunctions(); FI != FE; ++FI) {
    const Function *F = M.function(FI);
    DecodedFunctionBody &DF = Functions[FI];
    DF.NumRegs = F->numRegs();
    DF.NumParams = F->numParams();

    // Pass 1: block start PCs (entry block is laid out first, so its
    // start — the function entry PC — is 0).
    DF.BlockStart.assign(F->numBlockIds(), ~0u);
    uint32_t PC = 0;
    for (unsigned BI = 0, BE = F->numBlocks(); BI != BE; ++BI) {
      const BasicBlock *BB = F->block(BI);
      assert(BB->terminator() && "decoding an unterminated block");
      DF.BlockStart[BB->id()] = PC;
      PC += BB->size();
    }
    DF.Code.reserve(PC);

    // Pass 2: the instructions themselves.
    for (unsigned BI = 0, BE = F->numBlocks(); BI != BE; ++BI) {
      const BasicBlock *BB = F->block(BI);
      for (const Instruction *I : *BB) {
        DecodedInst D;
        D.Op = I->opcode();
        D.X = plainKey(D.Op);
        D.Cycles = uint16_t(opcodeCycles(D.Op));
        D.Dest = I->hasDest() ? I->dest() : ~0u;
        D.Imm = I->imm();
        D.NumOperands = uint8_t(I->numOperands());
        for (unsigned K = 0, E = I->numOperands(); K != E; ++K) {
          OperandRef R = Bind(I->operand(K));
          if (K < 2) {
            D.Ops[K] = R;
          } else {
            if (K == 2)
              D.ExtraOps = uint32_t(DF.ExtraOperands.size());
            DF.ExtraOperands.push_back(R);
          }
        }
        if (I->target1())
          D.Succ1 = DF.BlockStart[I->target1()->id()];
        if (I->target2())
          D.Succ2 = DF.BlockStart[I->target2()->id()];
        if (I->opcode() == Opcode::Call) {
          assert(I->callee() && "call without callee");
          D.Callee = FunctionIndex.at(I->callee());
        }
        DF.Code.push_back(D);
      }
    }

    // Pass 3: superinstruction fusion, block by block (a pair never
    // crosses a block boundary, so a pair tail is never a branch target).
    uint32_t Begin = 0;
    for (unsigned BI = 0, BE = F->numBlocks(); BI != BE; ++BI) {
      uint32_t End = Begin + uint32_t(F->block(BI)->size());
      FusedPairs += fuseBlock(DF.Code.data(), Begin, End);
      Begin = End;
    }

    // Pass 4: cycle prefix sums over the flat code array. Fusion rewrites
    // dispatch keys only, never per-instruction cycle costs. The engine
    // charges a straight-line segment [A, B) in a single subtraction at
    // the segment's end instead of accumulating per instruction in the
    // dispatch loop.
    DF.CyclePrefix.resize(DF.Code.size() + 1);
    uint64_t Sum = 0;
    for (size_t K = 0, E = DF.Code.size(); K != E; ++K) {
      DF.CyclePrefix[K] = Sum;
      Sum += DF.Code[K].Cycles;
    }
    DF.CyclePrefix[DF.Code.size()] = Sum;
  }

  obs::MetricsRegistry::global()
      .counter("exec.decode.fused_pairs")
      .add(FusedPairs);
}

//===----------------------------------------------------------------------===//
// Program instances
//===----------------------------------------------------------------------===//

ExecProgram::ExecProgram(const Module &M)
    : M(&M), Body(std::make_shared<const ExecCodeBody>(M)) {
  bindInstanceTables();
}

ExecProgram::ExecProgram(const Module &M,
                         std::shared_ptr<const ExecCodeBody> SharedBody)
    : M(&M), Body(std::move(SharedBody)) {
  assert(Body->Fingerprint == fingerprintModule(M) &&
         "body does not match the module's structural fingerprint");
  bindInstanceTables();
}

void ExecProgram::bindInstanceTables() {
  Functions.resize(M->numFunctions());
  for (unsigned FI = 0, FE = M->numFunctions(); FI != FE; ++FI) {
    const Function *F = M->function(FI);
    FunctionIndex[F] = FI;
    DecodedFunction &DF = Functions[FI];
    DF.Src = F;
    DF.Body = &Body->Functions[FI];
    DF.NumRegs = DF.Body->NumRegs;
    DF.NumParams = DF.Body->NumParams;
    DF.BlockOf.reserve(DF.Body->Code.size());
    DF.SrcOf.reserve(DF.Body->Code.size());
    // Same block-layout walk as the body decode, so PC i names the same
    // instruction in both tables.
    for (unsigned BI = 0, BE = F->numBlocks(); BI != BE; ++BI) {
      const BasicBlock *BB = F->block(BI);
      for (const Instruction *I : *BB) {
        DF.BlockOf.push_back(BB);
        DF.SrcOf.push_back(I);
      }
    }
    assert(DF.BlockOf.size() == DF.Body->Code.size() &&
           "instance tables out of step with the decoded body");
  }
}

const DecodedFunction *ExecProgram::function(const Function *F) const {
  auto It = FunctionIndex.find(F);
  return It == FunctionIndex.end() ? nullptr : &Functions[It->second];
}

const DecodedFunction *
ExecProgram::findFunction(const std::string &Name) const {
  const Function *F = M->findFunction(Name);
  return F ? function(F) : nullptr;
}

void ExecProgram::initGlobals(std::vector<Value> &Low) const {
  assert(Low.size() >= globalEnd() && "arena smaller than the global segment");
  for (unsigned I = 0, E = M->numGlobals(); I != E; ++I) {
    const GlobalVariable &G = M->global(I);
    for (size_t K = 0; K != G.Init.size(); ++K)
      Low[Body->GlobalBase[I] + K] = Value::ofInt(G.Init[K]);
  }
}

//===----------------------------------------------------------------------===//
// Structural fingerprint
//===----------------------------------------------------------------------===//

uint64_t ExecProgram::fingerprintModule(const Module &M) {
  Fnv1a H;
  H.u64(M.numGlobals());
  for (unsigned I = 0, E = M.numGlobals(); I != E; ++I) {
    const GlobalVariable &G = M.global(I);
    H.u64(G.Size);
    H.u64(G.Init.size());
    for (int64_t V : G.Init)
      H.u64(uint64_t(V));
  }

  std::unordered_map<const Function *, uint64_t> FuncId;
  for (unsigned I = 0, E = M.numFunctions(); I != E; ++I)
    FuncId[M.function(I)] = I;

  H.u64(M.numFunctions());
  for (unsigned FI = 0, FE = M.numFunctions(); FI != FE; ++FI) {
    const Function *F = M.function(FI);
    H.str(F->name());
    H.u64(F->numParams());
    H.u64(F->numRegs());
    H.u64(F->numBlocks());
    for (unsigned BI = 0, BE = F->numBlocks(); BI != BE; ++BI) {
      const BasicBlock *BB = F->block(BI);
      H.u64(BB->id());
      H.u64(BB->size());
      for (const Instruction *I : *BB) {
        H.u64(uint64_t(I->opcode()));
        H.u64(I->hasDest() ? I->dest() : ~0ull);
        H.u64(uint64_t(I->imm()));
        H.u64(I->numOperands());
        for (unsigned K = 0, E = I->numOperands(); K != E; ++K) {
          const Operand &O = I->operand(K);
          H.u64(uint64_t(O.kind()));
          switch (O.kind()) {
          case Operand::Kind::Reg:
            H.u64(O.regId());
            break;
          case Operand::Kind::ImmInt:
            H.u64(uint64_t(O.intValue()));
            break;
          case Operand::Kind::ImmFloat: {
            double D = O.floatValue();
            uint64_t Bits = 0;
            __builtin_memcpy(&Bits, &D, sizeof(Bits));
            H.u64(Bits);
            break;
          }
          case Operand::Kind::Global:
            H.u64(O.globalIndex());
            break;
          }
        }
        H.u64(I->target1() ? I->target1()->id() : ~0ull);
        H.u64(I->target2() ? I->target2()->id() : ~0ull);
        H.u64(I->callee() ? FuncId.at(I->callee()) : ~0ull);
      }
    }
  }
  return H.H;
}

//===----------------------------------------------------------------------===//
// DecodeCache
//===----------------------------------------------------------------------===//

DecodeCache &DecodeCache::global() {
  static DecodeCache Cache;
  return Cache;
}

std::shared_ptr<const ExecProgram> DecodeCache::get(const Module &M) {
  uint64_t FP = ExecProgram::fingerprintModule(M);
  std::shared_ptr<const ExecCodeBody> Body;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    auto It = Entries.find(&M);
    if (It != Entries.end() && It->second.Uid == M.uid() &&
        It->second.Fingerprint == FP) {
      ++Hits;
      return It->second.Prog;
    }
    auto BIt = Bodies.find(FP);
    if (BIt != Bodies.end())
      Body = BIt->second;
  }

  // Decode/bind outside the lock: concurrent fuzz workers decode distinct
  // modules in parallel; a racing duplicate decode of the same module is
  // harmless (last writer wins). The span covers both miss flavours — a
  // full body decode and an instance rebind around a shared body.
  obs::TraceSpan DecodeSpan("decode", "exec");
  bool BuiltBody = false;
  if (!Body) {
    Body = std::make_shared<const ExecCodeBody>(M);
    BuiltBody = true;
  }
  auto Prog = std::make_shared<const ExecProgram>(M, Body);

  std::lock_guard<std::mutex> Lock(Mutex);
  if (BuiltBody) {
    ++Decodes;
    if (Bodies.size() >= MaxEntries && !Bodies.count(FP)) {
      Bodies.erase(Bodies.begin()); // arbitrary victim
      ++Evictions;
    }
    Bodies[FP] = Body;
  } else {
    ++BodyHits;
  }
  if (Entries.size() >= MaxEntries && !Entries.count(&M)) {
    Entries.erase(Entries.begin()); // users hold shared_ptrs
    ++Evictions;
  }
  Entries[&M] = {M.uid(), FP, Prog};
  return Prog;
}

void DecodeCache::clear() {
  std::lock_guard<std::mutex> Lock(Mutex);
  Entries.clear();
  Bodies.clear();
}
