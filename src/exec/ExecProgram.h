//===----------------------------------------------------------------------===//
///
/// \file
/// The decode-once program representation of the execution engine.
///
/// A Module is lowered exactly once into a flat, pre-resolved instruction
/// stream per function: operands are pre-bound to virtual-register slots or
/// constant-pool entries (immediates and global base addresses resolve at
/// decode time), branch targets become flat code indices, and call targets
/// become direct decoded-function indices. The drivers in sim/ (sequential
/// interpretation, trace collection) and runtime/ (the threaded runtime)
/// all dispatch over this one representation — the IR tree is never walked
/// again after decode.
///
/// The representation is split into two layers:
///
///   - ExecCodeBody: the pointer-free, shareable part — the decoded
///     instruction streams, constant pool and memory layout. Content
///     addressed: two structurally identical modules (same fingerprint)
///     share one body, so sweeps and fuzz campaigns that clone-and-
///     transform per point decode each distinct shape once.
///   - ExecProgram: a thin per-module instance binding the body back to
///     IR identity (Instruction/BasicBlock/Function pointers for
///     observers, sync-op ownership and trap diagnostics).
///
/// Decode peephole-fuses hot instruction pairs (cmp+condbr, add+load,
/// add+store, adjacent sync ops, integer ALU pairs) into superinstructions:
/// the fused head gets a fused XOpcode dispatch key while every original
/// field — including the untouched pair tail at PC+1 — stays in place, so
/// PCs, block boundaries and branch targets are exactly those of the
/// module's block layout. Every driver, observed or not, runs this one
/// decode: fused handlers report one observer event per original
/// instruction.
///
/// Program instances keep pointers into their source Module, so the Module
/// must outlive the ExecProgram and must not be mutated while one is in
/// use. DecodeCache enforces that contract with a structural fingerprint:
/// a cached decode is only served while the module still hashes to the
/// value it was decoded at.
///
//===----------------------------------------------------------------------===//

#ifndef HELIX_EXEC_EXECPROGRAM_H
#define HELIX_EXEC_EXECPROGRAM_H

#include "ir/Module.h"
#include "sim/Value.h"

#include <atomic>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace helix {

/// A pre-bound data operand: either a frame register slot or an index into
/// the program's constant pool (bit 31). Decode resolves immediates *and*
/// global addresses into pool constants, so the dispatch loop never
/// switches over operand kinds.
using OperandRef = uint32_t;
inline constexpr OperandRef ConstOperandBit = OperandRef(1) << 31;

/// The dispatch keys of the engine: every Opcode (numerically mirrored, so
/// an unfused instruction's key is just its opcode) plus the fused
/// superinstructions decode synthesizes. Keep the plain list and the
/// Opcode enum order in lock step.
#define HELIX_XOPCODE_PLAIN_LIST(X)                                            \
  X(Add) X(Sub) X(Mul) X(Div) X(Rem) X(And) X(Or) X(Xor) X(Shl) X(Shr)         \
  X(FAdd) X(FSub) X(FMul) X(FDiv) X(IntToFP) X(FPToInt)                        \
  X(CmpEQ) X(CmpNE) X(CmpLT) X(CmpLE) X(CmpGT) X(CmpGE)                        \
  X(FCmpEQ) X(FCmpNE) X(FCmpLT) X(FCmpLE) X(FCmpGT) X(FCmpGE)                  \
  X(Mov) X(Load) X(Store) X(Alloca) X(HeapAlloc)                               \
  X(Br) X(CondBr) X(Call) X(Ret) X(Wait) X(SignalOp) X(IterStart) X(Nop)

/// The eight trap-free integer ALU opcodes eligible for generic pair
/// fusion, in the index order aluPairIndex() assigns. Any adjacent pair of
/// these fuses into one dispatch (HeadTail key = AddAdd + head*8 + tail) —
/// interpreter loop bodies are dominated by short ALU chains, so this is
/// where superinstruction fusion buys the most.
#define HELIX_ALUPAIR_OPS(X) \
  X(Add) X(Sub) X(Mul) X(And) X(Or) X(Xor) X(Shl) X(Shr)

#define HELIX_ALUPAIR_ROW(X, H)                                                \
  X(H##Add) X(H##Sub) X(H##Mul) X(H##And) X(H##Or) X(H##Xor) X(H##Shl)         \
      X(H##Shr)

#define HELIX_XOPCODE_ALUPAIR_LIST(X)                                          \
  HELIX_ALUPAIR_ROW(X, Add) HELIX_ALUPAIR_ROW(X, Sub)                          \
  HELIX_ALUPAIR_ROW(X, Mul) HELIX_ALUPAIR_ROW(X, And)                          \
  HELIX_ALUPAIR_ROW(X, Or) HELIX_ALUPAIR_ROW(X, Xor)                           \
  HELIX_ALUPAIR_ROW(X, Shl) HELIX_ALUPAIR_ROW(X, Shr)

#define HELIX_XOPCODE_FUSED_LIST(X)                                            \
  X(CmpEQBr) X(CmpNEBr) X(CmpLTBr) X(CmpLEBr) X(CmpGTBr) X(CmpGEBr)            \
  X(FCmpEQBr) X(FCmpNEBr) X(FCmpLTBr) X(FCmpLEBr) X(FCmpGTBr) X(FCmpGEBr)      \
  X(AddLoad) X(AddStore) X(SyncPair) HELIX_XOPCODE_ALUPAIR_LIST(X)

#define HELIX_XOPCODE_LIST(X)                                                  \
  HELIX_XOPCODE_PLAIN_LIST(X) HELIX_XOPCODE_FUSED_LIST(X)

enum class XOpcode : uint8_t {
#define HELIX_DEFINE_XOPCODE(N) N,
  HELIX_XOPCODE_LIST(HELIX_DEFINE_XOPCODE)
#undef HELIX_DEFINE_XOPCODE
};

/// The plain block mirrors Opcode numerically: XOpcode(uint8_t(Op)) is the
/// unfused dispatch key of Op.
static_assert(uint8_t(XOpcode::Add) == uint8_t(Opcode::Add) &&
                  uint8_t(XOpcode::CondBr) == uint8_t(Opcode::CondBr) &&
                  uint8_t(XOpcode::Nop) == uint8_t(Opcode::Nop),
              "XOpcode plain block must mirror Opcode");

inline constexpr XOpcode plainKey(Opcode Op) { return XOpcode(uint8_t(Op)); }

/// Index of \p Op in the HELIX_ALUPAIR_OPS grid, or -1 when the opcode is
/// not eligible for generic ALU pair fusion (it may trap, or is not an
/// integer ALU operation).
inline constexpr int aluPairIndex(Opcode Op) {
  switch (Op) {
  case Opcode::Add:
    return 0;
  case Opcode::Sub:
    return 1;
  case Opcode::Mul:
    return 2;
  case Opcode::And:
    return 3;
  case Opcode::Or:
    return 4;
  case Opcode::Xor:
    return 5;
  case Opcode::Shl:
    return 6;
  case Opcode::Shr:
    return 7;
  default:
    return -1;
  }
}

/// Dispatch key of the fused pair (head, tail); both must be pair-eligible.
inline constexpr XOpcode aluPairKey(Opcode Head, Opcode Tail) {
  return XOpcode(unsigned(XOpcode::AddAdd) + unsigned(aluPairIndex(Head)) * 8 +
                 unsigned(aluPairIndex(Tail)));
}

static_assert(uint8_t(XOpcode::ShrShr) == uint8_t(XOpcode::AddAdd) + 63 &&
                  aluPairKey(Opcode::Add, Opcode::Add) == XOpcode::AddAdd &&
                  aluPairKey(Opcode::Xor, Opcode::Shr) == XOpcode::XorShr &&
                  aluPairKey(Opcode::Shr, Opcode::Shr) == XOpcode::ShrShr,
              "ALU pair key grid out of step with the XOpcode list");

/// One pre-decoded instruction. Fixed two inline operand slots cover every
/// opcode except wide calls, whose extra arguments spill into the owning
/// function body's side table. Pointer-free — shared across structurally
/// identical modules. 40 bytes (Succ2 and Callee overlap: an instruction
/// has either branch targets or a callee, never both).
struct DecodedInst {
  Opcode Op = Opcode::Nop;
  XOpcode X = XOpcode::Nop; ///< dispatch key; == plainKey(Op) unless fused
  uint8_t NumOperands = 0;
  uint32_t Dest = ~0u;      ///< NoReg when the instruction has no destination
  OperandRef Ops[2] = {0, 0};
  uint32_t Succ1 = 0;       ///< flat PC of target1 (Br, CondBr)
  union {
    uint32_t Succ2 = 0;     ///< flat PC of target2 (CondBr)
    uint32_t Callee;        ///< decoded-function index (Call)
  };
  uint32_t ExtraOps = 0;    ///< index into the body's ExtraOperands for
                            ///< operands beyond the inline two (calls only)
  uint16_t Cycles = 1;      ///< opcodeCycles(Op), resolved at decode time
  int64_t Imm = 0;          ///< Alloca size, Wait/Signal segment id
};

/// The shareable decoded code of one function: instructions laid out back
/// to back in block-layout order (the entry block first, so the entry PC
/// is 0). No IR pointers.
struct DecodedFunctionBody {
  uint32_t NumRegs = 0;
  uint32_t NumParams = 0;
  std::vector<DecodedInst> Code;
  /// First PC of each block, indexed by BasicBlock::id(); ~0u for ids of
  /// erased blocks. Block ids are structural (fingerprinted), so the table
  /// is valid for every module sharing this body.
  std::vector<uint32_t> BlockStart;
  /// Spill area for call operands beyond the two inline slots.
  std::vector<OperandRef> ExtraOperands;
  /// CyclePrefix[K] = sum of Code[0..K) cycle costs (size Code.size()+1).
  /// Lets the engine account a straight-line run [A, B) of instructions as
  /// CyclePrefix[B] - CyclePrefix[A] at the segment's end rather than
  /// per dispatch.
  std::vector<uint64_t> CyclePrefix;
};

/// The pointer-free decoded module: everything execution semantics depend
/// on and nothing tied to one Module allocation. Content addressed by the
/// structural fingerprint.
struct ExecCodeBody {
  explicit ExecCodeBody(const Module &M);

  std::vector<DecodedFunctionBody> Functions;
  std::vector<Value> Consts;
  std::vector<uint64_t> GlobalBase;
  uint64_t GlobalEnd = 1;
  uint64_t Fingerprint = 0;
  /// Instruction pairs fused into superinstructions at decode time.
  uint64_t FusedPairs = 0;
};

/// One decoded function as the engine sees it: the shared body plus this
/// module's IR identity per PC (for observers, sync-op ownership and trap
/// diagnostics).
struct DecodedFunction {
  const Function *Src = nullptr;
  const DecodedFunctionBody *Body = nullptr;
  uint32_t NumRegs = 0;   ///< mirrored from the body for hot access
  uint32_t NumParams = 0;
  /// Owning basic block per PC (for edge hooks and trap diagnostics).
  std::vector<const BasicBlock *> BlockOf;
  /// Source instruction per PC (observer identity, sync-op ownership).
  std::vector<const Instruction *> SrcOf;

  const std::vector<DecodedInst> &code() const { return Body->Code; }
  uint32_t startOf(const BasicBlock *BB) const {
    return Body->BlockStart[BB->id()];
  }
};

/// A fully decoded module plus the memory layout every engine shares:
/// address 0 reserved, globals from address 1, heap after the globals,
/// stack addresses in a disjoint high range.
class ExecProgram {
public:
  /// Decodes \p M from scratch (body + instance tables).
  explicit ExecProgram(const Module &M);
  /// Binds an existing (content-addressed) body to \p M. \p Body must have
  /// been decoded from a module with the same structural fingerprint.
  ExecProgram(const Module &M, std::shared_ptr<const ExecCodeBody> Body);

  const Module &module() const { return *M; }
  const ExecCodeBody &body() const { return *Body; }
  std::shared_ptr<const ExecCodeBody> sharedBody() const { return Body; }

  unsigned numFunctions() const { return unsigned(Functions.size()); }
  const DecodedFunction &function(uint32_t Idx) const {
    return Functions[Idx];
  }
  /// \returns the decoded function for \p F, or null for foreign functions.
  const DecodedFunction *function(const Function *F) const;
  /// \returns the decoded function named \p Name, or null.
  const DecodedFunction *findFunction(const std::string &Name) const;

  // --- Memory layout ------------------------------------------------------
  uint64_t globalBase(unsigned Idx) const { return Body->GlobalBase[Idx]; }
  /// One past the last global slot == the initial heap pointer.
  uint64_t globalEnd() const { return Body->GlobalEnd; }
  /// Writes the global initializers into \p Low (which must have at least
  /// globalEnd() slots).
  void initGlobals(std::vector<Value> &Low) const;

  const std::vector<Value> &constants() const { return Body->Consts; }

  /// The structural fingerprint of the module at decode time.
  uint64_t fingerprint() const { return Body->Fingerprint; }
  /// Instruction pairs fused into superinstructions at decode time.
  uint64_t fusedPairs() const { return Body->FusedPairs; }

  /// Hashes everything execution semantics depend on: globals (sizes,
  /// initializers), function signatures, block layout, and per instruction
  /// the opcode, destination, immediate, operands, branch targets and
  /// callee. Cheap relative to a decode — no allocation, one linear walk.
  static uint64_t fingerprintModule(const Module &M);

private:
  void bindInstanceTables();

  const Module *M;
  std::shared_ptr<const ExecCodeBody> Body;
  std::vector<DecodedFunction> Functions;
  std::unordered_map<const Function *, uint32_t> FunctionIndex;
};

/// Process-wide decode cache, content addressed on two levels:
///
///   - program instances keyed on the module address, with the module's
///     unique id and structural fingerprint as guards (a recycled
///     allocation never resurrects a stale decode; in-place mutation
///     forces a re-decode);
///   - code bodies keyed on the structural fingerprint, so a *different*
///     module with the same shape reuses the heavy decode and only
///     rebuilds the thin instance tables (a BodyHit).
///
/// Bounded; eviction only drops the cache's own reference — running
/// engines keep their program (and through it the body) alive.
class DecodeCache {
public:
  /// Counter snapshot: Decodes built a code body from scratch, BodyHits
  /// rebuilt instance tables around a content-addressed body, Hits served
  /// a fully cached program, Evictions dropped a cache reference to make
  /// room. Monotonic over the cache's lifetime; subtract two snapshots for
  /// a per-run delta.
  struct Counters {
    uint64_t Decodes = 0;
    uint64_t Hits = 0;
    uint64_t Evictions = 0;
    uint64_t BodyHits = 0;
  };

  /// The process-wide instance every driver uses by default.
  static DecodeCache &global();

  /// \returns the decoded program of \p M, decoding the code body at most
  /// once per fingerprint. Thread-safe.
  std::shared_ptr<const ExecProgram> get(const Module &M);

  void clear();

  uint64_t decodes() const { return Decodes.load(std::memory_order_relaxed); }
  uint64_t hits() const { return Hits.load(std::memory_order_relaxed); }
  uint64_t evictions() const {
    return Evictions.load(std::memory_order_relaxed);
  }
  uint64_t bodyHits() const {
    return BodyHits.load(std::memory_order_relaxed);
  }
  Counters counters() const {
    return {decodes(), hits(), evictions(), bodyHits()};
  }

private:
  struct Entry {
    uint64_t Uid = 0;
    uint64_t Fingerprint = 0;
    std::shared_ptr<const ExecProgram> Prog;
  };
  static constexpr size_t MaxEntries = 64;

  mutable std::mutex Mutex;
  std::unordered_map<const Module *, Entry> Entries;
  std::unordered_map<uint64_t, std::shared_ptr<const ExecCodeBody>> Bodies;
  std::atomic<uint64_t> Decodes{0}, Hits{0}, Evictions{0}, BodyHits{0};
};

} // namespace helix

#endif // HELIX_EXEC_EXECPROGRAM_H
