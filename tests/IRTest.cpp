//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for the IR layer: builder, verifier, CFG utilities, parser
/// round-trips, module cloning.
///
//===----------------------------------------------------------------------===//

#include "ir/CFG.h"
#include "ir/Clone.h"
#include "ir/IRBuilder.h"
#include "ir/IRParser.h"
#include "ir/Verifier.h"

#include <gtest/gtest.h>

using namespace helix;
using Op = Operand;

namespace {

/// A two-block function: entry -> loop (self edge) -> exit.
std::unique_ptr<Module> buildLoopModule() {
  auto M = std::make_unique<Module>();
  M->createGlobal("g", 16);
  Function *F = M->createFunction("main", 0);
  IRBuilder B(F);
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Hdr = F->createBlock("hdr");
  BasicBlock *Body = F->createBlock("body");
  BasicBlock *Exit = F->createBlock("exit");
  B.setInsertPoint(Entry);
  unsigned I = B.mov(Op::immInt(0));
  B.br(Hdr);
  B.setInsertPoint(Hdr);
  unsigned C = B.cmpLT(Op::reg(I), Op::immInt(10));
  B.condBr(Op::reg(C), Body, Exit);
  B.setInsertPoint(Body);
  B.binaryTo(I, Opcode::Add, Op::reg(I), Op::immInt(1));
  B.br(Hdr);
  B.setInsertPoint(Exit);
  B.ret(Op::reg(I));
  return M;
}

TEST(IR, BuilderProducesVerifiableModule) {
  auto M = buildLoopModule();
  EXPECT_EQ(verifyModule(*M), "");
  Function *F = M->findFunction("main");
  ASSERT_NE(F, nullptr);
  EXPECT_EQ(F->numBlocks(), 4u);
  EXPECT_EQ(F->entry()->name(), "entry");
}

TEST(IR, SuccessorsFollowTerminators) {
  auto M = buildLoopModule();
  Function *F = M->findFunction("main");
  BasicBlock *Hdr = F->findBlock("hdr");
  auto Succs = Hdr->successors();
  ASSERT_EQ(Succs.size(), 2u);
  EXPECT_EQ(Succs[0]->name(), "body");
  EXPECT_EQ(Succs[1]->name(), "exit");
}

TEST(IR, InsertEraseKeepPointersStable) {
  auto M = buildLoopModule();
  Function *F = M->findFunction("main");
  BasicBlock *Body = F->findBlock("body");
  Instruction *Add = Body->front();
  Instruction *Nop = Body->insertBefore(Add, Opcode::Nop);
  EXPECT_EQ(Body->indexOf(Nop), 0u);
  EXPECT_EQ(Body->indexOf(Add), 1u);
  Body->erase(Nop);
  EXPECT_EQ(Body->indexOf(Add), 0u);
}

TEST(IR, VerifierCatchesMissingTerminator) {
  Module M;
  Function *F = M.createFunction("f", 0);
  BasicBlock *BB = F->createBlock("entry");
  BB->append(Opcode::Nop);
  EXPECT_NE(verifyFunction(*F), "");
}

TEST(IR, VerifierCatchesTerminatorMidBlock) {
  Module M;
  Function *F = M.createFunction("f", 0);
  BasicBlock *BB = F->createBlock("entry");
  BB->append(Opcode::Ret);
  BB->append(Opcode::Nop);
  BB->append(Opcode::Ret);
  EXPECT_NE(verifyFunction(*F), "");
}

TEST(IR, VerifierCatchesOutOfRangeRegister) {
  Module M;
  Function *F = M.createFunction("f", 0);
  BasicBlock *BB = F->createBlock("entry");
  Instruction *I = BB->append(Opcode::Mov);
  I->addOperand(Op::reg(12345));
  I->setDest(F->allocReg());
  BB->append(Opcode::Ret);
  EXPECT_NE(verifyFunction(*F), "");
}

TEST(IR, VerifierCatchesCallArityMismatch) {
  Module M;
  Function *Callee = M.createFunction("callee", 2);
  {
    BasicBlock *BB = Callee->createBlock("entry");
    BB->append(Opcode::Ret);
  }
  Function *F = M.createFunction("f", 0);
  BasicBlock *BB = F->createBlock("entry");
  Instruction *Call = BB->append(Opcode::Call);
  Call->setCallee(Callee);
  Call->addOperand(Op::immInt(1)); // one argument, callee wants two
  BB->append(Opcode::Ret);
  EXPECT_NE(verifyFunction(*F), "");
}

TEST(IR, VerifierCatchesForeignBranchTarget) {
  Module M;
  Function *Other = M.createFunction("other", 0);
  BasicBlock *Foreign = Other->createBlock("x");
  Foreign->append(Opcode::Ret);
  Function *F = M.createFunction("f", 0);
  BasicBlock *BB = F->createBlock("entry");
  Instruction *Br = BB->append(Opcode::Br);
  Br->setTarget1(Foreign);
  EXPECT_NE(verifyFunction(*F), "");
}

/// Plants one sync op right before the loop body's terminator.
Instruction *plantSyncInBody(Module &M, Opcode Op, int64_t SegId) {
  Function *F = M.findFunction("main");
  BasicBlock *Body = F->findBlock("body");
  Instruction *I = Body->insertBefore(Body->terminator(), Op);
  I->setImm(SegId);
  return I;
}

TEST(IR, VerifierAcceptsSyncInLoopBody) {
  auto M = buildLoopModule();
  plantSyncInBody(*M, Opcode::Wait, 0);
  plantSyncInBody(*M, Opcode::SignalOp, 63);
  EXPECT_EQ(verifyFunction(*M->findFunction("main")), "");
}

TEST(IR, VerifierCatchesSyncOpWithOperands) {
  auto M = buildLoopModule();
  Function *F = M->findFunction("main");
  Instruction *W = plantSyncInBody(*M, Opcode::Wait, 0);
  W->addOperand(Op::reg(0)); // a runtime-varying segment id
  EXPECT_NE(verifyFunction(*F), "");
}

TEST(IR, VerifierCatchesSyncOpWithDestination) {
  auto M = buildLoopModule();
  Function *F = M->findFunction("main");
  Instruction *S = plantSyncInBody(*M, Opcode::SignalOp, 0);
  S->setDest(F->allocReg());
  EXPECT_NE(verifyFunction(*F), "");
}

TEST(IR, VerifierCatchesSegmentIdOutOfRange) {
  {
    auto M = buildLoopModule();
    plantSyncInBody(*M, Opcode::Wait, -1);
    EXPECT_NE(verifyFunction(*M->findFunction("main")), "");
  }
  {
    // 64 would alias segment 0 in the runtime's 64-bit flag mask.
    auto M = buildLoopModule();
    plantSyncInBody(*M, Opcode::SignalOp, 64);
    EXPECT_NE(verifyFunction(*M->findFunction("main")), "");
  }
}

TEST(IR, VerifierCatchesSyncOutsideLoop) {
  auto M = buildLoopModule();
  Function *F = M->findFunction("main");
  // The exit block never reaches itself: a Wait there can only hang.
  BasicBlock *Exit = F->findBlock("exit");
  Instruction *W = Exit->insertBefore(Exit->terminator(), Opcode::Wait);
  W->setImm(0);
  EXPECT_NE(verifyFunction(*F), "");
}

TEST(CFG, RPOStartsAtEntryAndCoversReachable) {
  auto M = buildLoopModule();
  Function *F = M->findFunction("main");
  CFGInfo CFG(F);
  const auto &RPO = CFG.reversePostOrder();
  ASSERT_EQ(RPO.size(), 4u);
  EXPECT_EQ(RPO.front(), F->entry());
  // Entry precedes header; header precedes both successors.
  EXPECT_LT(CFG.rpoIndex(F->findBlock("entry")),
            CFG.rpoIndex(F->findBlock("hdr")));
  EXPECT_LT(CFG.rpoIndex(F->findBlock("hdr")),
            CFG.rpoIndex(F->findBlock("body")));
}

TEST(CFG, PredecessorsAreInverseOfSuccessors) {
  auto M = buildLoopModule();
  Function *F = M->findFunction("main");
  CFGInfo CFG(F);
  BasicBlock *Hdr = F->findBlock("hdr");
  const auto &Preds = CFG.predecessors(Hdr);
  ASSERT_EQ(Preds.size(), 2u); // entry and body
}

TEST(CFG, SplitEdgeInsertsForwardingBlock) {
  auto M = buildLoopModule();
  Function *F = M->findFunction("main");
  BasicBlock *Hdr = F->findBlock("hdr");
  BasicBlock *Body = F->findBlock("body");
  BasicBlock *Mid = splitEdge(F, Hdr, Body);
  EXPECT_EQ(Hdr->terminator()->target1(), Mid);
  EXPECT_EQ(Mid->terminator()->target1(), Body);
  EXPECT_EQ(verifyFunction(*F), "");
}

TEST(Clone, CloneIsTextuallyIdentical) {
  auto M = buildLoopModule();
  auto C = cloneModule(*M);
  EXPECT_EQ(M->toString(), C->toString());
  EXPECT_EQ(verifyModule(*C), "");
}

TEST(Clone, CloneIsIndependent) {
  auto M = buildLoopModule();
  CloneMap Map;
  auto C = cloneModule(*M, &Map);
  Function *F = C->findFunction("main");
  F->findBlock("body")->insertAt(0, Opcode::Nop);
  EXPECT_NE(M->toString(), C->toString());
  // The map covers every block.
  EXPECT_EQ(Map.Blocks.size(), 4u);
}

TEST(Parser, RoundTripsBuilderOutput) {
  auto M = buildLoopModule();
  std::string Text = M->toString();
  ParseResult R = parseModule(Text);
  ASSERT_TRUE(R.succeeded()) << R.Error;
  EXPECT_EQ(R.M->toString(), Text);
}

TEST(Parser, ParsesFloatsGlobalsAndCalls) {
  const char *Text = R"(
global @buf 8 = {1, 2, 3}

func @f(1) {
entry:
  r1 = fadd r0, 2.5
  r2 = ftoi r1
  ret r2
}

func @main(0) {
entry:
  r0 = call @f(0.5)
  r1 = load @buf
  r2 = add r0, r1
  ret r2
}
)";
  ParseResult R = parseModule(Text);
  ASSERT_TRUE(R.succeeded()) << R.Error;
  EXPECT_EQ(verifyModule(*R.M), "");
  // Round-trip through the printer once more.
  ParseResult R2 = parseModule(R.M->toString());
  ASSERT_TRUE(R2.succeeded()) << R2.Error;
  EXPECT_EQ(R2.M->toString(), R.M->toString());
}

TEST(Parser, ReportsUnknownOpcode) {
  ParseResult R = parseModule("func @f(0) {\nentry:\n  frobnicate r1\n}\n");
  EXPECT_FALSE(R.succeeded());
  EXPECT_NE(R.Error.find("unknown opcode"), std::string::npos);
}

TEST(Parser, RejectsFence) {
  // HELIX targets a TSO machine (Section 2.3): Signal/Wait need no memory
  // barrier, so the IR has no fence instruction.
  ParseResult R = parseModule("func @f(0) {\nentry:\n  fence\n  ret\n}\n");
  EXPECT_FALSE(R.succeeded());
  EXPECT_NE(R.Error.find("unknown opcode 'fence'"), std::string::npos)
      << R.Error;
}

TEST(Parser, ReportsUnknownLabel) {
  ParseResult R = parseModule("func @f(0) {\nentry:\n  br nowhere\n}\n");
  EXPECT_FALSE(R.succeeded());
}

TEST(Parser, ReportsDuplicateFunction) {
  ParseResult R = parseModule(
      "func @f(0) {\nentry:\n  ret\n}\nfunc @f(0) {\nentry:\n  ret\n}\n");
  EXPECT_FALSE(R.succeeded());
}

TEST(Parser, SyncOpsRoundTrip) {
  const char *Text = "func @f(0) {\nentry:\n  wait 3\n  signal 3\n"
                     "  iterstart\n  ret\n}\n";
  ParseResult R = parseModule(Text);
  ASSERT_TRUE(R.succeeded()) << R.Error;
  Function *F = R.M->findFunction("f");
  EXPECT_EQ(F->entry()->instr(0)->opcode(), Opcode::Wait);
  EXPECT_EQ(F->entry()->instr(0)->imm(), 3);
  EXPECT_EQ(F->entry()->instr(1)->opcode(), Opcode::SignalOp);
}

} // namespace
