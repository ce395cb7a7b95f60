//===----------------------------------------------------------------------===//
///
/// \file
/// Interpreter semantics: arithmetic (parameterized over opcodes), memory,
/// calls, allocation, error handling and cost accounting.
///
//===----------------------------------------------------------------------===//

#include "ir/IRBuilder.h"
#include "ir/IRParser.h"
#include "sim/Interpreter.h"

#include <gtest/gtest.h>

using namespace helix;

namespace {

int64_t evalBinary(Opcode Op, int64_t A, int64_t B) {
  Module M;
  Function *F = M.createFunction("main", 0);
  IRBuilder Builder(F);
  BasicBlock *Entry = F->createBlock("entry");
  Builder.setInsertPoint(Entry);
  unsigned R = Builder.binary(Op, Operand::immInt(A), Operand::immInt(B));
  Builder.ret(Operand::reg(R));
  Interpreter I(M);
  ExecResult Res = I.run();
  EXPECT_TRUE(Res.Ok) << Res.Error;
  return Res.ReturnValue.asInt();
}

struct BinCase {
  Opcode Op;
  int64_t A, B, Expected;
};

class BinarySemantics : public ::testing::TestWithParam<BinCase> {};

TEST_P(BinarySemantics, Evaluates) {
  const BinCase &C = GetParam();
  EXPECT_EQ(evalBinary(C.Op, C.A, C.B), C.Expected);
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, BinarySemantics,
    ::testing::Values(
        BinCase{Opcode::Add, 40, 2, 42}, BinCase{Opcode::Add, -1, 1, 0},
        BinCase{Opcode::Sub, 10, 30, -20}, BinCase{Opcode::Mul, -6, 7, -42},
        BinCase{Opcode::Div, 7, 2, 3}, BinCase{Opcode::Div, -7, 2, -3},
        BinCase{Opcode::Rem, 7, 3, 1}, BinCase{Opcode::Rem, -7, 3, -1},
        BinCase{Opcode::And, 12, 10, 8}, BinCase{Opcode::Or, 12, 10, 14},
        BinCase{Opcode::Xor, 12, 10, 6}, BinCase{Opcode::Shl, 1, 10, 1024},
        BinCase{Opcode::Shr, 1024, 3, 128},
        BinCase{Opcode::CmpEQ, 3, 3, 1}, BinCase{Opcode::CmpEQ, 3, 4, 0},
        BinCase{Opcode::CmpNE, 3, 4, 1}, BinCase{Opcode::CmpLT, -2, 1, 1},
        BinCase{Opcode::CmpLE, 1, 1, 1}, BinCase{Opcode::CmpGT, 2, 1, 1},
        BinCase{Opcode::CmpGE, 1, 2, 0}));

TEST(Interpreter, FloatArithmeticAndConversion) {
  const char *Text = R"(
func @main(0) {
entry:
  r0 = itof 3
  r1 = fmul r0, 2.5
  r2 = fadd r1, 0.5
  r3 = ftoi r2
  ret r3
}
)";
  ParseResult P = parseModule(Text);
  ASSERT_TRUE(P.succeeded()) << P.Error;
  Interpreter I(*P.M);
  ExecResult R = I.run();
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.ReturnValue.asInt(), 8); // 3*2.5+0.5 = 8.0
}

TEST(Interpreter, GlobalsAreInitialized) {
  const char *Text = R"(
global @g 4 = {10, 20, 30}

func @main(0) {
entry:
  r0 = add @g, 1
  r1 = load r0
  r2 = add @g, 3
  r3 = load r2
  r4 = add r1, r3
  ret r4
}
)";
  ParseResult P = parseModule(Text);
  ASSERT_TRUE(P.succeeded()) << P.Error;
  Interpreter I(*P.M);
  ExecResult R = I.run();
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.ReturnValue.asInt(), 20); // g[1] + g[3] = 20 + 0
}

TEST(Interpreter, CallsAndRecursion) {
  const char *Text = R"(
func @fib(1) {
entry:
  r1 = cmplt r0, 2
  condbr r1, base, rec
base:
  ret r0
rec:
  r2 = sub r0, 1
  r3 = call @fib(r2)
  r4 = sub r0, 2
  r5 = call @fib(r4)
  r6 = add r3, r5
  ret r6
}

func @main(0) {
entry:
  r0 = call @fib(10)
  ret r0
}
)";
  ParseResult P = parseModule(Text);
  ASSERT_TRUE(P.succeeded()) << P.Error;
  Interpreter I(*P.M);
  ExecResult R = I.run();
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.ReturnValue.asInt(), 55);
}

TEST(Interpreter, AllocaIsFreshPerExecution) {
  // Calling a function twice must give each activation fresh stack slots.
  const char *Text = R"(
func @write(1) {
entry:
  r1 = alloca 2
  store r0, r1
  r2 = load r1
  ret r2
}

func @main(0) {
entry:
  r0 = call @write(7)
  r1 = call @write(9)
  r2 = add r0, r1
  ret r2
}
)";
  ParseResult P = parseModule(Text);
  ASSERT_TRUE(P.succeeded()) << P.Error;
  Interpreter I(*P.M);
  ExecResult R = I.run();
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.ReturnValue.asInt(), 16);
}

TEST(Interpreter, HeapAllocGivesDisjointBlocks) {
  const char *Text = R"(
func @main(0) {
entry:
  r0 = halloc 4
  r1 = halloc 4
  store 5, r0
  store 7, r1
  r2 = load r0
  r3 = load r1
  r4 = add r2, r3
  ret r4
}
)";
  ParseResult P = parseModule(Text);
  ASSERT_TRUE(P.succeeded()) << P.Error;
  Interpreter I(*P.M);
  ExecResult R = I.run();
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.ReturnValue.asInt(), 12);
}

TEST(Interpreter, DivisionByZeroFails) {
  ParseResult P = parseModule(
      "func @main(0) {\nentry:\n  r0 = div 1, 0\n  ret r0\n}\n");
  ASSERT_TRUE(P.succeeded());
  Interpreter I(*P.M);
  ExecResult R = I.run();
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("division"), std::string::npos);
}

TEST(Interpreter, NullLoadFails) {
  ParseResult P = parseModule(
      "func @main(0) {\nentry:\n  r0 = load 0\n  ret r0\n}\n");
  ASSERT_TRUE(P.succeeded());
  Interpreter I(*P.M);
  ExecResult R = I.run();
  EXPECT_FALSE(R.Ok);
}

TEST(Interpreter, InstructionBudgetStopsRunaway) {
  ParseResult P =
      parseModule("func @main(0) {\nentry:\n  br entry\n}\n");
  ASSERT_TRUE(P.succeeded());
  Interpreter I(*P.M);
  I.setMaxInstructions(1000);
  ExecResult R = I.run();
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("budget"), std::string::npos);
}

TEST(Interpreter, SyncOpsAreSequentialNoOps) {
  const char *Text = "func @main(0) {\nentry:\n  wait 0\n  signal 0\n"
                     "  iterstart\n  ret 99\n}\n";
  ParseResult P = parseModule(Text);
  ASSERT_TRUE(P.succeeded()) << P.Error;
  Interpreter I(*P.M);
  ExecResult R = I.run();
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.ReturnValue.asInt(), 99);
}

TEST(Interpreter, CycleAccountingIsPositiveAndMonotone) {
  ParseResult P = parseModule(
      "func @main(0) {\nentry:\n  r0 = mul 3, 4\n  ret r0\n}\n");
  ASSERT_TRUE(P.succeeded());
  Interpreter I(*P.M);
  ExecResult R = I.run();
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(R.Instructions, 2u);
  EXPECT_GE(R.Cycles, R.Instructions); // every op costs >= 1 cycle
}

TEST(Interpreter, ObserverSeesEveryInstruction) {
  struct Counter : ExecObserver {
    unsigned Instrs = 0, Edges = 0;
    void onInstruction(const Instruction *, unsigned,
                       ExecState &) override {
      ++Instrs;
    }
    void onEdge(const BasicBlock *, const BasicBlock *,
                ExecState &) override {
      ++Edges;
    }
  };
  ParseResult P = parseModule("func @main(0) {\nentry:\n  r0 = mov 1\n"
                              "  br next\nnext:\n  ret r0\n}\n");
  ASSERT_TRUE(P.succeeded());
  Counter Obs;
  Interpreter I(*P.M);
  I.setObserver(&Obs);
  ExecResult R = I.run();
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(Obs.Instrs, 3u);
  EXPECT_EQ(Obs.Edges, 1u);
}

} // namespace
