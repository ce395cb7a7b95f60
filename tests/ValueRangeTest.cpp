//===----------------------------------------------------------------------===//
///
/// Unit tests for the value-range / congruence domain (analysis/ValueRange)
/// and its fixpoint over real loops: lattice laws the dependence pruning
/// leans on (join is an upper bound, widening only ever grows), congruence
/// arithmetic, overflow saturation, and run-to-run determinism.
///
//===----------------------------------------------------------------------===//

#include "analysis/AnalysisManager.h"
#include "analysis/ValueRange.h"
#include "ir/IRParser.h"

#include <gtest/gtest.h>

using namespace helix;

namespace {

std::unique_ptr<Module> parse(const char *Text) {
  ParseResult R = parseModule(Text);
  EXPECT_TRUE(R.succeeded()) << R.Error;
  return std::move(R.M);
}

/// Concrete membership for base-less facts: the property-test oracle.
bool contains(const ValueFact &F, int64_t V) {
  if (F.Bottom || F.BaseKind != ValueFact::Base::None)
    return false;
  if (F.Lo != INT64_MIN && V < F.Lo)
    return false;
  if (F.Hi != INT64_MAX && V > F.Hi)
    return false;
  if (F.Mod == 0)
    return V == F.Rem;
  if (F.Mod == 1)
    return true;
  int64_t R = V % int64_t(F.Mod);
  if (R < 0)
    R += int64_t(F.Mod);
  return R == F.Rem;
}

ValueFact fact(int64_t Lo, int64_t Hi, uint64_t Mod, int64_t Rem) {
  ValueFact F = ValueFact::top();
  F.Lo = Lo;
  F.Hi = Hi;
  F.Mod = Mod;
  F.Rem = Rem;
  return F;
}

TEST(ValueFact, JoinIsUpperBoundOnSamples) {
  const ValueFact Samples[] = {
      ValueFact::constant(0),  ValueFact::constant(-7),
      fact(0, 63, 1, 0),       fact(0, 63, 2, 0),
      fact(10, 100, 4, 3),     fact(-50, -10, 6, 5),
      fact(INT64_MIN, 5, 1, 0)};
  for (const ValueFact &A : Samples)
    for (const ValueFact &B : Samples) {
      ValueFact J = ValueFact::join(A, B);
      // Every concrete member of A and of B stays a member of the join.
      for (int64_t V = -60; V <= 110; ++V) {
        if (contains(A, V)) {
          EXPECT_TRUE(contains(J, V)) << "join lost " << V;
        }
        if (contains(B, V)) {
          EXPECT_TRUE(contains(J, V)) << "join lost " << V;
        }
      }
      // Join is commutative.
      EXPECT_EQ(J, ValueFact::join(B, A));
    }
}

TEST(ValueFact, JoinBottomAndBaseRules) {
  ValueFact C = ValueFact::constant(5);
  EXPECT_EQ(ValueFact::join(ValueFact::bottom(), C), C);
  EXPECT_EQ(ValueFact::join(C, ValueFact::bottom()), C);
  // Different bases lose everything.
  ValueFact GA = ValueFact::baseOnly(ValueFact::Base::Global, 0);
  ValueFact GB = ValueFact::baseOnly(ValueFact::Base::Global, 1);
  EXPECT_TRUE(ValueFact::join(GA, GB).isTop());
  // Same base keeps the base and hulls the offsets.
  ValueFact GA2 = GA;
  GA2.Lo = GA2.Hi = GA2.Rem = 8;
  ValueFact J = ValueFact::join(GA, GA2);
  EXPECT_EQ(J.BaseKind, ValueFact::Base::Global);
  EXPECT_EQ(J.Lo, 0);
  EXPECT_EQ(J.Hi, 8);
}

TEST(ValueFact, CongruenceJoinIsGcd) {
  // 5 (mod 12) ⊔ 11 (mod 18): gcd(12, 18, |5-11|) = 6 → 5 (mod 6).
  ValueFact J = ValueFact::join(fact(0, 100, 12, 5), fact(0, 100, 18, 11));
  EXPECT_EQ(J.Mod, 6u);
  EXPECT_EQ(J.Rem, 5);
  // Two equal singletons stay a singleton.
  ValueFact S = ValueFact::join(ValueFact::constant(9), ValueFact::constant(9));
  EXPECT_EQ(S.Mod, 0u);
  EXPECT_EQ(S.Rem, 9);
  // Distinct singletons become their difference's residue class.
  ValueFact D = ValueFact::join(ValueFact::constant(3), ValueFact::constant(9));
  EXPECT_EQ(D.Mod, 6u);
  EXPECT_EQ(D.Rem, 3);
}

TEST(ValueFact, AddSubMulCongruenceArithmetic) {
  // (1 mod 4) + (5 mod 6) = 0 (mod gcd(4,6)=2), interval sums.
  ValueFact A = ValueFact::add(fact(0, 100, 4, 1), fact(0, 10, 6, 5));
  EXPECT_EQ(A.Lo, 0);
  EXPECT_EQ(A.Hi, 110);
  EXPECT_EQ(A.Mod, 2u);
  EXPECT_EQ(A.Rem, 0);
  // 3 * (1 mod 4) = 3 (mod 12), interval scales.
  ValueFact Mu = ValueFact::mul(ValueFact::constant(3), fact(0, 10, 4, 1));
  EXPECT_EQ(Mu.Lo, 0);
  EXPECT_EQ(Mu.Hi, 30);
  EXPECT_EQ(Mu.Mod, 12u);
  EXPECT_EQ(Mu.Rem, 3);
  // Pointer difference: same base cancels to a plain interval.
  ValueFact P = ValueFact::baseOnly(ValueFact::Base::Global, 2);
  ValueFact Q = P;
  Q.Lo = Q.Hi = Q.Rem = 5;
  ValueFact Diff = ValueFact::sub(Q, P);
  EXPECT_EQ(Diff.BaseKind, ValueFact::Base::None);
  EXPECT_EQ(Diff.Lo, 5);
  EXPECT_EQ(Diff.Hi, 5);
  // Two based operands cannot add; scaling a pointer drops everything.
  EXPECT_TRUE(ValueFact::add(P, P).isTop());
  EXPECT_TRUE(ValueFact::mul(ValueFact::constant(2), P).isTop());
}

TEST(ValueFact, OverflowSaturates) {
  // Finite-bound arithmetic that overflows demotes to top, never wraps.
  EXPECT_TRUE(
      ValueFact::add(ValueFact::constant(INT64_MAX), ValueFact::constant(1))
          .isTop());
  EXPECT_TRUE(
      ValueFact::sub(ValueFact::constant(INT64_MIN), ValueFact::constant(1))
          .isTop());
  EXPECT_TRUE(ValueFact::mul(ValueFact::constant(INT64_MAX),
                             ValueFact::constant(2))
                  .isTop());
  // Infinite ends absorb: [0, +inf] + 5 keeps the infinite end.
  ValueFact Inf = fact(0, INT64_MAX, 1, 0);
  ValueFact R = ValueFact::add(Inf, ValueFact::constant(5));
  EXPECT_EQ(R.Lo, 5);
  EXPECT_EQ(R.Hi, INT64_MAX);
}

TEST(ValueFact, WrapNormalizationKeepsPow2Congruence) {
  // Widening to an infinite end may not keep a mod-12 residue (runtime
  // wraps mod 2^64); only the power-of-two part 4 survives.
  ValueFact Old = fact(0, 24, 12, 0);
  ValueFact New = fact(0, 36, 12, 0);
  ValueFact W = ValueFact::widen(Old, New, /*StrideDir=*/1);
  EXPECT_EQ(W.Hi, INT64_MAX);
  EXPECT_EQ(W.Lo, 0); // positive stride never widens the lower bound
  EXPECT_EQ(W.Mod, 4u);
  EXPECT_EQ(W.Rem, 0);
}

TEST(ValueFact, WidenIsUpperBoundAndStrideDirected) {
  ValueFact Old = fact(0, 10, 2, 0);
  ValueFact New = fact(0, 12, 2, 0);
  // Widening covers the join (it is an upper bound of both inputs).
  for (int Dir : {-1, 0, 1}) {
    ValueFact W = ValueFact::widen(Old, New, Dir);
    ValueFact J = ValueFact::join(Old, New);
    for (int64_t V = -5; V <= 20; ++V) {
      if (contains(J, V)) {
        EXPECT_TRUE(contains(W, V));
      }
    }
  }
  // A stable fact is returned unchanged — no infinite widening chains.
  EXPECT_EQ(ValueFact::widen(Old, Old, 0), Old);
  // Only the moving bound jumps; a negative stride protects the upper end.
  ValueFact Down = fact(-12, 10, 1, 0);
  ValueFact W = ValueFact::widen(fact(-10, 10, 1, 0), Down, -1);
  EXPECT_EQ(W.Lo, INT64_MIN);
  EXPECT_EQ(W.Hi, 10);
}

TEST(ValueFact, DisjointOffsets) {
  // Disjoint intervals never collide.
  EXPECT_TRUE(ValueFact::disjointOffsets(fact(0, 63, 1, 0),
                                         fact(64, 127, 1, 0)));
  // Overlapping intervals, incompatible residues mod 2: never collide.
  EXPECT_TRUE(ValueFact::disjointOffsets(fact(0, 63, 2, 0),
                                         fact(0, 63, 2, 1)));
  // Overlapping intervals, same residue class: may collide.
  EXPECT_FALSE(ValueFact::disjointOffsets(fact(0, 63, 2, 0),
                                          fact(32, 90, 2, 0)));
  EXPECT_FALSE(ValueFact::disjointOffsets(fact(0, 63, 1, 0),
                                          fact(63, 70, 1, 0)));
  // Distinct constants are distinct.
  EXPECT_TRUE(ValueFact::disjointOffsets(ValueFact::constant(3),
                                         ValueFact::constant(4)));
}

//===----------------------------------------------------------------------===//
// Fixpoint over real loops
//===----------------------------------------------------------------------===//

const char *StridedLoop = R"(
global @a 64

func @main(0) {
entry:
  r0 = mov 0
  br hdr
hdr:
  r1 = cmplt r0, 64
  condbr r1, body, exit
body:
  r2 = add @a, r0
  r3 = load r2
  r0 = add r0, 2
  br hdr
exit:
  ret 0
}
)";

TEST(ValueRange, InductionVariableKeepsStrideAndBounds) {
  auto M = parse(StridedLoop);
  Function *F = M->findFunction("main");
  AnalysisManager AM(*M);
  ValueRangeAnalysis &VR = AM.get<ValueRangeAnalysis>(F);
  // i = 0; i < 64; i += 2 — at body entry the guard has fired: i in
  // [0, 63] and even. Stride-directed widening must not lose the zero
  // lower bound; branch refinement recovers the upper bound.
  ValueFact I = VR.factAtEntry(F->findBlock("body"), 0);
  ASSERT_FALSE(I.Bottom);
  EXPECT_EQ(I.BaseKind, ValueFact::Base::None);
  EXPECT_EQ(I.Lo, 0);
  EXPECT_LE(I.Hi, 63);
  EXPECT_EQ(I.Mod, 2u);
  EXPECT_EQ(I.Rem, 0);
  // The derived address is @a plus that interval.
  const BasicBlock *Body = F->findBlock("body");
  const Instruction *Load = nullptr;
  for (const Instruction *In : *Body)
    if (In->opcode() == Opcode::Load)
      Load = In;
  ASSERT_NE(Load, nullptr);
  ValueFact Addr = VR.factFor(Load, Load->operand(0));
  EXPECT_EQ(Addr.BaseKind, ValueFact::Base::Global);
  EXPECT_EQ(Addr.BaseId, 0u);
  EXPECT_EQ(Addr.Lo, 0);
  EXPECT_LE(Addr.Hi, 63);
  EXPECT_EQ(Addr.Mod, 2u);
}

TEST(ValueRange, DeterministicAcrossRebuilds) {
  auto M1 = parse(StridedLoop);
  auto M2 = parse(StridedLoop);
  Function *F1 = M1->findFunction("main");
  Function *F2 = M2->findFunction("main");
  AnalysisManager AM1(*M1), AM2(*M2);
  ValueRangeAnalysis &V1 = AM1.get<ValueRangeAnalysis>(F1);
  ValueRangeAnalysis &V2 = AM2.get<ValueRangeAnalysis>(F2);
  EXPECT_EQ(V1.sweepCount(), V2.sweepCount());
  for (const BasicBlock *BB : *F1) {
    const BasicBlock *Other = F2->findBlock(BB->name());
    ASSERT_NE(Other, nullptr);
    for (unsigned R = 0; R < 8; ++R)
      EXPECT_EQ(V1.factAtEntry(BB, R), V2.factAtEntry(Other, R))
          << BB->name() << " r" << R;
  }
}

} // namespace
