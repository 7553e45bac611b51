//===- tests/core/ComponentsTest.cpp --------------------------------------------===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//
///
/// Unit tests for the individual core components: the model adapter
/// (Definition 3.1 / 4.1), normalization (N rules, Lemma 4.2),
/// well-formedness consequences (W rules) and their scoping to the
/// edges of the terms each rule reads, and the unfolding walk (U rules
/// + SR, Lemma 4.4) — each exercised in isolation.
///
//===----------------------------------------------------------------------===//

#include "core/ModelAdapter.h"
#include "core/Normalization.h"
#include "core/Unfolding.h"
#include "superposition/Saturation.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

using namespace slp;
using namespace slp::core;

namespace {

class ComponentsTest : public ::testing::Test {
protected:
  SymbolTable Symbols;
  TermTable Terms{Symbols};
  KBO Ord;

  const Term *T(const char *N) { return Terms.constant(N); }

  /// The W consequences of \p C under the empty model (nothing to
  /// normalize, so no residue).
  std::vector<PureInput> wConsequences(const PosSpatialClause &C) {
    sup::Saturation Sat(Terms, Ord);
    GroundRewriteSystem R(Terms);
    return normalizeWithConsequences(Terms, Sat, R, C).WConsequences;
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// ModelAdapter
//===----------------------------------------------------------------------===//

TEST_F(ComponentsTest, InducedStackSeparatesClasses) {
  GroundRewriteSystem R(Terms);
  R.addRule(T("b"), T("a"), 0); // b ~ a.
  std::vector<const Term *> Cs{Terms.nil(), T("a"), T("b"), T("c")};
  sl::Stack S = inducedStack(R, Cs);
  EXPECT_EQ(S.eval(T("a")), S.eval(T("b")));
  EXPECT_NE(S.eval(T("a")), S.eval(T("c")));
  EXPECT_NE(S.eval(T("a")), sl::NilLoc);
  EXPECT_EQ(S.eval(Terms.nil()), sl::NilLoc);
}

TEST_F(ComponentsTest, InducedStackSendsNilClassToNil) {
  GroundRewriteSystem R(Terms);
  R.addRule(T("a"), Terms.nil(), 0);
  std::vector<const Term *> Cs{Terms.nil(), T("a"), T("b")};
  sl::Stack S = inducedStack(R, Cs);
  EXPECT_EQ(S.eval(T("a")), sl::NilLoc);
  EXPECT_NE(S.eval(T("b")), sl::NilLoc);
}

TEST_F(ComponentsTest, GraphHeapOneEdgePerAtom) {
  GroundRewriteSystem R(Terms);
  std::vector<const Term *> Cs{Terms.nil(), T("x"), T("y"), T("z")};
  sl::Stack S = inducedStack(R, Cs);
  sl::SpatialFormula Sigma{sl::HeapAtom::lseg(T("x"), T("y")),
                           sl::HeapAtom::next(T("y"), T("z"))};
  sl::Heap H = graphHeap(S, Sigma);
  EXPECT_EQ(H.size(), 2u);
  EXPECT_EQ(H.get(S.eval(T("x"))), S.eval(T("y")));
  EXPECT_EQ(H.get(S.eval(T("y"))), S.eval(T("z")));
  // The graph heap satisfies Σ (Lemma 4.1(3)).
  EXPECT_TRUE(sl::satisfies(S, H, Sigma));
}

//===----------------------------------------------------------------------===//
// Normalization (N rules)
//===----------------------------------------------------------------------===//

TEST_F(ComponentsTest, NormalizationRewritesAndDropsTrivial) {
  // Saturate { [] -> b ' a } so the model has an edge with a
  // generating clause, then normalize lseg(a, b) * next(b, c).
  // Intern in a fixed order so the precedence (and thus the rewrite
  // direction b => a) is deterministic.
  const Term *A = T("a");
  const Term *B = T("b");
  (void)A;
  (void)B;
  sup::Saturation Sat(Terms, Ord);
  Sat.addInput({}, {sup::Equation(T("a"), T("b"))});
  Fuel F;
  ASSERT_EQ(Sat.saturate(F), sup::SatResult::Saturated);
  GroundRewriteSystem R = Sat.genModel();
  ASSERT_EQ(R.size(), 1u);

  PosSpatialClause C;
  C.Sigma = {sl::HeapAtom::lseg(T("a"), T("b")),
             sl::HeapAtom::next(T("b"), T("c"))};
  PosSpatialClause N = normalizeWithConsequences(Terms, Sat, R, C).C;
  // lseg(a, b) became trivial and vanished; b rewrote to a.
  ASSERT_EQ(N.Sigma.size(), 1u);
  EXPECT_TRUE(N.Sigma[0].isNext());
  EXPECT_EQ(N.Sigma[0].Addr, T("a"));
  EXPECT_EQ(N.Sigma[0].Val, T("c"));
  // The generating clause was a unit, so no residue accumulates.
  EXPECT_TRUE(N.Neg.empty());
  EXPECT_TRUE(N.Pos.empty());
}

TEST_F(ComponentsTest, NormalizationAccumulatesResidue) {
  // [] -> a'b, a'c: whichever disjunct generates the edge leaves the
  // other as residue in the normalized clause (rule N1's ∆').
  const Term *A0 = T("a");
  const Term *B0 = T("b");
  const Term *C0 = T("c");
  (void)A0;
  (void)B0;
  (void)C0;
  sup::Saturation Sat(Terms, Ord);
  Sat.addInput({}, {sup::Equation(T("a"), T("b")),
                    sup::Equation(T("a"), T("c"))});
  Fuel F;
  ASSERT_EQ(Sat.saturate(F), sup::SatResult::Saturated);
  GroundRewriteSystem R = Sat.genModel();
  ASSERT_EQ(R.size(), 1u);

  PosSpatialClause C;
  C.Sigma = {sl::HeapAtom::lseg(T("a"), T("b")),
             sl::HeapAtom::lseg(T("a"), T("c"))};
  PosSpatialClause N = normalizeWithConsequences(Terms, Sat, R, C).C;
  ASSERT_EQ(N.Sigma.size(), 1u); // One lseg became trivial.
  ASSERT_EQ(N.Pos.size(), 1u);   // The other disjunct is the residue.
  EXPECT_TRUE(N.Neg.empty());
}

TEST_F(ComponentsTest, NormalizationOfNegativeClause) {
  const Term *A = T("a");
  const Term *B = T("b");
  (void)A;
  (void)B;
  sup::Saturation Sat(Terms, Ord);
  Sat.addInput({}, {sup::Equation(T("a"), T("b"))});
  Fuel F;
  ASSERT_EQ(Sat.saturate(F), sup::SatResult::Saturated);
  GroundRewriteSystem R = Sat.genModel();

  NegSpatialClause C;
  C.Sigma = {sl::HeapAtom::lseg(T("b"), T("c"))};
  NegSpatialClause N = normalize(Sat, R, C);
  ASSERT_EQ(N.Sigma.size(), 1u);
  EXPECT_EQ(N.Sigma[0].Addr, T("a"));
}

//===----------------------------------------------------------------------===//
// Well-formedness (W rules)
//===----------------------------------------------------------------------===//

TEST_F(ComponentsTest, W1NextAtNil) {
  PosSpatialClause C;
  C.Sigma = {sl::HeapAtom::next(Terms.nil(), T("y"))};
  auto Out = wConsequences(C);
  ASSERT_EQ(Out.size(), 1u);
  EXPECT_TRUE(Out[0].Neg.empty());
  EXPECT_TRUE(Out[0].Pos.empty()); // The empty clause: Σ unsatisfiable.
  EXPECT_NE(Out[0].Label.find("W1"), std::string::npos);
}

TEST_F(ComponentsTest, W2LsegAtNil) {
  PosSpatialClause C;
  C.Sigma = {sl::HeapAtom::lseg(Terms.nil(), T("y"))};
  auto Out = wConsequences(C);
  ASSERT_EQ(Out.size(), 1u);
  ASSERT_EQ(Out[0].Pos.size(), 1u); // y ' nil.
  EXPECT_TRUE(Out[0].Pos[0].mentions(T("y")));
  EXPECT_NE(Out[0].Label.find("W2"), std::string::npos);
}

TEST_F(ComponentsTest, W3W4W5SharedAddresses) {
  const Term *X = T("x"), *Y = T("y"), *Z = T("z");
  {
    PosSpatialClause C;
    C.Sigma = {sl::HeapAtom::next(X, Y), sl::HeapAtom::next(X, Z)};
    auto Out = wConsequences(C);
    ASSERT_EQ(Out.size(), 1u);
    EXPECT_TRUE(Out[0].Pos.empty()); // W3: contradiction.
  }
  {
    PosSpatialClause C;
    C.Sigma = {sl::HeapAtom::next(X, Y), sl::HeapAtom::lseg(X, Z)};
    auto Out = wConsequences(C);
    ASSERT_EQ(Out.size(), 1u);
    ASSERT_EQ(Out[0].Pos.size(), 1u); // W4: x ' z.
    EXPECT_EQ(Out[0].Pos[0], sup::Equation(X, Z));
  }
  {
    PosSpatialClause C;
    C.Sigma = {sl::HeapAtom::lseg(X, Y), sl::HeapAtom::lseg(X, Z)};
    auto Out = wConsequences(C);
    ASSERT_EQ(Out.size(), 1u);
    EXPECT_EQ(Out[0].Pos.size(), 2u); // W5: x ' y, x ' z.
  }
}

TEST_F(ComponentsTest, WRulesCarryClausePureParts) {
  PosSpatialClause C;
  C.Neg = {sup::Equation(T("p"), T("q"))};
  C.Pos = {sup::Equation(T("r"), T("s"))};
  C.Sigma = {sl::HeapAtom::next(T("x"), T("y")),
             sl::HeapAtom::next(T("x"), T("z"))};
  auto Out = wConsequences(C);
  ASSERT_EQ(Out.size(), 1u);
  EXPECT_EQ(Out[0].Neg, C.Neg);
  EXPECT_EQ(Out[0].Pos, C.Pos);
}

TEST_F(ComponentsTest, WellFormedCleanSigmaNoConsequences) {
  PosSpatialClause C;
  C.Sigma = {sl::HeapAtom::next(T("x"), T("y")),
             sl::HeapAtom::lseg(T("y"), T("z"))};
  EXPECT_TRUE(wConsequences(C).empty());
  EXPECT_TRUE(isWellFormed(C.Sigma));
  C.Sigma.push_back(sl::HeapAtom::next(T("x"), T("w")));
  EXPECT_FALSE(isWellFormed(C.Sigma));
}

TEST_F(ComponentsTest, WConsequencesCarryOnlyTheEdgesTheyRead) {
  // Four edges, each generated by a clause with its own residue:
  //   b => a (residue p1 ' q1), y => x (g ' h in Γ'),
  //   d => c (residue p2 ' q2), w => v (residue p3 ' q3).
  // Σ = next(b, y) * next(a, z) * next(d, u) * lseg(c, w) normalizes
  // to a W3 pair at a and a W4 pair at c; each W clause must carry the
  // residue of its own address edges (and the lseg's value edge for
  // W4), not that of the unrelated pair or of next(b, y)'s value.
  const Term *A = T("a"), *B = T("b"), *C0 = T("c"), *D = T("d");
  const Term *X = T("x"), *Y = T("y"), *V = T("v"), *W = T("w");
  const Term *Z = T("z"), *U = T("u");
  sup::Equation P1(T("p1"), T("q1")), P2(T("p2"), T("q2")),
      P3(T("p3"), T("q3")), G(T("g"), T("h"));
  sup::Saturation Sat(Terms, Ord);
  GroundRewriteSystem R(Terms);
  auto Edge = [&](const Term *Lhs, const Term *Rhs,
                  std::vector<sup::Equation> Neg,
                  std::vector<sup::Equation> Residue) {
    Residue.push_back(sup::Equation(Lhs, Rhs));
    auto [Id, New] = Sat.addInput(std::move(Neg), std::move(Residue));
    ASSERT_TRUE(New);
    R.addRule(Lhs, Rhs, Id);
  };
  Edge(B, A, {}, {P1});
  Edge(Y, X, {G}, {});
  Edge(D, C0, {}, {P2});
  Edge(W, V, {}, {P3});

  PosSpatialClause C;
  C.Sigma = {sl::HeapAtom::next(B, Y), sl::HeapAtom::next(A, Z),
             sl::HeapAtom::next(D, U), sl::HeapAtom::lseg(C0, W)};
  NormalizedPos N = normalizeWithConsequences(Terms, Sat, R, C);

  // The normalized clause still carries every edge's residue.
  auto Sorted = [](std::vector<sup::Equation> Es) {
    std::sort(Es.begin(), Es.end());
    return Es;
  };
  EXPECT_EQ(N.C.Neg, std::vector<sup::Equation>{G});
  EXPECT_EQ(N.C.Pos, Sorted({P1, P2, P3}));

  ASSERT_EQ(N.WConsequences.size(), 2u);
  const PureInput &W3 = N.WConsequences[0];
  EXPECT_EQ(W3.Label.rfind("W3", 0), 0u);
  EXPECT_TRUE(W3.Neg.empty()); // y => x is a value edge: not read.
  EXPECT_EQ(W3.Pos, std::vector<sup::Equation>{P1});

  const PureInput &W4 = N.WConsequences[1];
  EXPECT_EQ(W4.Label.rfind("W4", 0), 0u);
  EXPECT_TRUE(W4.Neg.empty());
  std::vector<sup::Equation> Expected = Sorted({P2, P3});
  Expected.push_back(sup::Equation(C0, V)); // The lseg must be empty.
  EXPECT_EQ(W4.Pos, Expected);
}

TEST_F(ComponentsTest, ScopedWConsequencesRefineTheUnscopedRules) {
  // Random Σ and random edges with residue: the scoped pass must fire
  // the same (rule, atom pair) sequence as W1-W5 applied to the whole
  // normalized clause, and each scoped Γ/∆ must be a subset of the
  // unscoped one.
  std::mt19937 Rng(20261022);
  std::vector<const Term *> Cs{Terms.nil()};
  for (const char *N : {"c1", "c2", "c3", "c4", "c5", "c6", "c7"})
    Cs.push_back(T(N));
  // Γ' residue from one pool and ∆' residue from another, so no
  // generating clause is a tautology.
  std::vector<const Term *> NegPool{T("r0"), T("r1"), T("r2")};
  std::vector<const Term *> PosPool{T("r3"), T("r4"), T("r5"), T("r6")};
  auto Pick = [&](size_t N) {
    return std::uniform_int_distribution<size_t>(0, N - 1)(Rng);
  };
  auto RandomEq = [&](const std::vector<const Term *> &Pool) {
    size_t I = Pick(Pool.size()), J = Pick(Pool.size() - 1);
    return sup::Equation(Pool[I], Pool[J < I ? J : J + 1]);
  };
  auto Contains = [](const std::vector<sup::Equation> &Es,
                     const sup::Equation &E) {
    return std::find(Es.begin(), Es.end(), E) != Es.end();
  };

  size_t Fired = 0, Narrowed = 0;
  for (unsigned Trial = 0; Trial != 400; ++Trial) {
    sup::Saturation Sat(Terms, Ord);
    GroundRewriteSystem R(Terms);
    // Each rule rewrites toward a smaller index, so R terminates.
    for (size_t I = 1; I != Cs.size(); ++I) {
      if (Pick(10) < 4)
        continue;
      const Term *Rhs = Cs[Pick(I)];
      std::vector<sup::Equation> Neg, Pos{sup::Equation(Cs[I], Rhs)};
      if (Pick(3) == 0)
        Neg.push_back(RandomEq(NegPool));
      for (size_t K = Pick(3); K != 0; --K)
        Pos.push_back(RandomEq(PosPool));
      auto [Id, New] = Sat.addInput(std::move(Neg), std::move(Pos));
      ASSERT_TRUE(New);
      R.addRule(Cs[I], Rhs, Id);
    }
    PosSpatialClause C;
    for (size_t K = 2 + Pick(5); K != 0; --K) {
      const Term *Addr = Cs[Pick(Cs.size())], *Val = Cs[Pick(Cs.size())];
      C.Sigma.push_back(Pick(2) ? sl::HeapAtom::next(Addr, Val)
                                : sl::HeapAtom::lseg(Addr, Val));
    }
    NormalizedPos N = normalizeWithConsequences(Terms, Sat, R, C);

    // The normalized Σ is the atom-wise normal form, trivial lsegs
    // dropped.
    sl::SpatialFormula Expected;
    for (const sl::HeapAtom &A : C.Sigma) {
      sl::HeapAtom NA = A;
      NA.Addr = R.normalize(A.Addr);
      NA.Val = R.normalize(A.Val);
      if (!NA.isTrivialLseg())
        Expected.push_back(NA);
    }
    ASSERT_EQ(sl::str(Terms, N.C.Sigma), sl::str(Terms, Expected));

    // The unscoped rules on the whole normalized clause.
    struct Unscoped {
      std::string Rule;
      sl::SpatialFormula Atoms;
      std::vector<sup::Equation> Extra;
    };
    std::vector<Unscoped> Ref;
    const sl::SpatialFormula &S = N.C.Sigma;
    for (size_t I = 0; I != S.size(); ++I) {
      if (S[I].Addr->isNil())
        Ref.push_back(S[I].isNext()
                          ? Unscoped{"W1", {S[I]}, {}}
                          : Unscoped{"W2", {S[I]},
                                     {sup::Equation(S[I].Val, S[I].Addr)}});
      for (size_t J = I + 1; J != S.size(); ++J) {
        if (S[I].Addr != S[J].Addr)
          continue;
        if (S[I].isNext() && S[J].isNext())
          Ref.push_back({"W3", {S[I], S[J]}, {}});
        else if (S[I].isNext() || S[J].isNext()) {
          const sl::HeapAtom &L = S[I].isLseg() ? S[I] : S[J];
          Ref.push_back({"W4", {S[I], S[J]}, {sup::Equation(L.Addr, L.Val)}});
        } else {
          Ref.push_back({"W5",
                         {S[I], S[J]},
                         {sup::Equation(S[I].Addr, S[I].Val),
                          sup::Equation(S[J].Addr, S[J].Val)}});
        }
      }
    }

    ASSERT_EQ(N.WConsequences.size(), Ref.size()) << sl::str(Terms, C.Sigma);
    for (size_t K = 0; K != Ref.size(); ++K) {
      const PureInput &W = N.WConsequences[K];
      SCOPED_TRACE(W.Label);
      // Same rule on the same atom pair, with the same conclusion.
      EXPECT_EQ(W.Label.rfind(Ref[K].Rule, 0), 0u);
      std::string Pair = sl::str(Terms, Ref[K].Atoms);
      ASSERT_GE(W.Label.size(), Pair.size());
      EXPECT_EQ(W.Label.substr(W.Label.size() - Pair.size()), Pair);
      ASSERT_GE(W.Pos.size(), Ref[K].Extra.size());
      EXPECT_TRUE(std::equal(Ref[K].Extra.begin(), Ref[K].Extra.end(),
                             W.Pos.end() - Ref[K].Extra.size()));
      // Γ ⊆ Γ_R and ∆ ⊆ ∆_R ∪ Extra.
      for (const sup::Equation &E : W.Neg)
        EXPECT_TRUE(Contains(N.C.Neg, E));
      for (size_t L = 0; L != W.Pos.size() - Ref[K].Extra.size(); ++L)
        EXPECT_TRUE(Contains(N.C.Pos, W.Pos[L]));
      ++Fired;
      Narrowed += W.Neg.size() + W.Pos.size() <
                  N.C.Neg.size() + N.C.Pos.size() + Ref[K].Extra.size();
    }
  }
  // The corpus exercises the rules and the scoping.
  EXPECT_GT(Fired, 100u);
  EXPECT_GT(Narrowed, 10u);
}

//===----------------------------------------------------------------------===//
// Unfolding walk (U rules + SR)
//===----------------------------------------------------------------------===//

namespace {

/// Builds a stack binding each distinct constant to a distinct loc.
sl::Stack totalStack(std::initializer_list<const Term *> Vars) {
  sl::Stack S;
  sl::Loc L = 1;
  for (const Term *V : Vars)
    S.bind(V, L++);
  return S;
}

} // namespace

TEST_F(ComponentsTest, UnfoldExactMatchDerivesEmptyResidue) {
  const Term *X = T("x"), *Y = T("y");
  sl::Stack S = totalStack({X, Y});
  PosSpatialClause C;
  C.Sigma = {sl::HeapAtom::next(X, Y)};
  NegSpatialClause CP;
  CP.Sigma = {sl::HeapAtom::next(X, Y)};
  UnfoldResult R = unfold(Terms, S, C, CP);
  ASSERT_EQ(R.K, UnfoldResult::Kind::Derived);
  EXPECT_TRUE(R.Derived.Neg.empty());
  EXPECT_TRUE(R.Derived.Pos.empty()); // SR alone: the empty clause.
}

TEST_F(ComponentsTest, UnfoldU1EmitsSideLiteral) {
  const Term *X = T("x"), *Y = T("y");
  sl::Stack S = totalStack({X, Y});
  PosSpatialClause C;
  C.Sigma = {sl::HeapAtom::next(X, Y)};
  NegSpatialClause CP;
  CP.Sigma = {sl::HeapAtom::lseg(X, Y)};
  UnfoldResult R = unfold(Terms, S, C, CP);
  ASSERT_EQ(R.K, UnfoldResult::Kind::Derived);
  ASSERT_EQ(R.Derived.Pos.size(), 1u);
  EXPECT_EQ(R.Derived.Pos[0], sup::Equation(X, Y)); // "or x ' y".
}

TEST_F(ComponentsTest, UnfoldU3NilTailNoSideLiteral) {
  const Term *X = T("x"), *Y = T("y");
  sl::Stack S = totalStack({X, Y});
  PosSpatialClause C;
  C.Sigma = {sl::HeapAtom::lseg(X, Y), sl::HeapAtom::lseg(Y, Terms.nil())};
  NegSpatialClause CP;
  CP.Sigma = {sl::HeapAtom::lseg(X, Terms.nil())};
  UnfoldResult R = unfold(Terms, S, C, CP);
  ASSERT_EQ(R.K, UnfoldResult::Kind::Derived);
  EXPECT_TRUE(R.Derived.Pos.empty()); // U3 is unconditional.
}

TEST_F(ComponentsTest, UnfoldU5EmitsGuardLiteral) {
  const Term *X = T("x"), *Y = T("y"), *Z = T("z"), *W = T("w");
  sl::Stack S = totalStack({X, Y, Z, W});
  PosSpatialClause C;
  C.Sigma = {sl::HeapAtom::lseg(X, Y), sl::HeapAtom::lseg(Y, Z),
             sl::HeapAtom::lseg(Z, W)};
  NegSpatialClause CP;
  CP.Sigma = {sl::HeapAtom::lseg(X, Z), sl::HeapAtom::lseg(Z, W)};
  UnfoldResult R = unfold(Terms, S, C, CP);
  ASSERT_EQ(R.K, UnfoldResult::Kind::Derived);
  ASSERT_EQ(R.Derived.Pos.size(), 1u);
  EXPECT_EQ(R.Derived.Pos[0], sup::Equation(Z, W)); // "or z ' w".
}

TEST_F(ComponentsTest, UnfoldMismatchYieldsGraphCex) {
  const Term *X = T("x"), *Y = T("y"), *Z = T("z");
  sl::Stack S = totalStack({X, Y, Z});
  PosSpatialClause C;
  C.Sigma = {sl::HeapAtom::next(X, Y)};
  NegSpatialClause CP;
  CP.Sigma = {sl::HeapAtom::next(X, Z)}; // Wrong target.
  UnfoldResult R = unfold(Terms, S, C, CP);
  ASSERT_EQ(R.K, UnfoldResult::Kind::CounterModel);
  // The countermodel is the graph heap itself and refutes Σ -> Σ'.
  EXPECT_TRUE(sl::satisfies(S, R.Cex, C.Sigma));
  EXPECT_FALSE(sl::satisfies(S, R.Cex, CP.Sigma));
}

TEST_F(ComponentsTest, UnfoldNextVsLsegStretches) {
  const Term *X = T("x"), *Y = T("y");
  sl::Stack S = totalStack({X, Y});
  PosSpatialClause C;
  C.Sigma = {sl::HeapAtom::lseg(X, Y)};
  NegSpatialClause CP;
  CP.Sigma = {sl::HeapAtom::next(X, Y)};
  UnfoldResult R = unfold(Terms, S, C, CP);
  ASSERT_EQ(R.K, UnfoldResult::Kind::CounterModel);
  EXPECT_EQ(R.Cex.size(), 2u); // The stretched two-cell segment.
  EXPECT_TRUE(sl::satisfies(S, R.Cex, C.Sigma));
  EXPECT_FALSE(sl::satisfies(S, R.Cex, CP.Sigma));
}

TEST_F(ComponentsTest, UnfoldDanglingEndpointReroutes) {
  const Term *X = T("x"), *Y = T("y"), *Z = T("z");
  sl::Stack S = totalStack({X, Y, Z});
  PosSpatialClause C;
  C.Sigma = {sl::HeapAtom::lseg(X, Y), sl::HeapAtom::lseg(Y, Z)};
  NegSpatialClause CP;
  CP.Sigma = {sl::HeapAtom::lseg(X, Z)};
  UnfoldResult R = unfold(Terms, S, C, CP);
  ASSERT_EQ(R.K, UnfoldResult::Kind::CounterModel);
  EXPECT_TRUE(sl::satisfies(S, R.Cex, C.Sigma));
  EXPECT_FALSE(sl::satisfies(S, R.Cex, CP.Sigma));
}

TEST_F(ComponentsTest, UnfoldEmpBothSides) {
  sl::Stack S = totalStack({});
  PosSpatialClause C;
  NegSpatialClause CP;
  UnfoldResult R = unfold(Terms, S, C, CP);
  ASSERT_EQ(R.K, UnfoldResult::Kind::Derived);
  EXPECT_TRUE(R.Derived.Pos.empty());
}

TEST_F(ComponentsTest, UnfoldLeftoverAtomsYieldCex) {
  const Term *X = T("x"), *Y = T("y"), *Z = T("z");
  sl::Stack S = totalStack({X, Y, Z});
  PosSpatialClause C;
  C.Sigma = {sl::HeapAtom::next(X, Y), sl::HeapAtom::next(Z, Y)};
  NegSpatialClause CP;
  CP.Sigma = {sl::HeapAtom::next(X, Y)}; // Σ' misses the z cell.
  UnfoldResult R = unfold(Terms, S, C, CP);
  ASSERT_EQ(R.K, UnfoldResult::Kind::CounterModel);
  EXPECT_FALSE(sl::satisfies(S, R.Cex, CP.Sigma));
}
