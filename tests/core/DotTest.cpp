//===- tests/core/DotTest.cpp ----------------------------------------------------===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//

#include "core/Dot.h"
#include "core/ProofTree.h"
#include "core/Prover.h"
#include "sl/Parser.h"

#include <gtest/gtest.h>

using namespace slp;
using namespace slp::core;

namespace {

class DotTest : public ::testing::Test {
protected:
  SymbolTable Symbols;
  TermTable Terms{Symbols};
  SlpProver Prover{Terms};
};

} // namespace

TEST_F(DotTest, ProofDagIsWellFormedDot) {
  sl::ParseResult P = sl::parseEntailment(
      Terms, "c != e & lseg(a, b) * lseg(a, c) * next(c, d) * lseg(d, e) "
             "|- lseg(b, c) * lseg(c, e)");
  ASSERT_TRUE(P.ok());
  ASSERT_EQ(Prover.prove(*P.Value).V, Verdict::Valid);

  std::string Dot = proofToDot(Prover.saturation(), Prover.inputLabels(),
                               Prover.saturation().emptyClauseId());
  EXPECT_EQ(Dot.rfind("digraph refutation {", 0), 0u);
  EXPECT_EQ(Dot.back(), '\n');
  EXPECT_NE(Dot.find("}"), std::string::npos);
  // The root (the empty clause) and at least one input box appear.
  EXPECT_NE(Dot.find("[]"), std::string::npos);
  EXPECT_NE(Dot.find("shape=box"), std::string::npos);
  EXPECT_NE(Dot.find("->"), std::string::npos);
  // Labels are escaped: no raw double quote sneaks into a label.
  EXPECT_EQ(Dot.find("\\\""), std::string::npos);
}

TEST_F(DotTest, CutUnitsRenderDistinctly) {
  // e -> d rewrites  -> e ' c, a ' b  to  -> d ' c, a ' b, whose two
  // literals the negative units [0] and [1] then cut to the empty
  // clause.
  KBO Ord;
  sup::Saturation Sat(Terms, Ord);
  const Term *A = Terms.constant("a"), *B = Terms.constant("b");
  const Term *C = Terms.constant("c"), *D = Terms.constant("d");
  const Term *E = Terms.constant("e");
  Sat.addInput({sup::Equation(A, B)}, {});
  Sat.addInput({sup::Equation(C, D)}, {});
  Sat.addInput({}, {sup::Equation(E, D)});
  Sat.addInput({}, {sup::Equation(E, C), sup::Equation(A, B)});
  Fuel F;
  ASSERT_EQ(Sat.saturate(F), sup::SatResult::Unsatisfiable);

  std::string Proof = renderRefutation(Sat, {});
  EXPECT_NE(Proof.find("[4] []   <- demod(3, 2) cut(0, 1)\n"),
            std::string::npos)
      << Proof;
  std::string Dot = proofToDot(Sat, {}, Sat.emptyClauseId());
  EXPECT_NE(Dot.find("demod + cut"), std::string::npos) << Dot;
  EXPECT_NE(Dot.find("c3 -> c4;"), std::string::npos) << Dot;
  EXPECT_NE(Dot.find("c0 -> c4 [style=dashed, label=\"cut\"];"),
            std::string::npos)
      << Dot;
}

TEST_F(DotTest, CounterModelDotShowsStackAndHeap) {
  sl::ParseResult P =
      sl::parseEntailment(Terms, "lseg(x, y) |- next(x, y)");
  ASSERT_TRUE(P.ok());
  ProveResult R = Prover.prove(*P.Value);
  ASSERT_EQ(R.V, Verdict::Invalid);
  ASSERT_TRUE(R.Cex.has_value());

  std::string Dot = counterModelToDot(Terms, R.Cex->S, R.Cex->H);
  EXPECT_EQ(Dot.rfind("digraph countermodel {", 0), 0u);
  EXPECT_NE(Dot.find("doublecircle"), std::string::npos); // nil node.
  EXPECT_NE(Dot.find("x"), std::string::npos);
  EXPECT_NE(Dot.find("->"), std::string::npos);
}

TEST_F(DotTest, EmptyHeapCounterModelStillRenders) {
  sl::ParseResult P = sl::parseEntailment(Terms, "emp |- next(x, y)");
  ASSERT_TRUE(P.ok());
  ProveResult R = Prover.prove(*P.Value);
  ASSERT_EQ(R.V, Verdict::Invalid);
  std::string Dot = counterModelToDot(Terms, R.Cex->S, R.Cex->H);
  EXPECT_NE(Dot.find("nil"), std::string::npos);
}
