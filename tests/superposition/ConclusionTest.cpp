//===- tests/superposition/ConclusionTest.cpp -----------------------------===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Properties of conclusions built straight from premise spans: the
/// merged sides and fingerprint equal those of Clause(Neg, Pos) over
/// the concatenated literals, and the premise tautology check equals
/// isTautology() of the built clause — on random premise pairs that
/// share literals, drop a literal present in both premises, and add a
/// new literal that is trivial (on either side: a trivial antecedent is
/// dropped) or already present.
///
//===----------------------------------------------------------------------===//

#include "superposition/Clause.h"

#include "support/Random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>

using namespace slp;
using namespace slp::sup;

namespace {

class ConclusionTest : public ::testing::Test {
protected:
  SymbolTable Symbols;
  TermTable Terms{Symbols};
  SplitMix64 Rng{4242};

  /// Five constants and their images under f: small enough that random
  /// premises share literals often.
  const Term *randomTerm() {
    const Term *C = Terms.constant("c" + std::to_string(Rng.below(5)));
    if (Rng.below(4))
      return C;
    return Terms.make(Symbols.intern("f", 1), std::array<const Term *, 1>{C});
  }

  Equation randomEquation() { return Equation(randomTerm(), randomTerm()); }

  /// A random non-tautological premise with up to three literals per
  /// side (every stored clause is non-tautological).
  Clause randomPremise() {
    for (;;) {
      std::vector<Equation> Neg, Pos;
      for (uint64_t I = 0, N = Rng.below(4); I != N; ++I)
        Neg.push_back(randomEquation());
      for (uint64_t I = 0, N = Rng.below(4); I != N; ++I)
        Pos.push_back(randomEquation());
      Clause C(std::move(Neg), std::move(Pos));
      if (!C.isTautology())
        return C;
    }
  }

  /// A literal to drop from \p Side: none, one of its own, one it
  /// shares with \p Other (the removed literal present in both
  /// premises), or an arbitrary equation.
  std::optional<Equation> randomDrop(std::span<const Equation> Side,
                                     std::span<const Equation> Other) {
    std::vector<Equation> Shared;
    std::set_intersection(Side.begin(), Side.end(), Other.begin(), Other.end(),
                          std::back_inserter(Shared));
    switch (Rng.below(4)) {
    case 0:
      return std::nullopt;
    case 1:
      if (!Side.empty())
        return Side[Rng.below(Side.size())];
      return std::nullopt;
    case 2:
      if (!Shared.empty())
        return Shared[Rng.below(Shared.size())];
      return std::nullopt;
    default:
      return randomEquation();
    }
  }

  /// A new literal: none, trivial, already in a premise, or random.
  std::optional<Equation> randomNew(const Clause &P, const Clause &Q) {
    switch (Rng.below(5)) {
    case 0:
      return std::nullopt;
    case 1: {
      const Term *T = randomTerm();
      return Equation(T, T);
    }
    case 2: {
      std::vector<Equation> All;
      for (const Clause *C : {&P, &Q}) {
        All.insert(All.end(), C->neg().begin(), C->neg().end());
        All.insert(All.end(), C->pos().begin(), C->pos().end());
      }
      if (!All.empty())
        return All[Rng.below(All.size())];
      return std::nullopt;
    }
    default:
      return randomEquation();
    }
  }

  /// A random conclusion over the premises \p P and \p Q (\p Q unused
  /// when it has one premise).
  Conclusion randomConclusion(const Clause &P, const Clause &Q) {
    Conclusion C;
    C.NumPremises = Rng.below(4) ? 2 : 1;
    C.Premises[0] = {P.neg(), P.pos(), randomDrop(P.neg(), Q.neg()),
                     randomDrop(P.pos(), Q.pos())};
    if (C.NumPremises == 2)
      C.Premises[1] = {Q.neg(), Q.pos(), randomDrop(Q.neg(), P.neg()),
                       randomDrop(Q.pos(), P.pos())};
    C.New = randomNew(P, Q);
    C.NewNegative = Rng.below(2);
    return C;
  }

  /// The reference: every share's literals minus its drops, plus the
  /// new literal, canonicalized by the Clause constructor.
  static Clause reference(const Conclusion &C) {
    std::vector<Equation> Neg, Pos;
    auto Append = [](std::vector<Equation> &Out, std::span<const Equation> In,
                     const std::optional<Equation> &Drop) {
      for (const Equation &E : In)
        if (E != Drop)
          Out.push_back(E);
    };
    for (unsigned I = 0; I != C.NumPremises; ++I) {
      Append(Neg, C.Premises[I].Neg, C.Premises[I].DropNeg);
      Append(Pos, C.Premises[I].Pos, C.Premises[I].DropPos);
    }
    if (C.New)
      (C.NewNegative ? Neg : Pos).push_back(*C.New);
    return Clause(std::move(Neg), std::move(Pos));
  }
};

/// How often the interesting shapes came up, so a change to the
/// generator cannot silently stop covering them.
struct Coverage {
  unsigned SharedLiteral = 0, DropInBoth = 0, NewTrivial = 0, NewPresent = 0;
  unsigned NewTrivialNegative = 0;
  unsigned Tautologies = 0, NonTautologies = 0;

  void note(const Conclusion &C) {
    if (C.NumPremises != 2)
      return;
    const PremiseShare &P = C.Premises[0], &Q = C.Premises[1];
    auto Has = [](std::span<const Equation> S, const Equation &E) {
      return std::binary_search(S.begin(), S.end(), E);
    };
    for (const Equation &E : P.Neg)
      SharedLiteral += Has(Q.Neg, E);
    if (P.DropNeg && Has(P.Neg, *P.DropNeg) && Has(Q.Neg, *P.DropNeg))
      ++DropInBoth;
    if (P.DropPos && Has(P.Pos, *P.DropPos) && Has(Q.Pos, *P.DropPos))
      ++DropInBoth;
    if (C.New && C.New->trivial()) {
      ++NewTrivial;
      NewTrivialNegative += C.NewNegative;
    }
    if (C.New && (Has(P.Neg, *C.New) || Has(P.Pos, *C.New) ||
                  Has(Q.Neg, *C.New) || Has(Q.Pos, *C.New)))
      ++NewPresent;
  }
};

} // namespace

TEST_F(ConclusionTest, MergedConclusionEqualsClause) {
  Coverage Cov;
  std::vector<Equation> Neg, Pos;
  for (int I = 0; I != 20000; ++I) {
    Clause P = randomPremise(), Q = randomPremise();
    Conclusion C = randomConclusion(P, Q);
    Cov.note(C);
    const uint64_t Hash = C.build(Neg, Pos);
    Clause Want = reference(C);
    ASSERT_EQ(Neg, Want.neg()) << "iteration " << I;
    ASSERT_EQ(Pos, Want.pos()) << "iteration " << I;
    ASSERT_EQ(Hash, Want.fingerprint()) << "iteration " << I;
  }
  EXPECT_GT(Cov.SharedLiteral, 100u);
  EXPECT_GT(Cov.DropInBoth, 100u);
  EXPECT_GT(Cov.NewTrivial, 100u);
  EXPECT_GT(Cov.NewTrivialNegative, 100u);
  EXPECT_GT(Cov.NewPresent, 100u);
}

TEST_F(ConclusionTest, PremiseTautologyCheckMatchesBuiltClause) {
  Coverage Cov;
  for (int I = 0; I != 20000; ++I) {
    Clause P = randomPremise(), Q = randomPremise();
    Conclusion C = randomConclusion(P, Q);
    Cov.note(C);
    const bool Want = reference(C).isTautology();
    ASSERT_EQ(C.tautology(), Want)
        << "iteration " << I << ": " << reference(C).str(Terms);
    ++(Want ? Cov.Tautologies : Cov.NonTautologies);
  }
  EXPECT_GT(Cov.Tautologies, 1000u);
  EXPECT_GT(Cov.NonTautologies, 1000u);
  EXPECT_GT(Cov.DropInBoth, 100u);
  EXPECT_GT(Cov.NewTrivial, 100u);
}
