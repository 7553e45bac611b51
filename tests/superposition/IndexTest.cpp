//===- tests/superposition/IndexTest.cpp ---------------------------------------===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//
///
/// The clause-indexing subsystem: signature monotonicity under
/// subsumption (bloom collisions and non-constant terms included),
/// literal-index retrieval completeness against brute force, index
/// maintenance across insert/erase/revive churn, the demodulator
/// fingerprint, and the end-to-end guarantee that indexed and linear
/// subsumption run the same search (verdicts, fuel, kept clauses and
/// deletions) on the regression corpus and the Table 1-3
/// random/VC distributions.
///
//===----------------------------------------------------------------------===//

#include "core/Prover.h"
#include "gen/Cloning.h"
#include "gen/RandomEntailments.h"
#include "sl/Parser.h"
#include "superposition/Index.h"
#include "superposition/Saturation.h"
#include "support/Random.h"
#include "symexec/Corpus.h"
#include "symexec/SymbolicExec.h"

#include "../TestUtil.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

using namespace slp;
using namespace slp::sup;

namespace {

class IndexTest : public ::testing::Test {
protected:
  SymbolTable Symbols;
  TermTable Terms{Symbols};

  const Term *T(const std::string &N) { return Terms.constant(N); }

  /// f(\p A) for the unary function symbol f.
  const Term *F(const Term *A) {
    return Terms.make(Symbols.intern("f", 1), std::array<const Term *, 1>{A});
  }

  /// A random clause over a small term pool — six constants and their
  /// images under f — with up to three negative and three positive
  /// equations.
  Clause randomClause(SplitMix64 &Rng) {
    auto RandTerm = [&] {
      const Term *C = T("c" + std::to_string(Rng.next() % 6));
      return Rng.next() % 4 ? C : F(C);
    };
    std::vector<Equation> Neg, Pos;
    for (uint64_t I = 0, N = Rng.next() % 4; I != N; ++I)
      Neg.emplace_back(RandTerm(), RandTerm());
    for (uint64_t I = 0, N = Rng.next() % 4; I != N; ++I)
      Pos.emplace_back(RandTerm(), RandTerm());
    return Clause(std::move(Neg), std::move(Pos));
  }

  /// The stored clauses LiteralIndex retrieval leaves after the
  /// signature filter and the exact test — what forward subsumption
  /// sees — sorted. Also checks every visited id is stored (live).
  std::vector<uint32_t> indexedSubsumers(const LiteralIndex &Idx,
                                         const std::vector<Clause> &Cs,
                                         const std::vector<bool> &Live,
                                         const Clause &Q) {
    std::vector<uint32_t> Got;
    const ClauseSignature QSig = ClauseSignature::of(Q);
    Idx.anyCandidate(Q, [&](uint32_t Id) {
      EXPECT_TRUE(Live[Id]) << "retrieved erased id " << Id;
      if (ClauseSignature::of(Cs[Id]).subsetOf(QSig) && Cs[Id].subsumes(Q))
        Got.push_back(Id);
      return false;
    });
    std::sort(Got.begin(), Got.end());
    Got.erase(std::unique(Got.begin(), Got.end()), Got.end());
    return Got;
  }

  /// Brute force: every live clause that subsumes \p Q, sorted.
  static std::vector<uint32_t> bruteSubsumers(const std::vector<Clause> &Cs,
                                              const std::vector<bool> &Live,
                                              const Clause &Q) {
    std::vector<uint32_t> Want;
    for (uint32_t I = 0; I != Cs.size(); ++I)
      if (Live[I] && Cs[I].subsumes(Q))
        Want.push_back(I);
    return Want;
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// ClauseSignature
//===----------------------------------------------------------------------===//

TEST_F(IndexTest, SignatureMonotoneUnderSubsumption) {
  SplitMix64 Rng(11);
  std::vector<Clause> Cs;
  for (int I = 0; I != 80; ++I)
    Cs.push_back(randomClause(Rng));
  unsigned Pairs = 0;
  for (const Clause &A : Cs)
    for (const Clause &B : Cs)
      if (A.subsumes(B)) {
        ++Pairs;
        EXPECT_TRUE(ClauseSignature::of(A).subsetOf(ClauseSignature::of(B)))
            << A.str(Terms) << " subsumes " << B.str(Terms)
            << " but its signature is not a subset";
      }
  EXPECT_GT(Pairs, Cs.size()) << "corpus has no proper subsumptions";
}

TEST_F(IndexTest, SignatureCoversNonConstantTerms) {
  // The unit -> f(a) ' b subsumes a wider clause over nested f terms;
  // its signature stays inside the wider one's, and each equation bit
  // lands on the polarity the equation occurs in.
  const Term *A = T("a");
  const Term *B = T("b");
  Equation FAB(F(A), B);
  Clause Unit({}, {FAB});
  Clause Wide({Equation(F(B), A)}, {FAB, Equation(F(F(A)), A)});
  ASSERT_TRUE(Unit.subsumes(Wide));
  ClauseSignature SU = ClauseSignature::of(Unit);
  ClauseSignature SW = ClauseSignature::of(Wide);
  EXPECT_TRUE(SU.subsetOf(SW));
  EXPECT_FALSE(SW.subsetOf(SU));
  EXPECT_EQ(SU.Neg, 0u);
  EXPECT_EQ(SU.Pos, ClauseSignature::equationBit(FAB));
  EXPECT_EQ(SW.Neg, ClauseSignature::equationBit(Equation(F(B), A)));

  // The same equation on the other side is not a subsumer.
  Clause NegUnit({FAB}, {});
  EXPECT_FALSE(NegUnit.subsumes(Wide));
  EXPECT_FALSE(ClauseSignature::of(NegUnit).subsetOf(SW));
}

TEST_F(IndexTest, SignatureSymbolMaskCoversSubterms) {
  const Term *A = T("a");
  const Term *B = T("b");
  Symbol FSym = Symbols.intern("f", 1);
  ClauseSignature S = ClauseSignature::of(Clause({}, {Equation(F(A), B)}));
  EXPECT_NE(S.Symbols & ClauseSignature::symbolBit(FSym), 0u);
  EXPECT_NE(S.Symbols & ClauseSignature::symbolBit(A->symbol()), 0u);
  EXPECT_NE(S.Symbols & ClauseSignature::symbolBit(B->symbol()), 0u);
}

TEST_F(IndexTest, SignatureBloomCollisionFallsThroughToExactCheck) {
  // Two distinct equations whose bloom bits collide: the signature
  // filter must let the pair through, and the exact test must then
  // keep both clauses (neither subsumes the other).
  std::vector<Equation> Seen;
  std::optional<std::pair<Equation, Equation>> Collision;
  for (int I = 0; I != 40 && !Collision; ++I)
    for (int J = I + 1; J != 40 && !Collision; ++J) {
      Equation E(T("k" + std::to_string(I)), T("k" + std::to_string(J)));
      for (const Equation &O : Seen)
        if (ClauseSignature::equationBit(O) == ClauseSignature::equationBit(E))
          Collision.emplace(O, E);
      Seen.push_back(E);
    }
  ASSERT_TRUE(Collision) << "no bloom collision among 780 equations";
  auto [E1, E2] = *Collision;
  ASSERT_NE(E1, E2);

  // The wide clause carries E2 and E1's constants but not E1 itself,
  // so the unit -> E1 passes the whole signature test against it.
  KBO Ord;
  Saturation Sat(Terms, Ord);
  const Term *Pad = T("pad");
  auto Wide = Sat.addInput(
      {}, {E2, Equation(E1.lhs(), Pad), Equation(E1.rhs(), Pad)});
  ASSERT_TRUE(Wide.New);
  EXPECT_TRUE(ClauseSignature::of(Clause({}, {E1}))
                  .subsetOf(ClauseSignature::of(Sat.clause(Wide.Id))));

  uint64_t Checks = Sat.stats().SubChecks;
  auto Unit = Sat.addInput({}, {E1});
  ASSERT_TRUE(Unit.New);
  EXPECT_GT(Sat.stats().SubChecks, Checks)
      << "the colliding pair never reached the exact test";
  EXPECT_FALSE(Sat.deleted(Wide.Id)) << "collision mistaken for subsumption";
  EXPECT_EQ(Sat.stats().SubsumedBwd, 0u);

  // The real subsumer still deletes it.
  auto Real = Sat.addInput({}, {E2});
  ASSERT_TRUE(Real.New);
  EXPECT_TRUE(Sat.deleted(Wide.Id));
  EXPECT_FALSE(Sat.deleted(Unit.Id));
  EXPECT_EQ(Sat.stats().SubsumedBwd, 1u);
}

//===----------------------------------------------------------------------===//
// LiteralIndex
//===----------------------------------------------------------------------===//

TEST_F(IndexTest, IndexRetrievalMatchesBruteForce) {
  SplitMix64 Rng(23);
  std::vector<Clause> Cs;
  LiteralIndex Idx;
  for (uint32_t I = 0; I != 80; ++I) {
    Cs.push_back(randomClause(Rng));
    Idx.insert(I, Cs.back());
  }
  EXPECT_EQ(Idx.size(), 80u);
  std::vector<bool> Live(Cs.size(), true);

  size_t Visited = 0;
  for (uint32_t Q = 0; Q != Cs.size(); ++Q) {
    EXPECT_EQ(indexedSubsumers(Idx, Cs, Live, Cs[Q]),
              bruteSubsumers(Cs, Live, Cs[Q]))
        << "subsumers of clause " << Q;
    Idx.anyCandidate(Cs[Q], [&](uint32_t) {
      ++Visited;
      return false;
    });
  }
  EXPECT_LT(Visited, Cs.size() * Cs.size()) << "index pruned nothing";
}

TEST_F(IndexTest, IndexChurnMatchesBruteForce) {
  // Insert/erase/revive churn: erasing swap-removes an id from its
  // literal list, which must never lose or duplicate a neighbour.
  // Several toggle rounds with a full brute-force cross-check, on a
  // stream that also repeats clauses (distinct ids, equal contents)
  // and includes the empty clause.
  SplitMix64 Rng(77);
  std::vector<Clause> Cs;
  LiteralIndex Idx;
  for (uint32_t I = 0; I != 120; ++I) {
    Cs.push_back(I % 17 == 5 ? Cs[I / 2] : randomClause(Rng));
    Idx.insert(I, Cs.back());
  }
  Cs.push_back(Clause({}, {}));
  Idx.insert(120, Cs.back());
  std::vector<bool> Live(Cs.size(), true);
  for (int Round = 0; Round != 6; ++Round) {
    for (uint32_t I = 0; I != Cs.size(); ++I) {
      if (Rng.next() % 3)
        continue;
      if (Live[I])
        EXPECT_TRUE(Idx.erase(I, Cs[I]));
      else
        Idx.insert(I, Cs[I]);
      Live[I] = !Live[I];
    }
    EXPECT_EQ(Idx.size(),
              static_cast<size_t>(std::count(Live.begin(), Live.end(), true)));
    for (uint32_t Q = 0; Q != Cs.size(); ++Q)
      EXPECT_EQ(indexedSubsumers(Idx, Cs, Live, Cs[Q]),
                bruteSubsumers(Cs, Live, Cs[Q]))
          << "round " << Round << " subsumers of " << Q;
  }
}

TEST_F(IndexTest, SubsumerCacheChurnMatchesLinearScan) {
  // The saturation engine's forward-subsumption protocol: try the
  // cache, fall back to a scan and note the subsumer it finds, erase a
  // clause from the cache when it is deleted, and clear the cache with
  // the clause database between queries (each round below starts a new
  // database, so stale ids would be out of range). Under
  // insert/erase/revive churn the cache must only ever answer with a
  // live, non-excluded, in-range id, and the combined answer must equal
  // a plain linear scan.
  SplitMix64 Rng(2024);
  SubsumerCache Cache;
  unsigned Hits = 0, Misses = 0;
  for (int Round = 0; Round != 20; ++Round) {
    Cache.clear();
    std::vector<Clause> Cs;
    std::vector<bool> Live;
    for (int Step = 0; Step != 400; ++Step) {
      const uint64_t Op = Rng.below(4);
      if (Op == 0) {
        Cs.push_back(randomClause(Rng));
        Live.push_back(true);
      } else if (Op == 1 && !Cs.empty()) {
        const uint32_t Id = static_cast<uint32_t>(Rng.below(Cs.size()));
        if (Live[Id])
          Cache.erase(Id);
        Live[Id] = false;
      } else if (Op == 2 && !Cs.empty()) {
        Live[Rng.below(Cs.size())] = true;
      } else if (Op == 3) {
        const Clause Q = randomClause(Rng);
        const uint32_t Exclude =
            !Cs.empty() && Rng.below(2)
                ? static_cast<uint32_t>(Rng.below(Cs.size()))
                : ~0u;
        auto Subsumes = [&](uint32_t Id) {
          return Id != Exclude && Cs[Id].subsumes(Q);
        };
        bool Want = false;
        for (uint32_t Id = 0; Id != Cs.size(); ++Id)
          Want |= Live[Id] && Subsumes(Id);
        uint32_t Found = Cache.find(Subsumes);
        if (Found != ~0u) {
          ++Hits;
          ASSERT_LT(Found, Cs.size()) << "round " << Round;
          ASSERT_TRUE(Live[Found]) << "round " << Round;
          ASSERT_NE(Found, Exclude) << "round " << Round;
        } else {
          ++Misses;
          for (uint32_t Id = 0; Id != Cs.size() && Found == ~0u; ++Id)
            if (Live[Id] && Subsumes(Id))
              Found = Id;
          if (Found != ~0u)
            Cache.note(Found);
        }
        ASSERT_EQ(Found != ~0u, Want) << "round " << Round << " step " << Step;
      }
      ASSERT_LE(Cache.ids().size(), SubsumerCache::Capacity);
      for (uint32_t Id : Cache.ids()) {
        ASSERT_LT(Id, Cs.size()) << "round " << Round;
        ASSERT_TRUE(Live[Id]) << "round " << Round;
      }
    }
  }
  EXPECT_GT(Hits, 100u);
  EXPECT_GT(Misses, 100u);
}

TEST_F(IndexTest, IndexOverPooledClauseViewsMatchesBruteForce) {
  // Signatures and index keys computed through the saturation engine's
  // flat clause arena (ClauseView spans) must match the owning Clause
  // path, and retrieval over the pooled views must match brute force.
  KBO Ord;
  Saturation Sat(Terms, Ord);
  SplitMix64 Rng(31);
  for (int I = 0; I != 100; ++I) {
    Clause C = randomClause(Rng);
    Sat.addInput(std::vector<Equation>(C.neg()),
                 std::vector<Equation>(C.pos()));
  }
  LiteralIndex Idx;
  std::vector<Clause> Cs;
  for (uint32_t Id = 0; Id != Sat.numClauses(); ++Id) {
    ClauseView V = Sat.clause(Id);
    Cs.push_back(V.materialize());
    ClauseSignature FromView = ClauseSignature::of(V);
    ClauseSignature FromCopy = ClauseSignature::of(Cs.back());
    ASSERT_TRUE(FromView.subsetOf(FromCopy) && FromCopy.subsetOf(FromView))
        << "view and materialized signatures diverge for clause " << Id;
    Idx.insert(Id, V);
  }
  std::vector<bool> Live(Cs.size(), true);
  for (uint32_t Q = 0; Q != Cs.size(); ++Q) {
    // Erase through the materialized copy: both paths key alike.
    ASSERT_TRUE(Idx.erase(Q, Cs[Q]));
    Live[Q] = false;
    EXPECT_EQ(indexedSubsumers(Idx, Cs, Live, Cs[Q]),
              bruteSubsumers(Cs, Live, Cs[Q]))
        << "pooled subsumers of " << Q;
    Idx.insert(Q, Sat.clause(Q));
    Live[Q] = true;
  }
}

TEST_F(IndexTest, IndexEraseAndReinsert) {
  SplitMix64 Rng(5);
  Clause C1 = randomClause(Rng);
  Clause C2 = randomClause(Rng);
  LiteralIndex Idx;
  Idx.insert(1, C1);
  Idx.insert(2, C2);
  EXPECT_TRUE(Idx.erase(1, C1));
  EXPECT_FALSE(Idx.erase(1, C1)) << "second erase must report absence";
  EXPECT_EQ(Idx.size(), 1u);

  auto Count = [&](uint32_t Want) {
    unsigned N = 0;
    Idx.anyCandidate(C1, [&](uint32_t Id) {
      N += Id == Want;
      return false;
    });
    return N;
  };
  EXPECT_EQ(Count(1), 0u) << "erased id must not be retrievable";

  // Revival: the same id re-enters under the same clause.
  Idx.insert(1, C1);
  EXPECT_EQ(Count(1), 1u);
  EXPECT_EQ(Idx.size(), 2u);
  Idx.clear();
  EXPECT_TRUE(Idx.empty());
  EXPECT_EQ(Count(1), 0u);
}

//===----------------------------------------------------------------------===//
// DemodIndex
//===----------------------------------------------------------------------===//

TEST_F(IndexTest, DemodIndexTracksRootSymbols) {
  DemodIndex Idx;
  Symbol A = Symbols.constant("a");
  Symbol B = Symbols.constant("b");
  EXPECT_TRUE(Idx.empty());
  EXPECT_FALSE(Idx.mayMatchRoot(A));

  Idx.addLhs(A);
  Idx.addLhs(A);
  EXPECT_TRUE(Idx.mayMatchRoot(A));
  EXPECT_TRUE(Idx.mayRewrite(ClauseSignature::symbolBit(A)));

  // Reference counting: the bit survives one of two removals.
  Idx.removeLhs(A);
  EXPECT_TRUE(Idx.mayMatchRoot(A));
  Idx.removeLhs(A);
  EXPECT_FALSE(Idx.mayMatchRoot(A));
  EXPECT_TRUE(Idx.empty());
  EXPECT_FALSE(Idx.mayRewrite(ClauseSignature::symbolBit(B)));
}

//===----------------------------------------------------------------------===//
// Saturation integration
//===----------------------------------------------------------------------===//

namespace {

class SatIndexTest : public IndexTest {
protected:
  KBO Ord;
};

} // namespace

TEST_F(SatIndexTest, BackwardSubsumptionDeletesWeakerClauses) {
  Saturation Sat(Terms, Ord);
  auto Wide =
      Sat.addInput({}, {Equation(T("a"), T("b")), Equation(T("c"), T("d"))});
  ASSERT_TRUE(Wide.New);
  EXPECT_FALSE(Sat.deleted(Wide.Id));

  // The stronger unit deletes the disjunction the moment it is kept.
  auto Unit = Sat.addInput({}, {Equation(T("a"), T("b"))});
  ASSERT_TRUE(Unit.New);
  EXPECT_TRUE(Sat.deleted(Wide.Id));
  EXPECT_EQ(Sat.stats().SubsumedBwd, 1u);
}

TEST_F(SatIndexTest, RevivedDuplicateRechecksForwardSubsumption) {
  Saturation Sat(Terms, Ord);
  auto Wide =
      Sat.addInput({}, {Equation(T("a"), T("b")), Equation(T("c"), T("d"))});
  auto Unit = Sat.addInput({}, {Equation(T("a"), T("b"))});
  ASSERT_TRUE(Wide.New);
  ASSERT_TRUE(Unit.New);
  ASSERT_TRUE(Sat.deleted(Wide.Id)) << "precondition: deleted";

  // Re-adding the deleted duplicate while its subsumer is live must
  // NOT resurrect it.
  uint64_t FwdBefore = Sat.stats().SubsumedFwd;
  auto Again =
      Sat.addInput({}, {Equation(T("a"), T("b")), Equation(T("c"), T("d"))});
  EXPECT_FALSE(Again.New);
  EXPECT_EQ(Again.Id, Wide.Id);
  EXPECT_TRUE(Sat.deleted(Wide.Id));
  EXPECT_EQ(Sat.stats().SubsumedFwd, FwdBefore + 1);

  // And the set still saturates without resurrected redundancy.
  Fuel F;
  EXPECT_EQ(Sat.saturate(F), SatResult::Saturated);
  for (uint32_t Id : Sat.liveClauses())
    EXPECT_NE(Id, Wide.Id);
}

TEST_F(SatIndexTest, IndexedQueriesPruneAgainstScanBaseline) {
  Saturation Sat(Terms, Ord);
  // A batch of unrelated units: the index should test far fewer
  // candidates than a full-DB scan per query.
  for (int I = 0; I != 40; ++I)
    Sat.addInput({}, {Equation(T("a" + std::to_string(I)),
                               T("b" + std::to_string(I)))});
  Fuel F;
  EXPECT_EQ(Sat.saturate(F), SatResult::Saturated);
  const SaturationStats &S = Sat.stats();
  EXPECT_GT(S.SubQueries, 0u);
  EXPECT_LT(S.SubChecks, S.SubScanBaseline)
      << "index failed to prune any candidates";
}

TEST_F(SatIndexTest, IndexedAndLinearSaturationAgree) {
  // Same clause stream through both configurations: identical
  // verdicts and identical deletion decisions.
  SaturationOptions Linear;
  Linear.IndexedSubsumption = false;
  Saturation A(Terms, Ord);
  Saturation B(Terms, Ord, Linear);
  SplitMix64 Rng(99);
  for (int I = 0; I != 150; ++I) {
    Clause C = randomClause(Rng);
    A.addInput(std::vector<Equation>(C.neg()), std::vector<Equation>(C.pos()));
    B.addInput(std::vector<Equation>(C.neg()), std::vector<Equation>(C.pos()));
  }
  Fuel FA, FB;
  EXPECT_EQ(A.saturate(FA), B.saturate(FB));
  ASSERT_EQ(A.numClauses(), B.numClauses());
  for (uint32_t Id = 0; Id != A.numClauses(); ++Id) {
    EXPECT_EQ(A.clause(Id) == B.clause(Id), true) << "clause " << Id;
    EXPECT_EQ(A.deleted(Id), B.deleted(Id)) << "clause " << Id;
  }
  EXPECT_EQ(A.stats().SubsumedFwd, B.stats().SubsumedFwd);
  EXPECT_EQ(A.stats().SubsumedBwd, B.stats().SubsumedBwd);
  EXPECT_EQ(A.stats().Kept, B.stats().Kept);
}

//===----------------------------------------------------------------------===//
// End-to-end verdict identity (indexed vs. linear)
//===----------------------------------------------------------------------===//

namespace {

/// Proves \p E under both subsumption implementations and checks they
/// run the same search: same verdict, fuel, kept and final clauses,
/// and forward/backward deletions. Returns the (shared) verdict.
core::Verdict proveBothWays(TermTable &Terms, const sl::Entailment &E,
                            const std::string &Label) {
  core::ProverOptions Indexed;
  core::ProverOptions Linear;
  Linear.Sat.IndexedSubsumption = false;
  core::SlpProver PI(Terms, Indexed);
  core::SlpProver PL(Terms, Linear);
  core::ProveResult RI = PI.prove(E);
  core::ProveResult RL = PL.prove(E);
  EXPECT_EQ(RI.V, RL.V) << "verdict diverges on " << Label;
  EXPECT_EQ(RI.Stats.FuelUsed, RL.Stats.FuelUsed) << "fuel on " << Label;
  EXPECT_EQ(RI.Stats.PureClauses, RL.Stats.PureClauses)
      << "clauses on " << Label;
  EXPECT_EQ(PI.saturation().stats().Kept, PL.saturation().stats().Kept)
      << "kept on " << Label;
  EXPECT_EQ(RI.Stats.SubsumedFwd, RL.Stats.SubsumedFwd)
      << "forward deletions on " << Label;
  EXPECT_EQ(RI.Stats.SubsumedBwd, RL.Stats.SubsumedBwd)
      << "backward deletions on " << Label;
  return RI.V;
}

} // namespace

TEST_F(IndexTest, RegressionCorpusVerdictsIdentical) {
  std::vector<std::string> Corpus = test::regressionQueryLines();
  ASSERT_GE(Corpus.size(), 40u) << "regression corpus not found";
  for (const std::string &Line : Corpus) {
    sl::ParseResult P = sl::parseEntailment(Terms, Line);
    ASSERT_TRUE(P.ok()) << Line;
    proveBothWays(Terms, *P.Value, Line);
  }
}

TEST_F(IndexTest, Table1DistributionVerdictsIdentical) {
  SplitMix64 Rng(1);
  for (int I = 0; I != 40; ++I) {
    sl::Entailment E = gen::distribution1(Terms, Rng, 12, 0.09, 0.11);
    proveBothWays(Terms, E, "table1 #" + std::to_string(I));
  }
}

TEST_F(IndexTest, Table2DistributionVerdictsIdentical) {
  SplitMix64 Rng(2);
  for (int I = 0; I != 25; ++I) {
    sl::Entailment E = gen::distribution2(Terms, Rng, 10, 0.7);
    proveBothWays(Terms, E, "table2 #" + std::to_string(I));
  }
}

TEST_F(IndexTest, Table3VcCorpusVerdictsIdentical) {
  unsigned Checked = 0;
  for (const symexec::Program &P : symexec::corpus(Terms)) {
    symexec::VcGenResult R = symexec::generateVCs(Terms, P);
    ASSERT_TRUE(R.ok());
    for (symexec::VC &V : R.VCs) {
      // Clone once, as the Table 3 harness does, to widen the clauses.
      sl::Entailment E = gen::cloneEntailment(Terms, V.E, 2);
      EXPECT_EQ(proveBothWays(Terms, E, P.Name), core::Verdict::Valid);
      ++Checked;
    }
  }
  EXPECT_GT(Checked, 0u);
}
