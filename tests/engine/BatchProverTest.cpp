//===- tests/engine/BatchProverTest.cpp -----------------------------------------===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//
///
/// The concurrent batch engine: a multi-threaded run over generated
/// corpora must agree verdict-for-verdict with the sequential
/// core::SlpProver, be deterministic across job counts and cache
/// settings, keep results in input order, and answer duplicated
/// corpora from the cache.
///
//===----------------------------------------------------------------------===//

#include "engine/BatchProver.h"
#include "engine/VcTasks.h"
#include "fuzz/Transformers.h"
#include "gen/Cloning.h"
#include "gen/RandomEntailments.h"
#include "sl/Parser.h"

#include <gtest/gtest.h>

using namespace slp;
using namespace slp::engine;

namespace {

/// Renders a mixed corpus from both paper distributions.
std::vector<std::string> makeCorpus(unsigned PerDist, uint64_t Seed) {
  SymbolTable Symbols;
  TermTable Terms(Symbols);
  SplitMix64 Rng(Seed);
  std::vector<std::string> Corpus;
  for (unsigned I = 0; I != PerDist; ++I)
    Corpus.push_back(sl::str(
        Terms, gen::distribution1(Terms, Rng, 6, /*PLseg=*/0.2, /*PNe=*/0.3)));
  for (unsigned I = 0; I != PerDist; ++I)
    Corpus.push_back(
        sl::str(Terms, gen::distribution2(Terms, Rng, 6, /*PNext=*/0.6)));
  return Corpus;
}

std::vector<core::Verdict>
sequentialVerdicts(const std::vector<std::string> &Corpus) {
  SymbolTable Symbols;
  TermTable Terms(Symbols);
  core::SlpProver Prover(Terms);
  std::vector<core::Verdict> Verdicts;
  for (const std::string &Q : Corpus) {
    sl::ParseResult P = sl::parseEntailment(Terms, Q);
    EXPECT_TRUE(P.ok()) << Q;
    Verdicts.push_back(Prover.prove(*P.Value).V);
  }
  return Verdicts;
}

} // namespace

TEST(BatchProver, AgreesWithSequentialProver) {
  std::vector<std::string> Corpus = makeCorpus(20, /*Seed=*/42);
  std::vector<core::Verdict> Expected = sequentialVerdicts(Corpus);

  BatchOptions Opts;
  Opts.Jobs = 4;
  BatchProver Engine(Opts);
  std::vector<QueryResult> Results = Engine.run(Corpus);

  ASSERT_EQ(Results.size(), Corpus.size());
  for (size_t I = 0; I != Results.size(); ++I) {
    EXPECT_EQ(Results[I].Status, QueryStatus::Ok) << Corpus[I];
    EXPECT_EQ(Results[I].V, Expected[I]) << Corpus[I];
  }
}

TEST(BatchProver, DeterministicAcrossJobsAndCache) {
  std::vector<std::string> Corpus = makeCorpus(12, /*Seed=*/7);
  std::vector<std::string> Runs[3];
  unsigned JobCounts[] = {1, 3, 8};
  bool CacheOn[] = {true, false, true};
  for (int R = 0; R != 3; ++R) {
    BatchOptions Opts;
    Opts.Jobs = JobCounts[R];
    Opts.CacheEnabled = CacheOn[R];
    BatchProver Engine(Opts);
    for (const QueryResult &Res : Engine.run(Corpus))
      Runs[R].push_back(Res.verdictText());
  }
  EXPECT_EQ(Runs[0], Runs[1]);
  EXPECT_EQ(Runs[0], Runs[2]);
}

TEST(BatchProver, DuplicatedCorpusHitsCache) {
  std::vector<std::string> Base = makeCorpus(10, /*Seed=*/3);
  std::vector<std::string> Corpus;
  for (int Rep = 0; Rep != 4; ++Rep)
    Corpus.insert(Corpus.end(), Base.begin(), Base.end());

  // Presolve off: statically decided queries never reach the cache.
  // (DuplicatedCorpusAccountingIsExactAtAnyJobs checks the same corpus
  // with racing workers.)
  BatchOptions Opts;
  Opts.Jobs = 1;
  Opts.Presolve = false;
  BatchProver Engine(Opts);
  std::vector<QueryResult> Results = Engine.run(Corpus);

  const BatchStats &S = Engine.stats();
  EXPECT_EQ(S.Queries, Corpus.size());
  // At least the 3 repeats of every unique query come from the cache
  // (more if the base corpus already contains alpha-duplicates).
  EXPECT_GE(S.CacheHits, 3u * Base.size());
  // Repeats agree with the first occurrence.
  for (size_t I = Base.size(); I != Corpus.size(); ++I)
    EXPECT_EQ(Results[I].V, Results[I % Base.size()].V);
}

TEST(BatchProver, DuplicatedCorpusAccountingIsExactAtAnyJobs) {
  std::vector<std::string> Base = makeCorpus(10, /*Seed=*/3);
  std::vector<std::string> Corpus;
  for (int Rep = 0; Rep != 4; ++Rep)
    Corpus.insert(Corpus.end(), Base.begin(), Base.end());

  // Single flight: racing copies of one key wait for its one proof, so
  // misses count the distinct keys at every job count and every other
  // query is a hit.
  std::vector<std::string> Reference;
  uint64_t ReferenceMisses = 0;
  for (unsigned Jobs : {1u, 2u, 4u}) {
    BatchOptions Opts;
    Opts.Jobs = Jobs;
    Opts.Presolve = false;
    BatchProver Engine(Opts);
    std::vector<std::string> Verdicts;
    for (const QueryResult &R : Engine.run(Corpus))
      Verdicts.push_back(R.verdictText());

    const BatchStats &S = Engine.stats();
    EXPECT_EQ(S.CacheMisses, Engine.cache().stats().Insertions)
        << "jobs=" << Jobs;
    EXPECT_EQ(S.CacheHits + S.CacheMisses, Corpus.size()) << "jobs=" << Jobs;
    if (Jobs == 1) {
      Reference = Verdicts;
      ReferenceMisses = S.CacheMisses;
      continue;
    }
    EXPECT_EQ(S.CacheMisses, ReferenceMisses) << "jobs=" << Jobs;
    EXPECT_EQ(Verdicts, Reference) << "jobs=" << Jobs;
  }
  EXPECT_LE(ReferenceMisses, Base.size());
}

TEST(BatchProver, RenamedHeavyQueryIsProvedOnceAtAnyJobs) {
  // The three longest tasks are alpha-renamings of one slow query (a
  // 6-fold clone of VC 28, the slowest of the symexec corpus), spread
  // among short ones. Dealt heaviest first, they reach different workers at
  // once: one claims the key, the others set their task aside and
  // resolve it from the claimant's verdict.
  std::vector<std::string> Corpus = makeCorpus(4, /*Seed=*/5);
  std::vector<core::Verdict> Expected = sequentialVerdicts(Corpus);
  VcTaskSet Vcs = symexecVcTasks();
  ASSERT_TRUE(Vcs.ok());
  ASSERT_GT(Vcs.Tasks.size(), 28u);
  SymbolTable Symbols;
  TermTable Terms(Symbols);
  sl::ParseResult P = sl::parseEntailment(Terms, Vcs.Tasks[28].Text);
  ASSERT_TRUE(P.ok());
  sl::Entailment Heavy = gen::cloneEntailment(Terms, *P.Value, 6);
  const size_t HeavyAt[] = {1, 4, 7};
  for (size_t K = 0; K != 3; ++K) {
    std::optional<sl::Entailment> R =
        fuzz::apply(fuzz::TransformerKind::AlphaRename, Terms, Heavy, K + 1);
    ASSERT_TRUE(R.has_value());
    Corpus.insert(Corpus.begin() + HeavyAt[K], sl::str(Terms, *R));
    Expected.insert(Expected.begin() + HeavyAt[K], core::Verdict::Valid);
  }

  for (unsigned Jobs : {2u, 4u}) {
    BatchOptions Opts;
    Opts.Jobs = Jobs;
    Opts.Presolve = false;
    BatchProver Engine(Opts);
    std::vector<QueryResult> Results = Engine.run(Corpus);
    ASSERT_EQ(Results.size(), Corpus.size());
    for (size_t I = 0; I != Results.size(); ++I)
      EXPECT_EQ(Results[I].V, Expected[I]) << "jobs=" << Jobs << ": " << I;
    unsigned HeavyHits = 0;
    for (size_t I : HeavyAt)
      HeavyHits += Results[I].FromCache;
    EXPECT_EQ(HeavyHits, 2u) << "jobs=" << Jobs;
    // The short queries are distinct keys: one miss each, no hits.
    const BatchStats &S = Engine.stats();
    EXPECT_EQ(S.CacheMisses, Corpus.size() - 2) << "jobs=" << Jobs;
    EXPECT_EQ(S.CacheHits, 2u) << "jobs=" << Jobs;
    CacheStats C = Engine.cache().stats();
    EXPECT_EQ(C.Misses, S.CacheMisses) << "jobs=" << Jobs;
    EXPECT_EQ(C.Hits, S.CacheHits) << "jobs=" << Jobs;
  }
}

TEST(BatchProver, CacheOffNeverHits) {
  std::vector<std::string> Corpus = makeCorpus(5, /*Seed=*/3);
  Corpus.insert(Corpus.end(), Corpus.begin(), Corpus.begin() + 5);
  BatchOptions Opts;
  Opts.CacheEnabled = false;
  BatchProver Engine(Opts);
  for (const QueryResult &R : Engine.run(Corpus))
    EXPECT_FALSE(R.FromCache);
  EXPECT_EQ(Engine.stats().CacheHits, 0u);
  EXPECT_EQ(Engine.cache().size(), 0u);
}

TEST(BatchProver, ParseErrorsReportedInPlace) {
  std::vector<std::string> Corpus = {
      "x != y & next(x, y) |- lseg(x, y)",
      "this is not an entailment",
      "lseg(x, y) |- next(x, y)",
  };
  BatchProver Engine;
  std::vector<QueryResult> Results = Engine.run(Corpus);
  ASSERT_EQ(Results.size(), 3u);
  EXPECT_EQ(Results[0].Status, QueryStatus::Ok);
  EXPECT_EQ(Results[0].V, core::Verdict::Valid);
  EXPECT_EQ(Results[1].Status, QueryStatus::ParseError);
  EXPECT_FALSE(Results[1].Error.empty());
  EXPECT_STREQ(Results[1].verdictText(), "parse-error");
  EXPECT_EQ(Results[2].Status, QueryStatus::Ok);
  EXPECT_EQ(Results[2].V, core::Verdict::Invalid);
  EXPECT_EQ(Engine.stats().ParseErrors, 1u);
}

TEST(BatchProver, FuelBudgetYieldsUnknownNotHang) {
  std::vector<std::string> Corpus = makeCorpus(4, /*Seed=*/11);
  // A chain entailment that needs several metered inferences, so at
  // least one query is guaranteed to starve.
  Corpus.push_back(
      "x != y & y != z & x != z & next(x, y) * next(y, z) |- lseg(x, z)");
  std::vector<core::Verdict> Unlimited = sequentialVerdicts(Corpus);
  BatchOptions Opts;
  Opts.FuelPerQuery = 1; // Starvation budget.
  BatchProver Engine(Opts);
  std::vector<QueryResult> Results = Engine.run(Corpus);
  ASSERT_EQ(Results.size(), Corpus.size());
  size_t Starved = 0;
  for (size_t I = 0; I != Results.size(); ++I) {
    // A query either runs out of fuel or (if trivially decidable
    // before the first metered inference) matches the real verdict.
    if (Results[I].V == core::Verdict::Unknown)
      ++Starved;
    else
      EXPECT_EQ(Results[I].V, Unlimited[I]) << Corpus[I];
  }
  EXPECT_GT(Starved, 0u) << "fuel budget had no effect";
}

TEST(BatchProver, SplitCorpusSkipsBlanksAndComments) {
  std::vector<std::string> Lines = BatchProver::splitCorpus(
      "# comment\n\nnext(x, y) |- lseg(x, y)\n   \t\n// also comment\n"
      "lseg(a, b) |- lseg(a, b)");
  ASSERT_EQ(Lines.size(), 2u);
  EXPECT_EQ(Lines[0], "next(x, y) |- lseg(x, y)");
  EXPECT_EQ(Lines[1], "lseg(a, b) |- lseg(a, b)");
}
