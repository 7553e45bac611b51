//===- tests/baselines/DifferentialTest.cpp -------------------------------------===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Differential agreement across the backends, over the regression
/// corpus and the paper's Table 1-3 workloads:
///
///   - every Berdine verdict (both are complete) equals SLP's;
///   - every Unfolding Valid is an SLP Valid (sound, incomplete);
///   - engine verdicts with --backend=portfolio are bit-identical to
///     --backend=slp.
///
/// This is the soundness net under the portfolio: the race may accept
/// a verdict from any member, so members must never disagree.
///
//===----------------------------------------------------------------------===//

#include "baselines/Backends.h"
#include "core/Backend.h"
#include "engine/BatchProver.h"
#include "engine/VcTasks.h"
#include "gen/RandomEntailments.h"
#include "sl/Parser.h"

#include "../TestUtil.h"

#include <gtest/gtest.h>

using namespace slp;

namespace {

/// Cross-checks one textual entailment across the three backends.
/// \p BaselineFuel bounds the Berdine search (its blowup is the point
/// of the paper); exhausted searches are skipped, not failed.
void crossCheck(const std::string &Query, uint64_t BaselineFuel,
                core::SlpBackend &Slp, baselines::BerdineBackend &Berdine,
                baselines::UnfoldingBackend &Unfolding) {
  core::ProofTask Task{Query, "", 0};

  Fuel FS;
  core::BackendResult S = Slp.prove(Task, FS);
  ASSERT_TRUE(S.Parsed) << Query;
  ASSERT_NE(S.V, core::Verdict::Unknown) << Query;

  Fuel FB(BaselineFuel);
  core::BackendResult B = Berdine.prove(Task, FB);
  if (B.V != core::Verdict::Unknown) {
    EXPECT_EQ(B.V, S.V) << "berdine disagrees with slp on: " << Query;
  }

  Fuel FU(BaselineFuel);
  core::BackendResult U = Unfolding.prove(Task, FU);
  EXPECT_NE(U.V, core::Verdict::Invalid)
      << "the unfolder must never claim invalidity: " << Query;
  if (U.V == core::Verdict::Valid) {
    EXPECT_EQ(S.V, core::Verdict::Valid)
        << "unfolding proved a non-theorem: " << Query;
  }
}

class DifferentialTest : public ::testing::Test {
protected:
  core::SlpBackend Slp;
  baselines::BerdineBackend Berdine;
  baselines::UnfoldingBackend Unfolding;

  void crossCheckAll(const std::vector<std::string> &Queries,
                     uint64_t BaselineFuel) {
    for (const std::string &Q : Queries)
      crossCheck(Q, BaselineFuel, Slp, Berdine, Unfolding);
  }
};

/// Renders \p N instances from a generator into concrete syntax.
template <typename Gen>
std::vector<std::string> render(unsigned N, uint64_t Seed, Gen &&G) {
  SymbolTable Syms;
  TermTable Terms(Syms);
  SplitMix64 Rng(Seed);
  std::vector<std::string> Out;
  Out.reserve(N);
  for (unsigned I = 0; I != N; ++I)
    Out.push_back(sl::str(Terms, G(Terms, Rng)));
  return Out;
}

} // namespace

TEST_F(DifferentialTest, RegressionCorpusAgrees) {
  std::vector<std::string> Queries = test::regressionQueryLines();
  ASSERT_FALSE(Queries.empty()) << "data/regression.slp not found";
  crossCheckAll(Queries, /*BaselineFuel=*/5'000'000);
}

TEST_F(DifferentialTest, Table1DistributionAgrees) {
  for (unsigned Vars : {10u, 13u})
    crossCheckAll(render(25, 1000 + Vars,
                         [Vars](TermTable &T, SplitMix64 &R) {
                           return gen::distribution1(T, R, Vars, 0.08, 0.15);
                         }),
                  /*BaselineFuel=*/2'000'000);
}

TEST_F(DifferentialTest, Table2DistributionAgrees) {
  for (unsigned Vars : {10u, 12u})
    crossCheckAll(render(20, 2000 + Vars,
                         [Vars](TermTable &T, SplitMix64 &R) {
                           return gen::distribution2(T, R, Vars, 0.7);
                         }),
                  /*BaselineFuel=*/2'000'000);
}

TEST_F(DifferentialTest, Table3VcCorpusAgrees) {
  engine::VcTaskSet Vcs = engine::symexecVcTasks();
  ASSERT_TRUE(Vcs.ok());
  std::vector<std::string> Queries;
  for (const core::ProofTask &T : Vcs.Tasks)
    Queries.push_back(T.Text);
  ASSERT_EQ(Queries.size(), 46u);
  crossCheckAll(Queries, /*BaselineFuel=*/5'000'000);
}

//===----------------------------------------------------------------------===//
// Portfolio verdicts are bit-identical to --backend=slp
//===----------------------------------------------------------------------===//

namespace {

void expectPortfolioMatchesSlp(const std::vector<core::ProofTask> &Tasks,
                               unsigned Jobs) {
  engine::BatchOptions SlpOpts;
  SlpOpts.Jobs = Jobs;
  std::vector<engine::QueryResult> Want =
      engine::BatchProver(SlpOpts).run(Tasks);

  engine::BatchOptions PortOpts;
  PortOpts.Jobs = Jobs;
  PortOpts.Backend = engine::BackendKind::Portfolio;
  std::vector<engine::QueryResult> Got =
      engine::BatchProver(PortOpts).run(Tasks);

  ASSERT_EQ(Got.size(), Want.size());
  for (size_t I = 0; I != Got.size(); ++I) {
    EXPECT_EQ(Got[I].Status, Want[I].Status) << Tasks[I].Text;
    EXPECT_EQ(Got[I].V, Want[I].V) << Tasks[I].Text;
  }
}

std::vector<core::ProofTask> asTasks(const std::vector<std::string> &Qs) {
  std::vector<core::ProofTask> Tasks;
  for (const std::string &Q : Qs)
    Tasks.push_back({Q, "", 0});
  return Tasks;
}

} // namespace

TEST(PortfolioIdentityTest, RegressionCorpus) {
  std::vector<std::string> Queries = test::regressionQueryLines();
  ASSERT_FALSE(Queries.empty()) << "data/regression.slp not found";
  expectPortfolioMatchesSlp(asTasks(Queries), /*Jobs=*/2);
}

TEST(PortfolioIdentityTest, VcCorpus) {
  engine::VcTaskSet Vcs = engine::symexecVcTasks();
  ASSERT_TRUE(Vcs.ok());
  expectPortfolioMatchesSlp(Vcs.Tasks, /*Jobs=*/2);
}

TEST(PortfolioIdentityTest, Table1Sample) {
  std::vector<std::string> Queries;
  {
    SymbolTable Syms;
    TermTable Terms(Syms);
    SplitMix64 Rng(77);
    for (unsigned I = 0; I != 30; ++I)
      Queries.push_back(
          sl::str(Terms, gen::distribution1(Terms, Rng, 12, 0.09, 0.11)));
  }
  expectPortfolioMatchesSlp(asTasks(Queries), /*Jobs=*/2);
}
