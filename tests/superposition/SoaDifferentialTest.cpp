//===- tests/superposition/SoaDifferentialTest.cpp ------------------------===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Differential safety net for the struct-of-arrays clause-database
/// layout: verdicts, countermodels, and fuel consumption over the
/// regression corpus, Table 1/2-style random batches, and the symexec
/// VC corpus must be bit-identical to the snapshots taken before the
/// refactor (tests/data/soa_golden.txt). Any layout or ordering change
/// that perturbs a single inference shows up as a one-line diff here.
/// tests/data/search_counters_golden.txt pins the saturation search of
/// the same queries (fuel plus the inference and redundancy counters)
/// on both the indexed and the linear subsumption path.
///
/// Regenerate (only after independently validating the new behavior,
/// e.g. against the indexed-vs-linear and incremental-vs-scratch
/// differential suites) with SLP_REGEN_SOA_GOLDEN=1 or
/// SLP_REGEN_SEARCH_GOLDEN=1.
///
//===----------------------------------------------------------------------===//

#include "core/ProverSession.h"
#include "engine/VcTasks.h"
#include "gen/RandomEntailments.h"
#include "sl/Parser.h"
#include "sl/Semantics.h"

#include "../TestUtil.h"

#include <cstdlib>
#include <fstream>
#include <gtest/gtest.h>
#include <sstream>

using namespace slp;

namespace {

/// Locates tests/data/<File> relative to the build directory the test
/// binary happens to run from (same upward search as the
/// regression-corpus loader).
std::string dataPath(const std::string &File) {
  for (const char *Up : {"", "../", "../../", "../../../", "../../../../"}) {
    std::string Path = std::string(Up) + "tests/data/" + File;
    std::ifstream In(Path);
    if (In)
      return Path;
  }
  return "";
}

/// One snapshot corpus: its queries and the per-query fuel budget
/// (0 = unlimited).
struct Corpus {
  std::string Name;
  std::vector<std::string> Queries;
  uint64_t FuelPerQuery;
};

/// Proves every query of \p C in one long-lived session (the engine's
/// lifecycle) and renders one snapshot line per query:
///   <corpus>:<index> <Render(Session, Result)>
template <typename RenderT>
void snapshotCorpus(const Corpus &C, const core::ProverOptions &Opts,
                    std::ostream &OS, RenderT &&Render) {
  core::ProverSession Session(Opts);
  for (size_t I = 0; I != C.Queries.size(); ++I) {
    Session.reset();
    sl::ParseResult P = sl::parseEntailment(Session.terms(), C.Queries[I]);
    ASSERT_TRUE(P.ok()) << C.Name << ":" << I << " " << C.Queries[I];
    Fuel F = C.FuelPerQuery ? Fuel(C.FuelPerQuery) : Fuel();
    core::ProveResult R = Session.prove(*P.Value, F);
    OS << C.Name << ":" << I << " ";
    Render(Session, R);
    OS << "\n";
  }
}

/// Renders \p N generator instances into concrete syntax.
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

/// The snapshot corpora and their budgets: the regression corpus,
/// Table 1/2-style random batches, and the symexec VC corpus.
std::vector<Corpus> snapshotCorpora() {
  std::vector<Corpus> Out;
  std::vector<std::string> Regression = test::regressionQueryLines();
  EXPECT_FALSE(Regression.empty()) << "data/regression.slp not found";
  Out.push_back({"regression", std::move(Regression), 0});

  // Table 1 distribution, including rows heavy enough to time out at
  // this budget — OutOfFuel paths must burn bit-identical fuel too.
  for (unsigned Vars : {10u, 13u})
    Out.push_back({"dist1-v" + std::to_string(Vars),
                   render(25, 1000 + Vars,
                          [Vars](TermTable &T, SplitMix64 &R) {
                            return gen::distribution1(T, R, Vars, 0.08, 0.15);
                          }),
                   12000});

  // Table 2 distribution (deep lseg chains; demodulation heavy).
  for (unsigned Vars : {10u, 12u})
    Out.push_back({"dist2-v" + std::to_string(Vars),
                   render(20, 2000 + Vars,
                          [Vars](TermTable &T, SplitMix64 &R) {
                            return gen::distribution2(T, R, Vars, 0.7);
                          }),
                   20000});

  // Table 3: the 46 symbolic-execution verification conditions.
  engine::VcTaskSet Vcs = engine::symexecVcTasks();
  EXPECT_TRUE(Vcs.ok()) << Vcs.Error.value_or("");
  std::vector<std::string> VcQueries;
  for (const core::ProofTask &T : Vcs.Tasks)
    VcQueries.push_back(T.Text);
  Out.push_back({"symexec-vc", std::move(VcQueries), 0});
  return Out;
}

/// Compares \p Snap line by line with tests/data/<File>, or rewrites
/// that file with it when \p Regenerate is set.
void expectMatchesGolden(const std::string &File, bool Regenerate,
                         const std::string &Snap) {
  std::string Path = dataPath(File);
  if (Regenerate) {
    ASSERT_FALSE(Path.empty())
        << "create an (empty) tests/data/" << File
        << " first so the regeneration can locate it";
    std::ofstream Out(Path, std::ios::trunc);
    Out << Snap;
    GTEST_SKIP() << "regenerated " << Path;
  }

  ASSERT_FALSE(Path.empty()) << "tests/data/" << File << " not found";
  std::ifstream In(Path);
  std::ostringstream Golden;
  Golden << In.rdbuf();
  std::istringstream Got(Snap), Want(Golden.str());
  std::string GotLine, WantLine;
  size_t LineNo = 0;
  while (std::getline(Want, WantLine)) {
    ++LineNo;
    ASSERT_TRUE(static_cast<bool>(std::getline(Got, GotLine)))
        << "snapshot ends early at golden line " << LineNo;
    ASSERT_EQ(GotLine, WantLine) << "first divergence at line " << LineNo;
  }
  ASSERT_FALSE(static_cast<bool>(std::getline(Got, GotLine)))
      << "snapshot has extra lines past the golden file";
}

} // namespace

TEST(SoaDifferentialTest, MatchesPreRefactorSnapshots) {
  std::ostringstream Snap;
  for (const Corpus &C : snapshotCorpora())
    snapshotCorpus(C, {}, Snap,
                   [&Snap](core::ProverSession &S, const core::ProveResult &R) {
                     Snap << core::verdictName(R.V)
                          << " fuel=" << R.Stats.FuelUsed << " cex=";
                     if (R.Cex)
                       Snap << sl::str(S.terms(), R.Cex->S, R.Cex->H);
                   });
  expectMatchesGolden("soa_golden.txt", std::getenv("SLP_REGEN_SOA_GOLDEN"),
                      Snap.str());
}

// The saturation search itself — fuel and the inference/redundancy
// counters of every query — pinned on both subsumption paths. Kernel
// changes that only make each step cheaper (conclusion construction,
// subsumer lookup, clause storage) must leave every line unchanged;
// only the candidate-test counters (SubChecks, SubScanBaseline) are
// free to move, so they are not recorded.
TEST(SoaDifferentialTest, SearchCountersMatchGolden) {
  const std::vector<Corpus> Corpora = snapshotCorpora();
  for (bool Indexed : {true, false}) {
    SCOPED_TRACE(Indexed ? "indexed subsumption" : "linear subsumption");
    core::ProverOptions Opts;
    Opts.Sat.IndexedSubsumption = Indexed;
    std::ostringstream Snap;
    for (const Corpus &C : Corpora)
      snapshotCorpus(
          C, Opts, Snap,
          [&Snap](core::ProverSession &S, const core::ProveResult &R) {
            const sup::SaturationStats &St = S.prover().saturation().stats();
            Snap << "fuel=" << R.Stats.FuelUsed << " derived=" << St.Derived
                 << " kept=" << St.Kept << " taut=" << St.Tautologies
                 << " fwd=" << St.SubsumedFwd << " bwd=" << St.SubsumedBwd
                 << " demod=" << St.Demodulated << " cut=" << St.Cut;
          });
    // Regenerate from the indexed path only; the linear path is then
    // checked against the new file.
    expectMatchesGolden("search_counters_golden.txt",
                        Indexed && std::getenv("SLP_REGEN_SEARCH_GOLDEN"),
                        Snap.str());
  }
}
