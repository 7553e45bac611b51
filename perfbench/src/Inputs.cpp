//===- perfbench/src/Inputs.cpp - Seeded workload inputs ------------------===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//

#include "Inputs.h"

#include "gen/Cloning.h"
#include "gen/RandomEntailments.h"
#include "sl/Parser.h"
#include "symexec/Corpus.h"
#include "symexec/SymbolicExec.h"
#include "support/Random.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <unordered_map>

using namespace slp;

namespace slpbench {

namespace {

// The deadlines sit well above the slowest instance that finishes on
// its own (a t1-paper vars=13 instance, ~4.6 s on a 4-core x86 VM), so the
// undecided count repeats exactly; only the vars=20 fuel-defect
// instance of t1-paper reaches it. vc-batch has no per-query deadline
// in BatchProver; its value cancels a whole run() as a safety net.
const WorkloadSpec Workloads[] = {
    {WorkloadKind::T1Paper, "t1-paper", 1, 100, 12000, false, 10000},
    {WorkloadKind::T2Entail, "t2-entail", 2, 100, 50000, true, 10000},
    {WorkloadKind::VcBatch, "vc-batch", 0, 3, 200000, true, 60000},
};

/// Table 1 rows: (vars, P_lseg, P_≠) exactly as printed in the paper.
struct Table1Row {
  unsigned Vars;
  double PLseg, PNe;
};
const Table1Row Table1Rows[] = {
    {10, 0.10, 0.20}, {11, 0.09, 0.15}, {12, 0.09, 0.11}, {13, 0.08, 0.11},
    {14, 0.07, 0.11}, {15, 0.06, 0.12}, {16, 0.05, 0.17}, {17, 0.05, 0.13},
    {18, 0.04, 0.20}, {19, 0.04, 0.15}, {20, 0.04, 0.11},
};
constexpr double Table2PNext = 0.7;
constexpr unsigned MaxCopies = 8; // Table 3's clone range is 1..8.

/// Renders \p E with its constants renamed by a seeded permutation of
/// x0..x(n-1); nil stays nil. Constants keep their order of first
/// occurrence, so the parser assigns the same term ids either way.
std::string renamed(TermTable &Terms, const sl::Entailment &E,
                    SplitMix64 &Rng) {
  std::vector<const Term *> Seen;
  E.collectTerms(Seen);
  std::vector<const Term *> Constants;
  std::unordered_map<const Term *, const Term *> Map;
  for (const Term *T : Seen)
    if (!T->isNil() && Map.emplace(T, nullptr).second)
      Constants.push_back(T);
  std::vector<unsigned> Perm(Constants.size());
  for (unsigned I = 0; I != Perm.size(); ++I)
    Perm[I] = I;
  for (size_t I = Perm.size(); I > 1; --I)
    std::swap(Perm[I - 1], Perm[Rng.below(I)]);
  for (size_t I = 0; I != Constants.size(); ++I) {
    std::string Name = "x";
    Name += std::to_string(Perm[I]);
    Map[Constants[I]] = Terms.constant(Name);
  }

  auto M = [&](const Term *T) { return T->isNil() ? T : Map.at(T); };
  auto MapAssertion = [&](const sl::Assertion &A) {
    sl::Assertion Out;
    for (const sl::PureAtom &P : A.Pure)
      Out.Pure.push_back({M(P.Lhs), M(P.Rhs), P.Negated});
    for (const sl::HeapAtom &H : A.Spatial)
      Out.Spatial.push_back({H.Kind, M(H.Addr), M(H.Val)});
    return Out;
  };
  return sl::str(Terms,
                 sl::Entailment{MapAssertion(E.Lhs), MapAssertion(E.Rhs)});
}

/// The regression corpus: each query line preceded by its
/// `# expect: valid|invalid` label.
std::optional<std::string>
readRegression(const std::string &Path,
               std::vector<std::pair<std::string, core::Verdict>> &Out) {
  std::ifstream In(Path);
  if (!In)
    return "cannot read " + Path;
  std::string Line;
  core::Verdict Label = core::Verdict::Unknown; // Unknown: no label yet.
  unsigned LineNo = 0;
  while (std::getline(In, Line)) {
    ++LineNo;
    size_t B = Line.find_first_not_of(" \t\r");
    if (B == std::string::npos)
      continue;
    std::string_view L(Line.data() + B, Line.size() - B);
    if (L.starts_with("#")) {
      if (L == "# expect: valid")
        Label = core::Verdict::Valid;
      else if (L == "# expect: invalid")
        Label = core::Verdict::Invalid;
      continue;
    }
    if (Label == core::Verdict::Unknown)
      return Path + ":" + std::to_string(LineNo) + ": query without label";
    Out.emplace_back(std::string(L), Label);
    Label = core::Verdict::Unknown;
  }
  if (Out.empty())
    return Path + ": no labelled queries";
  return std::nullopt;
}

} // namespace

const WorkloadSpec *findWorkload(const std::string &Name) {
  for (const WorkloadSpec &W : Workloads)
    if (Name == W.Name)
      return &W;
  return nullptr;
}

std::string workloadNames() {
  std::string S;
  for (const WorkloadSpec &W : Workloads)
    S += (S.empty() ? "" : ", ") + std::string(W.Name);
  return S;
}

std::optional<std::string> makeInputs(const WorkloadSpec &W,
                                      uint64_t CorpusSeed, unsigned Scale,
                                      uint64_t Seed,
                                      const std::string &RegressionPath,
                                      Inputs &Out) {
  Out = Inputs();
  // Stream 0 renames, stream 1 shuffles; both depend on the run seed
  // only, never on the corpus.
  SplitMix64 Names = SplitMix64::forStream(Seed, 0);
  SplitMix64 Order = SplitMix64::forStream(Seed, 1);

  switch (W.Kind) {
  case WorkloadKind::T1Paper:
  case WorkloadKind::T2Entail:
    for (unsigned R = 0; R != 11; ++R) {
      // Both tables have the rows vars = 10..20. One table and one
      // generator per row, seeded alike, exactly as bench_table1,
      // bench_table2 and slpgen do, so instance i of a row is slpgen's
      // line i+1.
      SymbolTable Symbols;
      TermTable Terms(Symbols);
      SplitMix64 Rng(CorpusSeed);
      const unsigned Vars = Table1Rows[R].Vars;
      for (unsigned I = 0; I != Scale; ++I) {
        sl::Entailment E =
            W.Kind == WorkloadKind::T1Paper
                ? gen::distribution1(Terms, Rng, Vars, Table1Rows[R].PLseg,
                                     Table1Rows[R].PNe)
                : gen::distribution2(Terms, Rng, Vars, Table2PNext);
        Out.Queries.push_back({renamed(Terms, E, Names), Vars, I, {}});
      }
    }
    break;

  case WorkloadKind::VcBatch: {
    SymbolTable Symbols;
    TermTable Terms(Symbols);
    std::vector<sl::Entailment> VCs;
    auto T0 = std::chrono::steady_clock::now();
    for (const symexec::Program &P : symexec::corpus(Terms)) {
      symexec::VcGenResult R = symexec::generateVCs(Terms, P);
      if (!R.ok())
        return "symbolic execution of " + P.Name + " failed: " + *R.Error;
      for (symexec::VC &V : R.VCs)
        VCs.push_back(std::move(V.E));
    }
    Out.VcGenSeconds = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - T0)
                           .count();

    std::vector<std::pair<std::string, core::Verdict>> Regression;
    if (std::optional<std::string> Err =
            readRegression(RegressionPath, Regression))
      return Err;
    std::vector<sl::Entailment> Parsed;
    for (const auto &[Text, Label] : Regression) {
      sl::ParseResult P = sl::parseEntailment(Terms, Text);
      if (!P.ok())
        return RegressionPath + ": " + P.Error->render();
      Parsed.push_back(std::move(*P.Value));
    }

    for (unsigned Issue = 0; Issue != Scale; ++Issue) {
      for (unsigned Copies = 1; Copies <= MaxCopies; ++Copies)
        for (unsigned I = 0; I != VCs.size(); ++I)
          Out.Queries.push_back(
              {renamed(Terms, gen::cloneEntailment(Terms, VCs[I], Copies),
                       Names),
               Copies, I, core::Verdict::Valid});
      for (unsigned I = 0; I != Parsed.size(); ++I)
        Out.Queries.push_back(
            {renamed(Terms, Parsed[I], Names), 0, I, Regression[I].second});
    }
    break;
  }
  }

  for (size_t I = Out.Queries.size(); I > 1; --I)
    std::swap(Out.Queries[I - 1], Out.Queries[Order.below(I)]);
  return std::nullopt;
}

} // namespace slpbench
