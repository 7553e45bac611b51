//===- core/Prover.cpp - The SLP entailment prover ---------------------------===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//

#include "core/Prover.h"

#include "core/ModelAdapter.h"
#include "core/Normalization.h"
#include "core/Unfolding.h"

using namespace slp;
using namespace slp::core;

const char *core::verdictName(Verdict V) {
  switch (V) {
  case Verdict::Valid:
    return "valid";
  case Verdict::Invalid:
    return "invalid";
  case Verdict::Unknown:
    return "unknown";
  }
  return "?";
}

SlpProver::SlpProver(TermTable &Terms, ProverOptions Opts)
    : Terms(Terms), Opts(Opts) {}

void SlpProver::onTermTableReset() {
  if (Sat)
    Sat->clear(); // Stored clauses hold pointers into the rewound arena.
  Labels.clear();
  Kbo.invalidateCache(); // Weight memo is term-id-keyed.
}

bool SlpProver::addPure(PureInput In) {
  uint32_t Tag = static_cast<uint32_t>(Labels.size());
  auto [Id, New] =
      Sat->addInput(std::move(In.Neg), std::move(In.Pos), Tag);
  (void)Id;
  Labels.push_back(std::move(In.Label));
  return New;
}

ProveResult SlpProver::prove(const sl::Entailment &E, Fuel &F) {
  // Fresh clause database per query; the Saturation instance itself is
  // reused (clear() restores the freshly constructed state, keeping
  // the index pools' allocations warm across queries).
  if (Sat) {
    Sat->clear();
  } else {
    const TermOrder &Ord =
        Opts.Ordering == OrderingChoice::Lpo
            ? static_cast<const TermOrder &>(Lpo)
            : static_cast<const TermOrder &>(Kbo);
    Sat = std::make_unique<sup::Saturation>(Terms, Ord, Opts.Sat);
  }
  Labels.clear();

  ProveResult Result;
  ClausalForm CF = cnf(Terms, E);

  // Line 2: S := Pure(cnf(E)).
  for (PureInput &In : CF.PureClauses)
    addPure(std::move(In));

  // All constants of the query (nil included) for the induced stack.
  std::vector<const Term *> Constants;
  Constants.push_back(Terms.nil());
  E.collectTerms(Constants);

  auto Finish = [&](Verdict V, std::optional<sl::CounterModel> Cex) {
    Result.V = V;
    Result.Cex = std::move(Cex);
    static_cast<sup::SaturationStats &>(Result.Stats) = Sat->stats();
    Result.Stats.PureClauses = Sat->numClauses();
    Result.Stats.FuelUsed = F.used();
    return Result;
  };

  for (unsigned Outer = 0; Outer != Opts.MaxOuterIterations; ++Outer) {
    ++Result.Stats.OuterIterations;

    // Inner loop (lines 4-10): saturate, model, normalize, W-rules.
    std::optional<GroundRewriteSystem> R;
    PosSpatialClause C;
    for (;;) {
      ++Result.Stats.InnerIterations;
      // Lines 5-7: saturate and extract ⟨R, g⟩. The model-guided mode
      // stops at the first *certified* model, which is all the spatial
      // phases need (see Saturation::saturateModelGuided).
      switch (Sat->saturateModelGuided(F, R)) {
      case sup::SatResult::Unsatisfiable:
        return Finish(Verdict::Valid, std::nullopt); // Line 6.
      case sup::SatResult::OutOfFuel:
        return Finish(Verdict::Unknown, std::nullopt);
      case sup::SatResult::Saturated:
        break;
      }
      // Line 8, with the W consequences of line 9 read off the same
      // pass, each scoped to the edges of the terms it reads.
      NormalizedPos N = normalizeWithConsequences(Terms, *Sat, *R, CF.PosSigma);
      C = std::move(N.C);

      // Line 9: S := S* ∪ PCns_W({C}); exit on fixpoint (line 10).
      bool AnyNew = false;
      for (PureInput &In : N.WConsequences)
        AnyNew |= addPure(std::move(In));
      if (!AnyNew)
        break;
    }
    assert(isWellFormed(C.Sigma) &&
           "inner fixpoint must leave Σ_R well-formed (Lemma 4.3)");

    sl::Stack SR = inducedStack(*R, Constants);

    // Line 11: if R does not model Π', (s_R, gr_R Σ_R) refutes E.
    bool ModelsRhsPure = true;
    for (const sup::Equation &Eq : CF.NegSigma.Neg) // Π'+
      ModelsRhsPure &= R->equivalent(Eq.lhs(), Eq.rhs());
    for (const sup::Equation &Eq : CF.NegSigma.Pos) // Π'−
      ModelsRhsPure &= !R->equivalent(Eq.lhs(), Eq.rhs());
    if (!ModelsRhsPure)
      return Finish(Verdict::Invalid,
                    sl::CounterModel{SR, graphHeap(SR, C.Sigma)});

    // Line 12: normalize the negative spatial clause.
    NegSpatialClause CPrime = normalize(*Sat, *R, CF.NegSigma);

    // Line 13: unfolding; either one new pure clause or a countermodel
    // (line 14, via the constructive version of Lemma 4.4).
    UnfoldResult U = unfold(Terms, SR, C, CPrime);
    if (U.K == UnfoldResult::Kind::CounterModel)
      return Finish(Verdict::Invalid,
                    sl::CounterModel{SR, std::move(U.Cex)});

    if (!addPure(std::move(U.Derived))) {
      // Unreachable in theory: a clause derived by a successful walk
      // is falsified by R while every stored clause is satisfied by R.
      assert(false && "unfolding derived a clause that was not new");
      return Finish(Verdict::Unknown, std::nullopt);
    }
  }
  return Finish(Verdict::Unknown, std::nullopt);
}
