//===- core/Normalization.cpp - Rules N1-N4 and W1-W5 ---------------------===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//

#include "core/Normalization.h"

#include <algorithm>

using namespace slp;
using namespace slp::core;

namespace {

/// Merges the residue of each distinct rewrite edge in \p Used into
/// (Neg, Pos) and keeps both canonical (sorted, deduplicated). Rule
/// N1/N3: the conclusion carries Γ' and ∆' of the generating clause
/// minus the equation x ' y that justified the replacement.
void addResidue(const sup::Saturation &Sat,
                std::vector<const RewriteRule *> &Used,
                std::vector<sup::Equation> &Neg,
                std::vector<sup::Equation> &Pos) {
  std::sort(Used.begin(), Used.end());
  Used.erase(std::unique(Used.begin(), Used.end()), Used.end());
  for (const RewriteRule *Rule : Used) {
    assert(Rule->GeneratingClause != ~0u &&
           "model edges must carry generating clauses");
    sup::ClauseView Gen = Sat.clause(Rule->GeneratingClause);
    sup::Equation EdgeEq(Rule->Lhs, Rule->Rhs);
    for (const sup::Equation &E : Gen.neg())
      Neg.push_back(E);
    for (const sup::Equation &E : Gen.pos())
      if (E != EdgeEq)
        Pos.push_back(E);
  }
  std::sort(Neg.begin(), Neg.end());
  Neg.erase(std::unique(Neg.begin(), Neg.end()), Neg.end());
  std::sort(Pos.begin(), Pos.end());
  Pos.erase(std::unique(Pos.begin(), Pos.end()), Pos.end());
}

/// N2/N4: drops the trivial lseg(x, x) atoms of \p Sigma.
void dropTrivialLsegs(sl::SpatialFormula &Sigma) {
  Sigma.erase(std::remove_if(
                  Sigma.begin(), Sigma.end(),
                  [](const sl::HeapAtom &A) { return A.isTrivialLseg(); }),
              Sigma.end());
}

} // namespace

NormalizedPos core::normalizeWithConsequences(const TermTable &Terms,
                                              const sup::Saturation &Sat,
                                              const GroundRewriteSystem &R,
                                              const PosSpatialClause &C) {
  // Term 2i is the address of atom i and term 2i + 1 its value; the
  // edges that normalized term t are Edges[Ends[t - 1], Ends[t]), from
  // 0 for t = 0.
  sl::SpatialFormula Sigma = C.Sigma;
  std::vector<const RewriteRule *> Edges;
  std::vector<size_t> Ends;
  Ends.reserve(2 * Sigma.size());
  for (sl::HeapAtom &A : Sigma) {
    A.Addr = R.normalizeTracked(A.Addr, Edges);
    Ends.push_back(Edges.size());
    A.Val = R.normalizeTracked(A.Val, Edges);
    Ends.push_back(Edges.size());
  }

  NormalizedPos Out;

  // Each W consequence comes from Γ → ∆, Σ with only the terms its rule
  // reads normalized (N1/N3 on those occurrences alone), so it carries
  // only their edges' residue.
  std::vector<const RewriteRule *> Used;
  auto Emit = [&](const char *Rule, std::initializer_list<size_t> Read,
                  sl::SpatialFormula Atoms,
                  std::initializer_list<sup::Equation> Extra) {
    Used.clear();
    for (size_t T : Read)
      Used.insert(Used.end(), Edges.begin() + (T ? Ends[T - 1] : 0),
                  Edges.begin() + Ends[T]);
    PosSpatialClause Premise{C.Neg, C.Pos, std::move(Atoms)};
    addResidue(Sat, Used, Premise.Neg, Premise.Pos);
    PureInput W;
    W.Label = std::string(Rule) + " on " + str(Terms, Premise);
    W.Neg = std::move(Premise.Neg);
    W.Pos = std::move(Premise.Pos);
    W.Pos.insert(W.Pos.end(), Extra);
    Out.WConsequences.push_back(std::move(W));
  };

  // The rules read the atoms that N2/N4 keep: trivial lsegs are skipped.
  for (size_t I = 0; I != Sigma.size(); ++I) {
    const sl::HeapAtom &A = Sigma[I];
    if (A.isTrivialLseg())
      continue;

    // W1/W2: nil may not address a heap cell.
    if (A.Addr->isNil()) {
      if (A.isNext())
        Emit("W1", {2 * I}, {A}, {});
      else
        Emit("W2", {2 * I, 2 * I + 1}, {A}, {sup::Equation(A.Val, A.Addr)});
    }

    // W3/W4/W5: two disjoint cells cannot share an address.
    for (size_t J = I + 1; J != Sigma.size(); ++J) {
      const sl::HeapAtom &B = Sigma[J];
      if (B.isTrivialLseg() || A.Addr != B.Addr)
        continue;
      if (A.isNext() && B.isNext()) {
        Emit("W3", {2 * I, 2 * J}, {A, B}, {});
      } else if (A.isNext() || B.isNext()) {
        // W4: the lseg of the pair must be empty.
        const size_t L = A.isLseg() ? I : J;
        Emit("W4", {2 * I, 2 * J, 2 * L + 1}, {A, B},
             {sup::Equation(Sigma[L].Addr, Sigma[L].Val)});
      } else {
        // W5: one of the two lsegs must be empty.
        Emit("W5", {2 * I, 2 * I + 1, 2 * J, 2 * J + 1}, {A, B},
             {sup::Equation(A.Addr, A.Val), sup::Equation(B.Addr, B.Val)});
      }
    }
  }

  // Norm(⟨R, g⟩; C) itself carries the residue of every edge used.
  Out.C.Neg = C.Neg;
  Out.C.Pos = C.Pos;
  addResidue(Sat, Edges, Out.C.Neg, Out.C.Pos);
  Out.C.Sigma = std::move(Sigma);
  dropTrivialLsegs(Out.C.Sigma);
  return Out;
}

NegSpatialClause core::normalize(const sup::Saturation &Sat,
                                 const GroundRewriteSystem &R,
                                 const NegSpatialClause &C) {
  NegSpatialClause Out = C;
  std::vector<const RewriteRule *> Used;
  for (sl::HeapAtom &A : Out.Sigma) {
    A.Addr = R.normalizeTracked(A.Addr, Used);
    A.Val = R.normalizeTracked(A.Val, Used);
  }
  addResidue(Sat, Used, Out.Neg, Out.Pos);
  dropTrivialLsegs(Out.Sigma);
  return Out;
}

bool core::isWellFormed(const sl::SpatialFormula &Sigma) {
  for (size_t I = 0; I != Sigma.size(); ++I) {
    if (Sigma[I].Addr->isNil())
      return false;
    for (size_t J = I + 1; J != Sigma.size(); ++J)
      if (Sigma[I].Addr == Sigma[J].Addr)
        return false;
  }
  return true;
}
