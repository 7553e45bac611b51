//===- superposition/Clause.cpp - Pure clauses ----------------------------===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//

#include "superposition/Clause.h"

#include <algorithm>
#include <sstream>

using namespace slp;
using namespace slp::sup;

const char *slp::sup::ruleKindName(RuleKind K) {
  switch (K) {
  case RuleKind::Input:
    return "input";
  case RuleKind::SupLeft:
    return "sup-left";
  case RuleKind::SupRight:
    return "sup-right";
  case RuleKind::EqFact:
    return "eq-fact";
  case RuleKind::Demod:
    return "demod";
  }
  return "?";
}

static void canonicalize(std::vector<Equation> &Eqs) {
  std::sort(Eqs.begin(), Eqs.end());
  Eqs.erase(std::unique(Eqs.begin(), Eqs.end()), Eqs.end());
}

Clause::Clause(std::vector<Equation> Neg, std::vector<Equation> Pos)
    : NegEqs(std::move(Neg)), PosEqs(std::move(Pos)) {
  std::erase_if(NegEqs, [](const Equation &E) { return E.trivial(); });
  canonicalize(NegEqs);
  canonicalize(PosEqs);
  Hash = hashOf(NegEqs, PosEqs);
}

uint64_t Clause::hashOf(std::span<const Equation> Neg,
                        std::span<const Equation> Pos) {
  uint64_t H = hashValue(0x5157);
  for (const Equation &E : Neg)
    H = hashCombine(H, E.hash() * 2 + 1);
  for (const Equation &E : Pos)
    H = hashCombine(H, E.hash() * 2);
  return H;
}

// The set algorithms run on spans so the vector-backed Clause and the
// pool-backed ClauseView share one implementation.

static bool spanTautology(std::span<const Equation> Neg,
                          std::span<const Equation> Pos) {
  for (const Equation &E : Pos)
    if (E.trivial())
      return true;
  // Both sides are sorted; a linear sweep finds common equations.
  auto NI = Neg.begin();
  auto PI = Pos.begin();
  while (NI != Neg.end() && PI != Pos.end()) {
    if (*NI == *PI)
      return true;
    if (*NI < *PI)
      ++NI;
    else
      ++PI;
  }
  return false;
}

static bool sortedIncludes(std::span<const Equation> Small,
                           std::span<const Equation> Big) {
  return std::includes(Big.begin(), Big.end(), Small.begin(), Small.end());
}

static bool spanSubsumes(std::span<const Equation> ANeg,
                         std::span<const Equation> APos,
                         std::span<const Equation> BNeg,
                         std::span<const Equation> BPos) {
  if (ANeg.size() > BNeg.size() || APos.size() > BPos.size())
    return false;
  return sortedIncludes(ANeg, BNeg) && sortedIncludes(APos, BPos);
}

static std::string spanStr(const TermTable &Terms,
                           std::span<const Equation> Neg,
                           std::span<const Equation> Pos) {
  if (Neg.empty() && Pos.empty())
    return "[]";
  std::ostringstream OS;
  bool First = true;
  for (const Equation &E : Neg) {
    if (!First)
      OS << ", ";
    First = false;
    OS << Terms.str(E.lhs()) << " ' " << Terms.str(E.rhs());
  }
  OS << " -> ";
  First = true;
  for (const Equation &E : Pos) {
    if (!First)
      OS << ", ";
    First = false;
    OS << Terms.str(E.lhs()) << " ' " << Terms.str(E.rhs());
  }
  return OS.str();
}

bool Clause::isTautology() const { return spanTautology(NegEqs, PosEqs); }

bool Clause::subsumes(const Clause &Other) const {
  return spanSubsumes(NegEqs, PosEqs, Other.NegEqs, Other.PosEqs);
}

std::string Clause::str(const TermTable &Terms) const {
  return spanStr(Terms, NegEqs, PosEqs);
}

bool ClauseView::isTautology() const { return spanTautology(Neg, Pos); }

bool ClauseView::subsumes(ClauseView Other) const {
  return spanSubsumes(Neg, Pos, Other.Neg, Other.Pos);
}

std::string ClauseView::str(const TermTable &Terms) const {
  return spanStr(Terms, Neg, Pos);
}

//===----------------------------------------------------------------------===//
// Conclusions built from premise spans
//===----------------------------------------------------------------------===//

namespace {

/// True iff \p E occurs in sorted \p Eqs other than as \p Drop.
bool containsBut(std::span<const Equation> Eqs,
                 const std::optional<Equation> &Drop, const Equation &E) {
  return E != Drop && std::binary_search(Eqs.begin(), Eqs.end(), E);
}

/// True iff sorted \p A minus \p DropA and sorted \p B minus \p DropB
/// share an equation.
bool intersectsBut(std::span<const Equation> A,
                   const std::optional<Equation> &DropA,
                   std::span<const Equation> B,
                   const std::optional<Equation> &DropB) {
  auto AI = A.begin(), BI = B.begin();
  while (AI != A.end() && BI != B.end()) {
    if (*AI < *BI) {
      ++AI;
    } else if (*BI < *AI) {
      ++BI;
    } else {
      if (*AI != DropA && *AI != DropB)
        return true;
      ++AI;
      ++BI;
    }
  }
  return false;
}

/// Merges sorted \p A minus \p DropA, sorted \p B minus \p DropB
/// and \p New into \p Out, sorted and without duplicates.
void mergeSide(std::span<const Equation> A,
               const std::optional<Equation> &DropA,
               std::span<const Equation> B,
               const std::optional<Equation> &DropB,
               const std::optional<Equation> &New, std::vector<Equation> &Out) {
  Out.clear();
  auto Push = [&Out](const Equation &E) {
    if (Out.empty() || Out.back() != E)
      Out.push_back(E);
  };
  auto AI = A.begin(), BI = B.begin();
  bool NewPending = New.has_value();
  for (;;) {
    if (AI != A.end() && *AI == DropA)
      ++AI;
    if (BI != B.end() && *BI == DropB)
      ++BI;
    const bool HaveA = AI != A.end(), HaveB = BI != B.end();
    const bool TakeA = HaveA && (!HaveB || !(*BI < *AI));
    const Equation *Next = TakeA ? &*AI : HaveB ? &*BI : nullptr;
    if (NewPending && (!Next || *New < *Next)) {
      Push(*New);
      NewPending = false;
      continue;
    }
    if (!Next)
      return;
    Push(*Next);
    if (TakeA)
      ++AI;
    else
      ++BI;
  }
}

} // namespace

bool Conclusion::tautology() const {
  if (New) {
    if (!NewNegative && New->trivial())
      return true;
    for (unsigned I = 0; I != NumPremises; ++I) {
      const PremiseShare &P = Premises[I];
      if (NewNegative ? containsBut(P.Pos, P.DropPos, *New)
                      : containsBut(P.Neg, P.DropNeg, *New))
        return true;
    }
  }
  if (NumPremises < 2)
    return false;
  const PremiseShare &P = Premises[0], &Q = Premises[1];
  return intersectsBut(P.Neg, P.DropNeg, Q.Pos, Q.DropPos) ||
         intersectsBut(Q.Neg, Q.DropNeg, P.Pos, P.DropPos);
}

uint64_t Conclusion::build(std::vector<Equation> &Neg,
                           std::vector<Equation> &Pos) const {
  const PremiseShare &P = Premises[0];
  const PremiseShare Q = NumPremises > 1 ? Premises[1] : PremiseShare{};
  // Premise sides are canonical, so a trivial antecedent can only be
  // the new literal.
  const bool KeepNewNeg = NewNegative && New && !New->trivial();
  mergeSide(P.Neg, P.DropNeg, Q.Neg, Q.DropNeg,
            KeepNewNeg ? New : std::nullopt, Neg);
  mergeSide(P.Pos, P.DropPos, Q.Pos, Q.DropPos,
            NewNegative ? std::nullopt : New, Pos);
  return Clause::hashOf(Neg, Pos);
}
