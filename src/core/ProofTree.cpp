//===- core/ProofTree.cpp - Figure-4 style proof trees -----------------------===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//

#include "core/ProofTree.h"

#include <set>
#include <sstream>

using namespace slp;
using namespace slp::core;

namespace {

void visit(const sup::Saturation &Sat, const std::vector<std::string> &Labels,
           uint32_t Id, std::set<uint32_t> &Seen,
           std::vector<ProofStep> &Out) {
  if (Seen.count(Id))
    return;
  Seen.insert(Id);

  const sup::Justification &J = Sat.justification(Id);
  for (uint32_t Parent : J.Parents)
    visit(Sat, Labels, Parent, Seen, Out);

  ProofStep Step;
  Step.ClauseId = Id;
  Step.ClauseText = Sat.clause(Id).str(Sat.terms());
  std::ostringstream OS;
  if (J.Kind == sup::RuleKind::Input) {
    OS << "input";
    if (J.ExternalTag != ~0u && J.ExternalTag < Labels.size())
      OS << ": " << Labels[J.ExternalTag];
  } else {
    // The rule's premises, then the units cut from its conclusion:
    // e.g. "sup-left(248, 6) cut(5)".
    auto List = [&OS](std::span<const uint32_t> Ids) {
      OS << '(';
      for (size_t I = 0; I != Ids.size(); ++I)
        OS << (I ? ", " : "") << Ids[I];
      OS << ')';
    };
    const size_t NumRule = J.Parents.size() - J.NumCut;
    OS << ruleKindName(J.Kind);
    List(J.Parents.first(NumRule));
    if (J.NumCut) {
      OS << " cut";
      List(J.Parents.subspan(NumRule));
    }
  }
  Step.RuleText = OS.str();
  Out.push_back(std::move(Step));
}

} // namespace

std::vector<ProofStep>
core::extractProof(const sup::Saturation &Sat,
                   const std::vector<std::string> &Labels, uint32_t RootId) {
  std::set<uint32_t> Seen;
  std::vector<ProofStep> Out;
  visit(Sat, Labels, RootId, Seen, Out);
  return Out;
}

std::string core::renderRefutation(const sup::Saturation &Sat,
                                   const std::vector<std::string> &Labels) {
  assert(Sat.hasEmptyClause() && "no refutation to render");
  std::vector<ProofStep> Steps =
      extractProof(Sat, Labels, Sat.emptyClauseId());
  std::ostringstream OS;
  for (const ProofStep &S : Steps)
    OS << '[' << S.ClauseId << "] " << S.ClauseText << "   <- " << S.RuleText
       << '\n';
  return OS.str();
}
