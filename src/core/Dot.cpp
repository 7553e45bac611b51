//===- core/Dot.cpp - Graphviz renderings --------------------------------------===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//

#include "core/Dot.h"

#include <map>
#include <set>
#include <sstream>

using namespace slp;
using namespace slp::core;

namespace {

/// Escapes a label for DOT double-quoted strings.
std::string escape(const std::string &S) {
  std::string Out;
  Out.reserve(S.size());
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out.push_back('\\');
    Out.push_back(C);
  }
  return Out;
}

} // namespace

std::string core::proofToDot(const sup::Saturation &Sat,
                             const std::vector<std::string> &Labels,
                             uint32_t RootId) {
  std::ostringstream OS;
  OS << "digraph refutation {\n  rankdir=BT;\n  node [fontsize=10];\n";

  std::set<uint32_t> Seen;
  std::vector<uint32_t> Stack{RootId};
  while (!Stack.empty()) {
    uint32_t Id = Stack.back();
    Stack.pop_back();
    if (!Seen.insert(Id).second)
      continue;
    const sup::Justification &J = Sat.justification(Id);
    std::string Text = Sat.clause(Id).str(Sat.terms());
    if (J.Kind == sup::RuleKind::Input) {
      std::string Provenance;
      if (J.ExternalTag != ~0u && J.ExternalTag < Labels.size())
        Provenance = "\\n" + escape(Labels[J.ExternalTag]);
      OS << "  c" << Id << " [shape=box, label=\"[" << Id << "] "
         << escape(Text) << Provenance << "\"];\n";
    } else {
      OS << "  c" << Id << " [shape=ellipse, label=\"[" << Id << "] "
         << escape(Text) << "\\n" << sup::ruleKindName(J.Kind)
         << (J.NumCut ? " + cut" : "") << "\"];\n";
    }
    // The trailing NumCut parents are the units cut from the clause.
    const size_t NumRule = J.Parents.size() - J.NumCut;
    for (size_t I = 0; I != J.Parents.size(); ++I) {
      OS << "  c" << J.Parents[I] << " -> c" << Id
         << (I < NumRule ? ";\n" : " [style=dashed, label=\"cut\"];\n");
      Stack.push_back(J.Parents[I]);
    }
  }
  OS << "}\n";
  return OS.str();
}

std::string core::counterModelToDot(const TermTable &Terms, const sl::Stack &S,
                                    const sl::Heap &H) {
  std::ostringstream OS;
  OS << "digraph countermodel {\n  node [shape=circle, fontsize=10];\n";

  // Group variables by location for node labels.
  std::map<sl::Loc, std::string> VarsAt;
  std::map<uint32_t, sl::Loc> Ordered(S.bindings().begin(),
                                      S.bindings().end());
  for (auto [TermId, L] : Ordered) {
    std::string Name(Terms.str(Terms.byId(TermId)));
    auto &Slot = VarsAt[L];
    Slot += Slot.empty() ? Name : ("," + Name);
  }

  std::set<sl::Loc> Nodes;
  Nodes.insert(sl::NilLoc);
  for (auto [From, To] : H.cells()) {
    Nodes.insert(From);
    Nodes.insert(To);
  }
  for (auto [L, Vars] : VarsAt)
    Nodes.insert(L);

  for (sl::Loc L : Nodes) {
    OS << "  n" << L << " [label=\"";
    if (L == sl::NilLoc)
      OS << "nil";
    else
      OS << L;
    auto It = VarsAt.find(L);
    if (It != VarsAt.end() && !It->second.empty())
      OS << "\\n" << escape(It->second);
    OS << "\"";
    if (L == sl::NilLoc)
      OS << ", shape=doublecircle";
    else if (H.contains(L))
      OS << ", style=filled, fillcolor=lightgray";
    OS << "];\n";
  }
  for (auto [From, To] : H.cells())
    OS << "  n" << From << " -> n" << To << ";\n";
  OS << "}\n";
  return OS.str();
}
