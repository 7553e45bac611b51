//===- core/ProofTree.h - Figure-4 style proof trees ------------*- C++ -*-===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reconstructs and renders the derivation of the empty clause after a
/// Valid verdict, in the style of the paper's Figure 4: each clause is
/// numbered, derived clauses cite their rule and premise numbers, and
/// input clauses cite the SL-level inference (cnf, N/W, U/SR) that
/// injected them.
///
//===----------------------------------------------------------------------===//

#ifndef SLP_CORE_PROOFTREE_H
#define SLP_CORE_PROOFTREE_H

#include "superposition/Saturation.h"

#include <string>
#include <vector>

namespace slp {
namespace core {

/// One rendered proof step.
struct ProofStep {
  uint32_t ClauseId;
  std::string ClauseText;
  /// e.g. "sup-left(3, 5)", "sup-left(3, 5) cut(2)" (the units cut
  /// from the conclusion) or "input: W4 on ...".
  std::string RuleText;
};

/// Topologically ordered derivation of \p RootId (premises first).
std::vector<ProofStep> extractProof(const sup::Saturation &Sat,
                                    const std::vector<std::string> &Labels,
                                    uint32_t RootId);

/// Renders the derivation of the empty clause as numbered lines.
/// Precondition: the saturation holds an empty clause.
std::string renderRefutation(const sup::Saturation &Sat,
                             const std::vector<std::string> &Labels);

} // namespace core
} // namespace slp

#endif // SLP_CORE_PROOFTREE_H
