//===- core/Normalization.h - Rules N1-N4 and W1-W5 -------------*- C++ -*-===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The normalization and well-formedness inferences of Figure 1.
///
/// Normalization is applied deterministically along the model R
/// (Lemma 4.2): every constant of the spatial atom is rewritten to its
/// R-normal form via N1/N3 — merging, for each rewrite edge used, the
/// residual pure literals of the generating clause g(x ⇒ y) into the
/// clause — and trivial lseg(x, x) atoms are then discarded via N2/N4.
///
/// The well-formedness inferences read contradictions off the
/// normalized atom multiset (Lemma 4.3): nil-addressed atoms (W1, W2)
/// and atoms sharing an address (W3, W4, W5). Each consequence is
/// derived from a clause in which only the terms its rule reads were
/// normalized, so it carries the residue of those terms' edges alone.
///
//===----------------------------------------------------------------------===//

#ifndef SLP_CORE_NORMALIZATION_H
#define SLP_CORE_NORMALIZATION_H

#include "core/ClausalForm.h"
#include "superposition/Saturation.h"

namespace slp {
namespace core {

/// Norm(⟨R, g⟩; C) of a positive spatial clause together with its
/// well-formedness consequences, from one normalization pass.
struct NormalizedPos {
  /// Norm(⟨R, g⟩; C): its residue is that of every edge used on Σ.
  PosSpatialClause C;
  /// PCns_W({C}), one clause per fired (rule, atom pair). Each is
  /// Γ → ∆ of the input plus the residue of the edges that normalized
  /// the terms its rule reads: the addresses (W1, W3), and also the
  /// value of every lseg involved (W2, W4, W5).
  std::vector<PureInput> WConsequences;
};

/// Normalizes the positive spatial clause Γ → ∆, Σ along ⟨R, g⟩ and
/// derives its scoped W1-W5 consequences.
NormalizedPos normalizeWithConsequences(const TermTable &Terms,
                                        const sup::Saturation &Sat,
                                        const GroundRewriteSystem &R,
                                        const PosSpatialClause &C);

/// Norm(⟨R, g⟩; C) for a negative spatial clause Γ, Σ → ∆.
NegSpatialClause normalize(const sup::Saturation &Sat,
                           const GroundRewriteSystem &R,
                           const NegSpatialClause &C);

/// True iff Σ is well-formed: no nil address, no duplicate address.
bool isWellFormed(const sl::SpatialFormula &Sigma);

} // namespace core
} // namespace slp

#endif // SLP_CORE_NORMALIZATION_H
