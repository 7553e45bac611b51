//===- superposition/ClauseOrdering.h - Literal/clause orders ---*- C++ -*-===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The literal and clause orderings that constrain the inferences of
/// the calculus I and drive the model-generation pass. A ground
/// literal s ' t (s ⪰ t) is encoded as the multiset {s, t} when
/// positive and {s, s, t, t} when negative; for a total term order the
/// induced literal order reduces to the lexicographic comparison of
/// (max side, polarity, min side) with negative > positive. The clause
/// order is the multiset extension, computed by comparing the
/// descending-sorted literal sequences lexicographically.
///
//===----------------------------------------------------------------------===//

#ifndef SLP_SUPERPOSITION_CLAUSEORDERING_H
#define SLP_SUPERPOSITION_CLAUSEORDERING_H

#include "superposition/Clause.h"
#include "term/Ordering.h"

#include <algorithm>

namespace slp {
namespace sup {

/// A literal = equation + polarity, as needed by the orderings.
struct OrientedLiteral {
  const Term *Max; ///< KBO-larger side.
  const Term *Min; ///< KBO-smaller side (equal to Max for s ' s).
  bool Negative;
};

/// Computes literal/clause comparisons relative to a fixed KBO.
class ClauseOrdering {
public:
  explicit ClauseOrdering(const TermOrder &Ord) : Ord(Ord) {}

  OrientedLiteral orient(const Equation &E, bool Negative) const {
    const Term *Max = Ord.max(E.lhs(), E.rhs());
    const Term *Min = E.other(Max);
    return {Max, Min, Negative};
  }

  /// Total order on ground literals (multiset encoding; see \file).
  Order compareLiterals(const OrientedLiteral &A,
                        const OrientedLiteral &B) const;

  /// Multiset extension to clauses; total on canonical clauses.
  Order compareClauses(ClauseView A, ClauseView B) const;

  /// Descending-sorted oriented literal list of a clause. Exposed so
  /// callers that compare one clause many times (the model-generation
  /// sort) can precompute the lists once instead of re-sorting per
  /// comparison; the saturation engine pools the lists it computes.
  std::vector<OrientedLiteral> sortedLiterals(ClauseView C) const;

  /// Lexicographic comparison of two descending-sorted literal lists —
  /// the multiset clause order on precomputed lists (a proper prefix
  /// is smaller).
  Order compareSortedLiterals(std::span<const OrientedLiteral> LA,
                              std::span<const OrientedLiteral> LB) const {
    return compareLiteralSequences(
        LA.size(), [LA](size_t I) { return LA[I]; }, LB.size(),
        [LB](size_t I) { return LB[I]; });
  }

  /// compareSortedLiterals over lists of lengths \p NA and \p NB held
  /// in any encoding: \p A(I) and \p B(I) return their I-th literals.
  template <typename LitAT, typename LitBT>
  Order compareLiteralSequences(size_t NA, LitAT &&A, size_t NB,
                                LitBT &&B) const {
    const size_t N = std::min(NA, NB);
    for (size_t I = 0; I != N; ++I) {
      Order O = compareLiterals(A(I), B(I));
      if (O != Order::Equal)
        return O;
    }
    if (NA != NB)
      return NA < NB ? Order::Less : Order::Greater;
    return Order::Equal;
  }

  /// True if no literal of \p C is greater than \p L ("maximal").
  bool isMaximal(const OrientedLiteral &L, ClauseView C) const;

  /// True if no literal of \p C is greater than or equal to \p L,
  /// other than one occurrence of \p L itself ("strictly maximal").
  /// Canonical clauses carry each literal once, so this reduces to:
  /// every other literal is strictly smaller.
  bool isStrictlyMaximal(const OrientedLiteral &L, ClauseView C) const;

  const TermOrder &termOrder() const { return Ord; }

private:
  const TermOrder &Ord;
};

} // namespace sup
} // namespace slp

#endif // SLP_SUPERPOSITION_CLAUSEORDERING_H
