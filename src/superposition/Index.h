//===- superposition/Index.h - Clause indexing ------------------*- C++ -*-===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Clause indexing for the saturation engine's redundancy elimination.
///
/// Every pure clause is a set of *ground* (dis)equations, so subsumption
/// (Γ_D ⊆ Γ_C and ∆_D ⊆ ∆_C) is propositional over equation atoms and
/// SAT-style literal-occurrence indexing is exact for it:
///
///   - ClauseSignature is a 24-byte filter: one 64-bit bloom of the
///     equation hashes per polarity, plus a bloom of the root symbols
///     of every subterm. If D subsumes C, each of D's three masks is a
///     bitwise subset of C's (for any ground terms, constants or not),
///     so a failed subset test rejects a candidate without touching
///     its equations.
///   - LiteralIndex files each live clause under exactly one of its
///     literals, the one with the minimum key (equation hash plus
///     polarity). A subsumer D of C has all its literals in C, its
///     minimum-key literal included, so probing the lists of C's own
///     literals visits every subsumer of C.
///
/// SubsumerCache sits in front of the LiteralIndex: the few clauses
/// that subsumed the most recent queries. Nearly every inference
/// conclusion is subsumed, and at any moment mostly by the same handful
/// of short clauses, so trying those first answers most queries without
/// visiting the index's candidate lists.
///
/// Backward subsumption (the clauses a new clause subsumes) needs no
/// index: it runs once per kept clause and scans the signatures of the
/// live clauses for supersets.
///
/// DemodIndex is a root-symbol fingerprint over the left-hand sides of
/// the active unit demodulators. Each rule sets one bit of a 64-bit
/// mask (per-bit reference counted, so retiring a rule clears its bit
/// when the last rule sharing it disappears). Normalization then skips
/// the rewrite-rule hash lookup for every subterm whose root symbol
/// cannot match, and whole clauses are skipped when their signature's
/// symbol mask is disjoint from the rule mask.
///
//===----------------------------------------------------------------------===//

#ifndef SLP_SUPERPOSITION_INDEX_H
#define SLP_SUPERPOSITION_INDEX_H

#include "superposition/Clause.h"

#include <algorithm>
#include <array>
#include <unordered_map>
#include <vector>

namespace slp {
namespace sup {

/// Subsumption-monotone bloom signature of a clause.
struct ClauseSignature {
  uint64_t Neg = 0;     ///< One bit per Γ equation hash.
  uint64_t Pos = 0;     ///< One bit per ∆ equation hash.
  uint64_t Symbols = 0; ///< One bit per root symbol of every subterm.

  /// Computes the signature of \p C (one term walk per equation side).
  static ClauseSignature of(ClauseView C);

  /// True iff every bit of this signature is set in \p O. Necessary
  /// (not sufficient) for `this` clause to subsume `O`'s.
  bool subsetOf(const ClauseSignature &O) const {
    return !(Neg & ~O.Neg) && !(Pos & ~O.Pos) && !(Symbols & ~O.Symbols);
  }

  /// The bloom bit an equation hashes to (in either polarity).
  static uint64_t equationBit(const Equation &E) {
    return 1ull << (E.hash() >> 58);
  }

  /// The fingerprint bit a symbol hashes to (shared with DemodIndex).
  static uint64_t symbolBit(Symbol S);
};

/// Live clause ids, each filed under its minimum-key literal; answers
/// "which stored clauses can subsume C" by probing C's literals.
class LiteralIndex {
public:
  /// Files \p Id (whose clause is \p C) under C's minimum-key literal.
  /// A clause id may be inserted again after erase (the delete/revive
  /// machinery does this); inserting an id that is currently present
  /// is an API-contract violation.
  void insert(uint32_t Id, ClauseView C);

  /// Unfiles \p Id (previously inserted with clause \p C). Returns
  /// false if the id was not present.
  bool erase(uint32_t Id, ClauseView C);

  /// Visits every stored id filed under a literal of \p C (plus the
  /// stored empty clauses) — a superset of C's stored subsumers. Stops
  /// early (returning true) as soon as \p Visit returns true.
  template <typename VisitorT>
  bool anyCandidate(ClauseView C, VisitorT &&Visit) const {
    for (uint32_t Id : Empty)
      if (Visit(Id))
        return true;
    auto Probe = [&](std::span<const Equation> Side, bool Negative) {
      for (const Equation &E : Side) {
        auto It = Lists.find(key(E, Negative));
        if (It != Lists.end())
          for (uint32_t Id : It->second)
            if (Visit(Id))
              return true;
      }
      return false;
    };
    return Probe(C.neg(), true) || Probe(C.pos(), false);
  }

  /// Number of ids currently stored.
  size_t size() const { return NumEntries; }
  bool empty() const { return NumEntries == 0; }

  /// Removes every entry.
  void clear() {
    Lists.clear();
    Empty.clear();
    NumEntries = 0;
  }

private:
  static uint64_t key(const Equation &E, bool Negative) {
    return E.hash() << 1 | static_cast<uint64_t>(Negative);
  }

  /// The list \p C is filed under: its minimum-key literal's, or Empty.
  std::vector<uint32_t> &listFor(ClauseView C);

  std::unordered_map<uint64_t, std::vector<uint32_t>> Lists;
  std::vector<uint32_t> Empty; ///< Ids of stored empty clauses.
  size_t NumEntries = 0;
};

/// The most recent forward subsumers, most recent first. It holds live
/// clause ids only: the owner erases an id when its clause is deleted
/// and clears the cache with the clause database.
class SubsumerCache {
public:
  /// On the vars=20 Table 1 outlier, 8 entries answer 81% of forward
  /// queries and 64 answer 96%, cutting the index candidates visited on
  /// misses from 367 M to 122 M; beyond 64 the cache's own tests grow
  /// faster than the visits shrink.
  static constexpr unsigned Capacity = 64;

  /// Returns the first cached id for which \p Test holds and moves it
  /// to the front, or returns ~0u.
  template <typename TestT> uint32_t find(TestT &&Test) {
    for (unsigned I = 0; I != Size; ++I) {
      const uint32_t Id = Ids[I];
      if (!Test(Id))
        continue;
      std::copy_backward(Ids.begin(), Ids.begin() + I, Ids.begin() + I + 1);
      Ids[0] = Id;
      return Id;
    }
    return ~0u;
  }

  /// Records \p Id (not cached) as the most recent subsumer, evicting
  /// the least recent one when full.
  void note(uint32_t Id) {
    Size = std::min(Size + 1, Capacity);
    std::copy_backward(Ids.begin(), Ids.begin() + Size - 1,
                       Ids.begin() + Size);
    Ids[0] = Id;
  }

  /// Forgets \p Id if cached.
  void erase(uint32_t Id) {
    auto End = Ids.begin() + Size;
    auto It = std::find(Ids.begin(), End, Id);
    if (It == End)
      return;
    std::copy(It + 1, End, It);
    --Size;
  }

  void clear() { Size = 0; }

  /// The cached ids, most recent first.
  std::span<const uint32_t> ids() const { return {Ids.data(), Size}; }

private:
  std::array<uint32_t, Capacity> Ids{};
  unsigned Size = 0;
};

/// Root-symbol fingerprint of the current demodulator set.
class DemodIndex {
public:
  /// Records a rule with left-hand side root symbol \p S.
  void addLhs(Symbol S);

  /// Retires a rule previously added with root symbol \p S.
  void removeLhs(Symbol S);

  /// True iff some rule's left-hand side has a root symbol hashing to
  /// the same fingerprint bit as \p S (no false negatives).
  bool mayMatchRoot(Symbol S) const {
    return (Mask & ClauseSignature::symbolBit(S)) != 0;
  }

  /// True iff a clause with symbol fingerprint \p ClauseMask can
  /// contain any rule's left-hand side as a subterm.
  bool mayRewrite(uint64_t ClauseMask) const {
    return (Mask & ClauseMask) != 0;
  }

  uint64_t mask() const { return Mask; }
  bool empty() const { return Mask == 0; }

  /// Retires every rule at once.
  void clear() {
    Mask = 0;
    BitCount.fill(0);
  }

private:
  uint64_t Mask = 0;
  /// Rules per fingerprint bit; a bit clears when its count drops to 0.
  std::array<uint32_t, 64> BitCount{};
};

} // namespace sup
} // namespace slp

#endif // SLP_SUPERPOSITION_INDEX_H
