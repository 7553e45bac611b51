//===- superposition/ClauseDB.h - Flat clause storage -----------*- C++ -*-===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The saturation engine's clause database in a struct-of-arrays
/// layout. Each stored clause used to own two std::vector<Equation>
/// heaps inside a ClauseEntry that also carried its (cold) provenance;
/// the given-clause loop touches thousands of clauses per query, so
/// the pointer chasing and the interleaved cold data dominated cache
/// traffic. Instead the database keeps
///
///   - one contiguous Equation arena shared by every clause, with
///     per-clause (offset, neg length, pos length) records,
///   - a fixed-width 24-byte record array (offsets, lengths,
///     fingerprint, deleted flag, rule kind, cut-unit count) the inner
///     loops scan,
///   - one parents arena holding every clause's premise ids (an Input
///     clause's single entry is its external tag), so provenance costs
///     no heap block per clause,
///   - an open-addressing id table keyed by the record fingerprints,
///     for duplicate detection.
///
/// Clauses are immutable once appended (deletion is a flag), so the
/// arenas only ever grow and record offsets stay valid. Reads hand out
/// ClauseViews — spans into the arena — which are invalidated by
/// append() exactly like the old `const ClauseEntry &` references were
/// invalidated by DB reallocation, and under the same discipline: copy
/// what you need before generating new clauses.
///
//===----------------------------------------------------------------------===//

#ifndef SLP_SUPERPOSITION_CLAUSEDB_H
#define SLP_SUPERPOSITION_CLAUSEDB_H

#include "superposition/Clause.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <vector>

namespace slp {
namespace sup {

/// Flat clause, provenance and fingerprint storage; ids are dense and
/// stable (deleted clauses keep their slot for proof trees).
class ClauseDB {
public:
  /// Copies \p C's canonical equations into the arena and its
  /// provenance (\p Parents, the last \p NumCut of them cut units, or
  /// \p ExternalTag for an Input clause) into the parents arena; files
  /// it in the fingerprint table and returns the new clause's id.
  uint32_t append(ClauseView C, RuleKind Kind,
                  std::span<const uint32_t> Parents, uint32_t NumCut = 0,
                  uint32_t ExternalTag = ~0u) {
    assert(C.neg().size() <= UINT16_MAX && C.pos().size() <= UINT16_MAX &&
           "clause wider than the record format");
    assert((Kind == RuleKind::Input) == Parents.empty() &&
           "input clauses have no parents, derived ones do");
    assert((NumCut == 0 || NumCut < Parents.size()) && NumCut <= UINT16_MAX &&
           "cut units follow the rule's premises");
    uint32_t Id = static_cast<uint32_t>(Hot.size());
    Record R;
    R.EqOff = static_cast<uint32_t>(EqPool.size());
    R.NegLen = static_cast<uint16_t>(C.neg().size());
    R.PosLen = static_cast<uint16_t>(C.pos().size());
    R.Hash = C.fingerprint();
    R.ParentOff = static_cast<uint32_t>(ParentPool.size());
    R.Kind = Kind;
    R.NumCut = static_cast<uint16_t>(NumCut);
    EqPool.insert(EqPool.end(), C.neg().begin(), C.neg().end());
    EqPool.insert(EqPool.end(), C.pos().begin(), C.pos().end());
    if (Kind == RuleKind::Input)
      ParentPool.push_back(ExternalTag);
    else
      ParentPool.insert(ParentPool.end(), Parents.begin(), Parents.end());
    Hot.push_back(R);
    indexFingerprint(Id);
    return Id;
  }

  /// Spans into the arena; invalidated by the next append().
  ClauseView view(uint32_t Id) const {
    const Record &R = Hot[Id];
    const Equation *Base = EqPool.data() + R.EqOff;
    return ClauseView({Base, R.NegLen}, {Base + R.NegLen, R.PosLen}, R.Hash);
  }

  /// Equation \p Pos of clause \p Id, counting Γ then ∆.
  const Equation &equation(uint32_t Id, uint32_t Pos) const {
    return EqPool[Hot[Id].EqOff + Pos];
  }

  bool deleted(uint32_t Id) const { return Hot[Id].Deleted; }
  void setDeleted(uint32_t Id, bool D) { Hot[Id].Deleted = D; }

  uint64_t fingerprint(uint32_t Id) const { return Hot[Id].Hash; }

  /// |Γ| without touching the arena.
  uint32_t negCount(uint32_t Id) const { return Hot[Id].NegLen; }

  /// Literal count (|Γ| + |∆|) without touching the arena.
  uint32_t litCount(uint32_t Id) const {
    return static_cast<uint32_t>(Hot[Id].NegLen) + Hot[Id].PosLen;
  }

  /// Provenance of clause \p Id; its Parents span is invalidated by
  /// the next append().
  Justification justification(uint32_t Id) const {
    const Record &R = Hot[Id];
    if (R.Kind == RuleKind::Input)
      return {.Kind = RuleKind::Input,
              .Parents = {},
              .ExternalTag = ParentPool[R.ParentOff]};
    const size_t End =
        Id + 1 < Hot.size() ? Hot[Id + 1].ParentOff : ParentPool.size();
    return {.Kind = R.Kind,
            .Parents = {ParentPool.data() + R.ParentOff, End - R.ParentOff},
            .ExternalTag = ~0u,
            .NumCut = R.NumCut};
  }

  /// The id of the clause equal to \p C among those in the fingerprint
  /// table (deleted ones included), or ~0u. Every appended clause is in
  /// the table until purgeDeletedFingerprints() drops it, so the table
  /// holds at most one clause per content: a clause equal to a filed
  /// one is never appended.
  uint32_t findEqual(ClauseView C) const {
    if (NumFiled == 0)
      return ~0u;
    const size_t Mask = Slots.size() - 1;
    for (size_t S = slotFor(C.fingerprint());; S = (S + 1) & Mask) {
      const uint32_t Id = Slots[S];
      if (Id == ~0u)
        return ~0u;
      if (Hot[Id].Hash == C.fingerprint() && view(Id) == C)
        return Id;
    }
  }

  /// Drops the deleted clauses from the fingerprint table (they are no
  /// longer found by findEqual()); returns how many were dropped.
  size_t purgeDeletedFingerprints() {
    std::vector<uint32_t> Live;
    for (uint32_t Id : Slots)
      if (Id != ~0u && !Hot[Id].Deleted)
        Live.push_back(Id);
    const size_t Purged = NumFiled - Live.size();
    refile(Slots.size(), Live);
    return Purged;
  }

  size_t numClauses() const { return Hot.size(); }

  /// Equations currently pooled across all clauses (arena occupancy).
  size_t poolEquations() const { return EqPool.size(); }

  /// Returns the database to empty, keeping capacity.
  void clear() {
    EqPool.clear();
    Hot.clear();
    ParentPool.clear();
    std::fill(Slots.begin(), Slots.end(), ~0u);
    NumFiled = 0;
  }

private:
  /// Per-clause record: everything the saturation inner loops
  /// (subsumption, demodulation, ordering) read, plus the provenance
  /// (parents offset, rule kind, cut-unit count) in what would
  /// otherwise be padding. 24 bytes —
  /// nearly 3 records per cache line, where the old ClauseEntry was
  /// 100+ bytes across four allocations.
  struct Record {
    uint32_t EqOff;     ///< First equation in the arena (Γ then ∆).
    uint16_t NegLen;    ///< |Γ|.
    uint16_t PosLen;    ///< |∆|.
    uint64_t Hash;      ///< Clause fingerprint (duplicate detection).
    uint32_t ParentOff; ///< First entry in the parents arena.
    RuleKind Kind = RuleKind::Input;
    bool Deleted = false;
    uint16_t NumCut = 0; ///< Trailing parents that are cut units.
  };
  static_assert(sizeof(Record) == 24, "keep the record at 24 bytes");

  size_t slotFor(uint64_t Hash) const {
    return static_cast<size_t>((Hash * 0x9E3779B97F4A7C15ull) >>
                               (64 - SlotBits));
  }

  /// Files clause \p Id, doubling the table past 3/4 load.
  void indexFingerprint(uint32_t Id) {
    if ((NumFiled + 1) * 4 > Slots.size() * 3) {
      std::vector<uint32_t> Filed;
      Filed.reserve(NumFiled);
      for (uint32_t Old : Slots)
        if (Old != ~0u)
          Filed.push_back(Old);
      refile(Slots.empty() ? 64 : Slots.size() * 2, Filed);
    }
    insertSlot(Id);
  }

  /// Rebuilds the table with \p Size slots holding \p Ids.
  void refile(size_t Size, const std::vector<uint32_t> &Ids) {
    Slots.assign(Size, ~0u);
    SlotBits = static_cast<unsigned>(__builtin_ctzll(Size));
    NumFiled = 0;
    for (uint32_t Id : Ids)
      insertSlot(Id);
  }

  void insertSlot(uint32_t Id) {
    size_t S = slotFor(Hot[Id].Hash);
    while (Slots[S] != ~0u)
      S = (S + 1) & (Slots.size() - 1);
    Slots[S] = Id;
    ++NumFiled;
  }

  std::vector<Equation> EqPool; ///< One arena for every clause's equations.
  std::vector<Record> Hot;
  std::vector<uint32_t> ParentPool; ///< Premise ids (or input tags).
  /// Fingerprint table: clause ids under linear probing, ~0u = empty.
  std::vector<uint32_t> Slots;
  unsigned SlotBits = 0;
  size_t NumFiled = 0;
};

} // namespace sup
} // namespace slp

#endif // SLP_SUPERPOSITION_CLAUSEDB_H
