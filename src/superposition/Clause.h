//===- superposition/Clause.h - Pure clauses --------------------*- C++ -*-===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pure clauses Γ → ∆ in the sense of §3.2: Γ is the set of equations
/// occurring negatively, ∆ the set occurring positively. Clauses are
/// kept in a canonical sorted, deduplicated form so that identity,
/// subsumption and fixpoint detection are cheap.
///
//===----------------------------------------------------------------------===//

#ifndef SLP_SUPERPOSITION_CLAUSE_H
#define SLP_SUPERPOSITION_CLAUSE_H

#include "superposition/Literal.h"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace slp {
namespace sup {

/// How a clause entered the clause database; used to reconstruct
/// Figure-4 style proof trees spanning both calculi.
enum class RuleKind : uint8_t {
  Input,         ///< Supplied by the SL layer (cnf, N, W, U/SR).
  SupLeft,       ///< Superposition into a negative literal.
  SupRight,      ///< Superposition into a positive literal.
  EqFact,        ///< Equality factoring.
  Demod,         ///< Demodulation by unit equations.
};

/// Names a RuleKind for proof printing.
const char *ruleKindName(RuleKind K);

/// A derivation record: the rule and the ids of premise clauses. The
/// clause database stores it flat and hands it out as this view; the
/// Parents span is invalidated when a clause is added.
struct Justification {
  RuleKind Kind = RuleKind::Input;
  std::span<const uint32_t> Parents;
  /// Opaque tag the SL layer uses to attach its own provenance to
  /// Input clauses (e.g. "derived by W4 from clause C").
  uint32_t ExternalTag = ~0u;
  /// How many trailing Parents are negative units s ' t -> whose
  /// literal s ' t was cut from the rule's conclusion (unit cut).
  unsigned NumCut = 0;
};

/// An immutable pure clause in canonical form. Clauses are the
/// *construction* vehicle: inference rules build them, canonicalize,
/// and hand them to the ClauseDB, which stores the equations in one
/// flat pool. Long-lived code reads clauses back as ClauseViews.
class Clause {
public:
  /// Builds the canonical form: drops trivial antecedents s ' s (false
  /// in every interpretation as a negative literal), then sorts and
  /// deduplicates both sides.
  Clause(std::vector<Equation> Neg, std::vector<Equation> Pos);

  /// Equations occurring negatively (the set Γ).
  const std::vector<Equation> &neg() const { return NegEqs; }
  /// Equations occurring positively (the set ∆).
  const std::vector<Equation> &pos() const { return PosEqs; }

  bool empty() const { return NegEqs.empty() && PosEqs.empty(); }
  size_t size() const { return NegEqs.size() + PosEqs.size(); }

  /// A tautology is valid in every interpretation: either some s ' s
  /// occurs positively, or Γ and ∆ intersect.
  bool isTautology() const;

  /// True iff this clause subsumes \p Other (Γ ⊆ Γ' and ∆ ⊆ ∆').
  bool subsumes(const Clause &Other) const;

  /// Structural hash of the canonical form.
  uint64_t fingerprint() const { return Hash; }

  /// The fingerprint of the clause with canonical sides \p Neg, \p Pos.
  static uint64_t hashOf(std::span<const Equation> Neg,
                         std::span<const Equation> Pos);

  friend bool operator==(const Clause &A, const Clause &B) {
    return A.NegEqs == B.NegEqs && A.PosEqs == B.PosEqs;
  }

  /// Renders e.g. "a ' b, c ' d -> e ' f" ("[]" for the empty clause).
  std::string str(const TermTable &Terms) const;

private:
  std::vector<Equation> NegEqs;
  std::vector<Equation> PosEqs;
  uint64_t Hash;
};

/// A non-owning, trivially copyable window onto a canonical clause
/// whose equations live in someone else's storage — the ClauseDB's
/// flat equation pool, or a Clause's own vectors (the implicit
/// conversion). Spans are invalidated when the underlying pool grows;
/// the inference rules therefore copy the ranges they need before any
/// call that can append clauses, exactly as they copied whole Clause
/// objects before the struct-of-arrays layout.
class ClauseView {
public:
  ClauseView() = default;
  ClauseView(std::span<const Equation> Neg, std::span<const Equation> Pos,
             uint64_t Hash)
      : Neg(Neg), Pos(Pos), Hash(Hash) {}
  /*implicit*/ ClauseView(const Clause &C)
      : Neg(C.neg()), Pos(C.pos()), Hash(C.fingerprint()) {}

  std::span<const Equation> neg() const { return Neg; }
  std::span<const Equation> pos() const { return Pos; }

  bool empty() const { return Neg.empty() && Pos.empty(); }
  size_t size() const { return Neg.size() + Pos.size(); }

  /// See Clause::isTautology.
  bool isTautology() const;

  /// True iff this clause subsumes \p Other (Γ ⊆ Γ' and ∆ ⊆ ∆').
  bool subsumes(ClauseView Other) const;

  uint64_t fingerprint() const { return Hash; }

  /// Deep copy into an owning Clause (the ranges are already
  /// canonical, so this is a plain copy plus the hash).
  Clause materialize() const {
    return Clause(std::vector<Equation>(Neg.begin(), Neg.end()),
                  std::vector<Equation>(Pos.begin(), Pos.end()));
  }

  friend bool operator==(ClauseView A, ClauseView B) {
    return A.Neg.size() == B.Neg.size() && A.Pos.size() == B.Pos.size() &&
           std::equal(A.Neg.begin(), A.Neg.end(), B.Neg.begin()) &&
           std::equal(A.Pos.begin(), A.Pos.end(), B.Pos.begin());
  }
  friend bool operator!=(ClauseView A, ClauseView B) { return !(A == B); }

  /// Renders e.g. "a ' b, c ' d -> e ' f" ("[]" for the empty clause).
  std::string str(const TermTable &Terms) const;

private:
  std::span<const Equation> Neg;
  std::span<const Equation> Pos;
  uint64_t Hash = 0;
};

/// One premise's share of an inference conclusion: its canonical
/// equations, minus at most one literal per side that the inference
/// consumes.
struct PremiseShare {
  std::span<const Equation> Neg;
  std::span<const Equation> Pos;
  std::optional<Equation> DropNeg; ///< Left out of Neg, if set.
  std::optional<Equation> DropPos; ///< Left out of Pos, if set.
};

/// An inference conclusion Γ → ∆ described by what it is made of: the
/// union of one or two premise shares plus at most one new literal.
/// The inference rules describe their conclusions this way so that a
/// conclusion can be rejected or merged straight from the premises'
/// sorted spans, with no Clause built and no sort.
struct Conclusion {
  PremiseShare Premises[2];
  unsigned NumPremises = 1;
  std::optional<Equation> New;
  bool NewNegative = false;

  /// True iff the conclusion is a tautology, decided without building
  /// it. Requires every premise to be a non-tautological canonical
  /// clause (every stored clause is), so only literals of different
  /// origins can clash.
  bool tautology() const;

  /// Writes the canonical sides (sorted, deduplicated, a trivial
  /// negative New dropped) into \p Neg and \p Pos, and returns the
  /// fingerprint — both exactly what Clause(Neg, Pos) would hold.
  uint64_t build(std::vector<Equation> &Neg, std::vector<Equation> &Pos) const;
};

} // namespace sup
} // namespace slp

#endif // SLP_SUPERPOSITION_CLAUSE_H
