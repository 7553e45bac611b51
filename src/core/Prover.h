//===- core/Prover.h - The SLP entailment prover ----------------*- C++ -*-===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The entailment checking algorithm of Figure 3. Starting from the
/// pure part of cnf(E), the prover alternates between
///
///   (1) saturating the pure clauses with the superposition calculus I
///       (refutation => the entailment is valid),
///   (2) generating an equality model ⟨R, g⟩ = Gen(S*),
///   (3) normalizing ∅ → Σ along R and adding the well-formedness
///       consequences PCns_W, each carrying the residue of only the
///       rewrite edges of the terms its rule reads (inner loop, until
///       fixpoint),
///   (4) checking R |= Π' (failure => concrete countermodel), and
///   (5) running the unfolding walk against the normalized
///       Π'+, Σ' → Π'−, which either derives one new pure clause (loop
///       again) or exhibits a countermodel.
///
/// The prover is sound and complete for the fragment (Theorem 5.1);
/// every Invalid verdict carries a concrete (stack, heap) countermodel
/// that the executable semantics can re-check.
///
//===----------------------------------------------------------------------===//

#ifndef SLP_CORE_PROVER_H
#define SLP_CORE_PROVER_H

#include "core/ClausalForm.h"
#include "sl/Oracle.h"
#include "superposition/Saturation.h"
#include "support/Fuel.h"

#include <memory>

namespace slp {
namespace core {

/// Final verdict for an entailment query.
enum class Verdict {
  Valid,   ///< The empty clause was derived; E holds.
  Invalid, ///< A countermodel was constructed; E does not hold.
  Unknown, ///< Undecided: the fuel budget ran out or the run was
           ///< cancelled, or ProverOptions::MaxOuterIterations was hit.
};

const char *verdictName(Verdict V);

/// Counters describing one prove() run: the saturation counters of the
/// query's clause database plus the Figure 3 loop's own.
struct ProveStats : sup::SaturationStats {
  unsigned OuterIterations = 0; ///< Unfolding rounds (Fig. 3 main loop).
  unsigned InnerIterations = 0; ///< Saturate/normalize/W rounds.
  uint64_t PureClauses = 0;     ///< Clauses in the final database.
  uint64_t FuelUsed = 0;        ///< Elementary inference steps.

  ProveStats &operator+=(const ProveStats &O) {
    sup::SaturationStats::operator+=(O);
    OuterIterations += O.OuterIterations;
    InnerIterations += O.InnerIterations;
    PureClauses += O.PureClauses;
    FuelUsed += O.FuelUsed;
    return *this;
  }
};

/// Everything prove() reports.
struct ProveResult {
  Verdict V = Verdict::Unknown;
  /// Concrete countermodel; present iff V == Invalid.
  std::optional<sl::CounterModel> Cex;
  ProveStats Stats;
};

/// Which simplification order drives the calculus.
enum class OrderingChoice { Kbo, Lpo };

/// Prover configuration (the ablation benchmarks toggle these).
struct ProverOptions {
  sup::SaturationOptions Sat;
  OrderingChoice Ordering = OrderingChoice::Kbo;
  /// Hard cap on outer iterations; a pure safety net, the algorithm
  /// terminates on its own (Theorem 5.1).
  unsigned MaxOuterIterations = 1u << 20;
};

/// The SLP prover. One instance can check many entailments; per-query
/// state (the clause database) is cleared on each prove() call and
/// remains accessible afterwards for proof reconstruction. The
/// Saturation engine itself is allocated once and reused across
/// queries, so its index pools and hash tables amortize; behavior is
/// bit-identical to constructing a fresh prover per query.
class SlpProver {
public:
  explicit SlpProver(TermTable &Terms, ProverOptions Opts = {});

  /// Checks E with an explicit fuel budget.
  ProveResult prove(const sl::Entailment &E, Fuel &F);

  /// Checks E with unlimited fuel (always terminates).
  ProveResult prove(const sl::Entailment &E) {
    Fuel Unlimited;
    return prove(E, Unlimited);
  }

  /// The pure clause database of the most recent query; valid until
  /// the next prove() call. Input clauses carry external tags indexing
  /// into inputLabels().
  const sup::Saturation &saturation() const { return *Sat; }

  /// Provenance labels for the SL-level inferences that injected pure
  /// clauses (cnf, W1-W5, SR-after-unfolding).
  const std::vector<std::string> &inputLabels() const { return Labels; }

  TermTable &terms() { return Terms; }

  /// Must be called after the underlying TermTable was reset() to a
  /// mark: rewinding reuses dense term ids for different terms, so the
  /// clause database (which stores Term pointers) is cleared and every
  /// term-id-keyed cache (the KBO weight memo) is invalidated.
  /// ProverSession calls this from its reset().
  void onTermTableReset();

private:
  /// Adds a pure clause with provenance; returns true if it was new.
  bool addPure(PureInput In);

  TermTable &Terms;
  ProverOptions Opts;
  KBO Kbo;
  LPO Lpo;
  std::unique_ptr<sup::Saturation> Sat;
  std::vector<std::string> Labels;
};

} // namespace core
} // namespace slp

#endif // SLP_CORE_PROVER_H
