//===- engine/Portfolio.h - Racing backend portfolio ------------*- C++ -*-===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The portfolio scheduler: races a configurable set of entailment
/// backends on each task, accepts the first *definitive* verdict
/// (Valid, or Invalid with countermodel — the incomplete unfolder's
/// NotProved/Unknown never wins), and cancels the losers through a
/// shared CancelToken threaded into every racer's Fuel. Complementary
/// engines widen the workload: the greedy unfolder answers the easy
/// syntactic bulk almost for free, the Berdine splitter is quick on
/// small aliasing-light sequents, and SLP bounds the worst case —
/// racing them costs one extra thread per member and wins whenever the
/// cheap engines get there first (see docs/backends.md). Each race is
/// one ThreadPool::run over a pool with one worker per member.
///
/// Determinism: all members are sound and the complete members agree
/// with SLP on every decided query, so the *verdict* is independent of
/// which member wins the race; the win attribution in the per-backend
/// tallies is timing-dependent, and so is countermodel availability on
/// Invalid verdicts (the Berdine member decides invalidity without
/// materializing a heap — see docs/backends.md). With unlimited fuel a
/// portfolio containing SLP decides exactly what --backend=slp
/// decides.
///
//===----------------------------------------------------------------------===//

#ifndef SLP_ENGINE_PORTFOLIO_H
#define SLP_ENGINE_PORTFOLIO_H

#include "core/Backend.h"
#include "engine/ThreadPool.h"

#include <atomic>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

namespace slp {
namespace engine {

/// Selects a proving backend across the tools and the engine.
enum class BackendKind : uint8_t { Slp, Berdine, Unfolding, Portfolio };

const char *backendKindName(BackendKind K);

/// Parses a --backend= value. Accepts "slp", "berdine", "unfolding",
/// "portfolio", plus "greedy" as a legacy alias for "unfolding".
std::optional<BackendKind> parseBackendKind(std::string_view Name);

/// Instantiates a backend. \p Opts configures the SLP prover (also
/// inside a portfolio) and is ignored by the baselines;
/// BackendKind::Portfolio yields a default-member portfolio whose
/// per-member budgets come from the Fuel handed to each prove().
std::unique_ptr<core::EntailmentBackend>
makeBackend(BackendKind K, const core::ProverOptions &Opts = {});

/// Per-backend win/loss/time accounting, accumulated over prove()
/// calls by the portfolio (and synthesized by the engine for
/// single-backend runs, so --stats reads the same everywhere).
struct BackendTally {
  std::string Name;
  uint64_t Races = 0;      ///< Tasks this backend ran on.
  uint64_t Wins = 0;       ///< Supplied the accepted verdict.
  uint64_t Definitive = 0; ///< Definitive verdicts returned (a losing
                           ///< definitive verdict counts here, not in
                           ///< Wins).
  uint64_t Cancelled = 0;  ///< Races abandoned on cancellation —
                           ///< another member had already won, or the
                           ///< caller's own token fired mid-race.
  double Seconds = 0;      ///< Wall clock summed over races (the
                           ///< members run concurrently, so the sum
                           ///< exceeds the portfolio's elapsed time).
  uint64_t FuelUsed = 0;   ///< Inference steps summed over races.

  /// Adds \p O's counters into this one (the name is kept).
  BackendTally &operator+=(const BackendTally &O) {
    Races += O.Races;
    Wins += O.Wins;
    Definitive += O.Definitive;
    Cancelled += O.Cancelled;
    Seconds += O.Seconds;
    FuelUsed += O.FuelUsed;
    return *this;
  }
};

/// Adds \p Tallies into the global metrics registry as
/// `backend.<name>.{races,wins,definitive,cancelled,fuel,time_ns}`
/// counters, registered in member order so snapshots report backends
/// in the same order the tallies do. Everything that runs backends
/// (the batch engine after a run, the sequential portfolio path in the
/// `slp` tool) publishes through this one function, and the `--stats`
/// backend breakdown renders from the resulting snapshot.
void publishBackendTallies(const std::vector<BackendTally> &Tallies);

/// Portfolio configuration.
struct PortfolioOptions {
  /// The racing members, in tally/reporting order. Must be non-empty
  /// and must not contain BackendKind::Portfolio.
  std::vector<BackendKind> Backends = {
      BackendKind::Slp, BackendKind::Berdine, BackendKind::Unfolding};
  /// Per-member inference budget per task; each member gets its own
  /// budget (they race, they do not share one). 0 defers to the Fuel
  /// handed to prove(): a limited caller budget becomes the
  /// per-member budget of the race, an unlimited one races unbounded.
  uint64_t FuelPerQuery = 0;
  /// Configuration for the SLP member.
  core::ProverOptions Prover;
};

/// Races the configured backends per task. Itself an
/// EntailmentBackend, so everything that can drive one backend can
/// drive a portfolio. Not thread safe (the engine keeps one per
/// worker); the concurrency is inside prove(), which races the members
/// on a ThreadPool of one worker per member: member 0 on the calling
/// thread, members 1..N-1 on pool threads spawned once at construction
/// (no per-task thread create/join).
class PortfolioProver final : public core::EntailmentBackend {
public:
  explicit PortfolioProver(PortfolioOptions Opts = {});

  const char *name() const override { return "portfolio"; }

  /// Complete iff some member is complete.
  bool complete() const override;

  /// Races every member on \p Task; returns the first definitive
  /// verdict (its producer in BackendResult::Backend) or, when no
  /// member decides, an Unknown result; either way its Stats sum every
  /// member's work counters. Each member's budget is
  /// PortfolioOptions::FuelPerQuery, or — when that is 0 — \p F's
  /// remaining budget at race start (per member; they do not share).
  /// \p F is charged with the fuel all members consumed, and its
  /// CancelToken, if any, is chained into the race token, so firing
  /// it — before or during the race — stops every member at its next
  /// fuel poll.
  core::BackendResult prove(const core::ProofTask &Task, Fuel &F) override;

  /// Per-member accounting, accumulated across prove() calls, in
  /// PortfolioOptions::Backends order.
  const std::vector<BackendTally> &tallies() const { return Tallies; }

private:
  struct Slot {
    core::BackendResult R;
    double Seconds = 0;
    unsigned Seq = ~0u;     ///< Finish order (0 = first).
    bool Cancelled = false; ///< Gave up because the race was decided.
  };

  /// Runs member \p I on \p Task with a budget of \p Budget (0 =
  /// unlimited), filling its slot and raising \p Cancel on a
  /// definitive verdict.
  void runMember(size_t I, const core::ProofTask &Task, CancelToken &Cancel,
                 uint64_t Budget);

  PortfolioOptions Opts;
  std::vector<std::unique_ptr<core::EntailmentBackend>> Members;
  std::vector<BackendTally> Tallies;
  /// "race:<member>" trace-span names, precomputed so runMember's span
  /// costs one relaxed load when tracing is off.
  std::vector<std::string> RaceSpanNames;
  std::atomic<unsigned> Seq{0}; ///< Next finish-order number.
  std::vector<Slot> Slots;
  ThreadPool Racers; ///< One worker per member.
};

} // namespace engine
} // namespace slp

#endif // SLP_ENGINE_PORTFOLIO_H
