//===- engine/BatchProver.h - Concurrent batch proving ----------*- C++ -*-===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The batch proving engine: N pool workers drain a work-stealing
/// StealPool over a batch of ProofTasks (textual entailment
/// obligations from a corpus file, the symbolic executor, or any other
/// source), memoizing verdicts in a shared ResultCache keyed by the
/// alpha-invariant CanonicalQuery. Tasks are dealt longest first, so
/// each worker starts on a heavy one, and a worker that drains steals
/// the light half of a straggler's remainder, so heavy-tailed query
/// costs stop serializing the tail of the run.
///
/// Each worker owns one core::ProverSession for the whole batch: the
/// task is parsed once, straight into the session's term table on top
/// of its baseline checkpoint; on a cache miss the table is rewound
/// and the *canonical* entailment is re-materialized at the baseline
/// and proved there. The rewind restores exactly the
/// freshly-constructed table state (dense ids reassigned
/// deterministically), so the verdict remains a pure function of the
/// canonical key — independent of worker count, scheduling
/// interleaving, and of which alpha-variant of a query populated the
/// cache first — while table construction, the second parse of the
/// old engine, and most allocator traffic disappear from the per-query
/// cost. Results are reported in input order; a `--jobs=8` run is
/// byte-identical to a one-worker one.
///
/// The cache lookup is single-flight (ResultCache::probe): a miss
/// claims its canonical key. A worker that meets the key while the
/// claim is open sets the task aside, keeps popping, and once the pool
/// is drained waits for the claimant's verdict (a pure function of the
/// key) instead of proving it again; that counts one hit, and the wait
/// is cache time. So each key is proved once per run at any `--jobs`:
/// BatchStats::CacheMisses is the number of distinct canonical keys
/// proved and CacheHits the rest. A claim that ends without a verdict
/// (the backend path's ParseError return, an exception) is abandoned,
/// and one waiter takes it over.
///
/// The engine can also discharge tasks through any
/// core::EntailmentBackend (BatchOptions::Backend): the Berdine and
/// unfolding baselines, or the racing portfolio. Those paths still
/// canonicalize and cache in the worker's session, then hand the
/// *canonical* text to the backend, so verdicts stay pure functions of
/// the canonical key; per-backend win/loss/time tallies are merged
/// into BatchStats::Backends.
///
//===----------------------------------------------------------------------===//

#ifndef SLP_ENGINE_BATCHPROVER_H
#define SLP_ENGINE_BATCHPROVER_H

#include "core/ProverSession.h"
#include "engine/Portfolio.h"
#include "engine/ResultCache.h"
#include "support/Fuel.h"

#include <memory>
#include <string>
#include <vector>

namespace slp {
namespace engine {

/// Engine configuration.
struct BatchOptions {
  unsigned Jobs = 1;          ///< Worker threads; 0 = hardware concurrency.
  bool CacheEnabled = true;   ///< Consult/populate the ResultCache.
  /// Run the polynomial static analyzer (analysis::analyze) on each
  /// parsed query ahead of the cache lookup; a definitive analyzer
  /// verdict skips canonicalization, cache, and prover entirely. The
  /// analyzer is sound, so verdicts are identical either way
  /// (`--no-presolve` on the tools exists for measurement and
  /// differential testing, not correctness).
  bool Presolve = true;
  uint64_t FuelPerQuery = 0;  ///< Inference budget per query; 0 = unlimited.
                              ///< For the portfolio backend this is the
                              ///< per-member budget of each race.
  ResultCache::Options Cache; ///< Shard count and capacity.
  core::ProverOptions Prover; ///< Forwarded to every worker session.
  /// Which prover discharges the tasks. Slp proves directly in the
  /// worker's session (the fast path); the baselines and the portfolio
  /// go through the core::EntailmentBackend interface, one backend
  /// instance per worker.
  BackendKind Backend = BackendKind::Slp;
  /// Portfolio members when Backend == BackendKind::Portfolio.
  std::vector<BackendKind> Portfolio = {
      BackendKind::Slp, BackendKind::Berdine, BackendKind::Unfolding};
  /// Optional batch-level preemption: when the token fires, workers
  /// stop claiming tasks at their next item boundary (the in-flight
  /// query finishes; unclaimed tasks report Verdict::Unknown). The
  /// token must outlive run().
  const CancelToken *Cancel = nullptr;
};

/// What happened to one query of the batch.
enum class QueryStatus : uint8_t {
  Ok,         ///< Proved (or answered from cache).
  ParseError, ///< The query text did not parse; see Error.
};

/// Per-query outcome, reported in input order.
struct QueryResult {
  QueryStatus Status = QueryStatus::Ok;
  core::Verdict V = core::Verdict::Unknown;
  bool FromCache = false;
  /// Decided by the static pre-solver; the saturation prover (and the
  /// cache) never saw this query.
  bool Presolved = false;
  /// Work counters of the proof (zeros for cache hits, parse errors
  /// and presolved queries). On the backend path they are the
  /// backend's: zeros but FuelUsed for the baselines, and for
  /// portfolios summed over the race's members.
  core::ProveStats Stats;
  /// Backend that produced the verdict ("slp", "berdine", ...; for
  /// portfolio runs, the race winner). Empty for cache hits, parse
  /// errors, and undecided portfolio races.
  std::string Backend;
  std::string Error;     ///< Parse diagnostic when Status == ParseError.

  /// Stable one-word rendering used by the tools' output.
  const char *verdictText() const {
    return Status == QueryStatus::ParseError ? "parse-error"
                                             : core::verdictName(V);
  }
};

/// Aggregate counters for one run().
struct BatchStats {
  double Seconds = 0;
  size_t Queries = 0;
  size_t Valid = 0, Invalid = 0, Unknown = 0, ParseErrors = 0;
  /// Hits include tasks resolved by waiting for another worker's proof
  /// of the same key; misses are the distinct keys this run proved.
  uint64_t CacheHits = 0, CacheMisses = 0;
  /// Queries the static pre-solver decided (mirrored to the
  /// analysis.presolved.* counters; PresolveSeconds includes the
  /// misses that fell through to the prover).
  size_t PresolvedValid = 0, PresolvedInvalid = 0;
  double PresolveSeconds = 0;
  /// Work counters summed over every query's QueryResult::Stats, so
  /// over the proved (non-cached, non-presolved) queries. Subsumption
  /// pruning is Work.SubScanBaseline / Work.SubChecks.
  core::ProveStats Work;
  /// Work distribution over the run: workers actually used (Jobs,
  /// clamped to the task count), and the steal pool's counters (all
  /// zero with one worker — nobody to steal from).
  unsigned WorkersUsed = 0;
  uint64_t Steals = 0, StealAttempts = 0;
  /// Per-phase wall clock, summed across workers (CPU-seconds; the
  /// sum can exceed Seconds when Jobs > 1): text parsing, proving
  /// (including the canonical rebuild), and cache lookups/inserts.
  double ParseSeconds = 0, ProveSeconds = 0, CacheSeconds = 0;
  /// Worker-session reuse counters, aggregated over all sessions of
  /// the run: sessions constructed (== workers), rewinds back to the
  /// baseline table, query-local terms and arena payload bytes
  /// reclaimed by those rewinds, and arena slabs recycled from the
  /// free list instead of reallocated.
  size_t Sessions = 0;
  uint64_t SessionResets = 0;
  uint64_t TermsReclaimed = 0;
  uint64_t ArenaBytesReclaimed = 0;
  uint64_t ArenaSlabsReused = 0;
  /// Per-backend win/loss/time breakdown, merged across workers, in
  /// member order (single entry for non-portfolio runs). Cache hits
  /// and parse errors are not races and appear in no tally.
  std::vector<BackendTally> Backends;

  double throughput() const { return Seconds > 0 ? Queries / Seconds : 0; }
  double hitRate() const {
    uint64_t Lookups = CacheHits + CacheMisses;
    return Lookups ? static_cast<double>(CacheHits) / Lookups : 0.0;
  }
};

/// Orchestrates concurrent proving of proof-task batches. The cache
/// persists across run() calls, so a warm engine answers repeated
/// corpora almost entirely from memory.
class BatchProver {
public:
  explicit BatchProver(BatchOptions Opts = {});

  /// Discharges every task of \p Tasks; returns results in input
  /// order.
  std::vector<QueryResult> run(const std::vector<core::ProofTask> &Tasks);

  /// Convenience overload: proves every query of \p Queries (one
  /// entailment each, in the slp concrete syntax) as anonymous tasks.
  std::vector<QueryResult> run(const std::vector<std::string> &Queries);

  /// Counters of the most recent run().
  const BatchStats &stats() const { return Stats; }

  const ResultCache &cache() const { return Cache; }
  const BatchOptions &options() const { return Opts; }

  /// Splits corpus text into query lines, dropping blanks and
  /// comment-only lines (`#` or `//`). When \p LineNos is non-null it
  /// receives the 1-based source line of each returned query, so
  /// callers can report diagnostics against the original file.
  static std::vector<std::string>
  splitCorpus(std::string_view Text, std::vector<unsigned> *LineNos = nullptr);

private:
  /// Everything one worker owns for the duration of a batch: the
  /// parse/canonicalization session (which doubles as the proving
  /// session on the Slp fast path), the backend object for the other
  /// backends, and the per-backend accounting.
  struct Worker {
    explicit Worker(const BatchOptions &Opts);

    core::ProverSession Session;
    /// Null on the Slp fast path (the session itself proves).
    std::unique_ptr<core::EntailmentBackend> Backend;
    /// Set iff Backend is a portfolio (it keeps its own tallies).
    PortfolioProver *Portfolio = nullptr;
    /// Single-backend tally, synthesized by proveOne; unused when
    /// Portfolio is set.
    BackendTally Tally;
    double ParseSeconds = 0, PresolveSeconds = 0, ProveSeconds = 0,
           CacheSeconds = 0;
    /// Tasks whose key another worker claimed when probed, for
    /// resolveLater: input index, canonical key and probe.
    struct Deferred { size_t Index; CanonicalQuery Q; ResultCache::Probe P; };
    std::vector<Deferred> Later;

    /// The tallies to merge into BatchStats at end of batch.
    std::vector<BackendTally> tallies() const;
  };

  /// Answers task \p Index, or sets it aside in W.Later (returning a
  /// placeholder) when another worker claims its key.
  QueryResult proveOne(const core::ProofTask &Task, size_t Index, Worker &W);
  /// Proves \p Q, claiming it in the cache when the cache is on.
  QueryResult proveCanonical(const core::ProofTask &Task,
                             const CanonicalQuery &Q, Worker &W);
  /// Answers W.Later into \p Results once \p W has nothing to pop.
  void resolveLater(const std::vector<core::ProofTask> &Tasks, Worker &W,
                    std::vector<QueryResult> &Results);

  BatchOptions Opts;
  ResultCache Cache;
  BatchStats Stats;
};

} // namespace engine
} // namespace slp

#endif // SLP_ENGINE_BATCHPROVER_H
