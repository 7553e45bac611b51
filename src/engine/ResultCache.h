//===- engine/ResultCache.h - Sharded verdict memo cache --------*- C++ -*-===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A thread-safe, sharded, bounded LRU cache from canonical query keys
/// to prover verdicts. Workers of the batch engine consult it before
/// proving, so duplicate and alpha-equivalent queries in a corpus are
/// answered without re-running the prover.
///
/// Single flight: probe() makes the first caller that misses on a key
/// its *claimant* (one miss); a later probe while the claim is open
/// counts nothing and returns it *pending*. wait() then blocks until
/// the claimant publishes the verdict with insert() (one hit) or gives
/// the key up with abandon(); then the first waiter back takes the
/// claim over, with no second miss. So a key is proved once however
/// many workers ask for it: misses count the distinct keys proved, and
/// hits every other lookup. A waiter takes the verdict from the
/// in-flight slot its probe saw, so an eviction cannot turn the hit
/// back into a miss. Waits cannot deadlock as long as no caller waits
/// while it holds a claim. The plain lookup() neither claims nor waits.
///
/// Sharding: the key's precomputed hash selects one of NumShards
/// independent shards, each with its own mutex, map, and LRU list, so
/// concurrent workers rarely contend on the same lock. Eviction is
/// per-shard least-recently-used with a per-shard capacity derived
/// from the total MaxEntries bound. Each shard keeps its in-flight
/// claims and the condition variable its waiters sleep on.
///
//===----------------------------------------------------------------------===//

#ifndef SLP_ENGINE_RESULTCACHE_H
#define SLP_ENGINE_RESULTCACHE_H

#include "core/Prover.h"
#include "engine/CanonicalKey.h"
#include "obs/Metrics.h"

#include <condition_variable>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace slp {
namespace engine {

/// Aggregated counters across all shards.
struct CacheStats {
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  uint64_t Insertions = 0;
  uint64_t Evictions = 0;
  size_t Entries = 0;

  double hitRate() const {
    uint64_t Lookups = Hits + Misses;
    return Lookups ? static_cast<double>(Hits) / Lookups : 0.0;
  }
};

/// Memoizes entailment verdicts keyed by CanonicalQuery::key().
class ResultCache {
  /// One claimed key's rendezvous: set Done (with V on insert, without
  /// on abandon) and notify the shard's Ready. Waiters keep the slot
  /// alive after the claim leaves the shard's Pending map.
  struct InFlight {
    std::optional<core::Verdict> V;
    bool Done = false;
  };

public:
  struct Options {
    size_t NumShards = 16;         ///< Independent lock domains.
    size_t MaxEntries = 1u << 20;  ///< Total capacity across shards.
  };

  ResultCache() : ResultCache(Options()) {}
  explicit ResultCache(Options Opts);
  /// Releases this cache's contribution to the `cache.entries` gauge.
  ~ResultCache() { clear(); }

  /// Returns the memoized verdict for \p Q, refreshing its LRU slot;
  /// nullopt on a miss. Thread safe.
  std::optional<core::Verdict> lookup(const CanonicalQuery &Q);

  /// What probe() found: the memoized verdict V (a hit), a claim the
  /// caller now holds (a miss), or another caller's open claim Slot
  /// (nothing counted; resolve it with wait()).
  struct Probe {
    enum Kind : uint8_t { Hit, Claimed, Pending } K = Claimed;
    core::Verdict V = core::Verdict::Unknown;
    std::shared_ptr<InFlight> Slot;
  };

  /// Single-flight lookup that never blocks. A Claimed caller must end
  /// its claim on \p Q with insert() or abandon(). Thread safe.
  Probe probe(const CanonicalQuery &Q);

  /// Blocks until the claim a Pending probe \p P of \p Q saw ends, and
  /// returns its verdict (a hit). If it was abandoned, returns a later
  /// or memoized verdict the same way, or takes the claim over
  /// (nothing counted) and returns nullopt. Thread safe.
  std::optional<core::Verdict> wait(const CanonicalQuery &Q, Probe P);

  /// Releases a claim on \p Q without a verdict; one waiter on \p Q
  /// (if any) then becomes its claimant. A no-op when \p Q is not
  /// claimed. Thread safe.
  void abandon(const CanonicalQuery &Q);

  /// Memoizes \p V for \p Q, evicting the shard's least recently used
  /// entry when full, and hands \p V to every waiter on a claim of
  /// \p Q (ending the claim). A racing duplicate insert is a no-op
  /// (first writer wins; verdicts for one key are identical by
  /// construction). Thread safe.
  void insert(const CanonicalQuery &Q, core::Verdict V);

  /// Snapshot of the aggregated counters. Thread safe.
  CacheStats stats() const;

  size_t size() const;

  /// Total entry bound across all shards: exactly
  /// max(Options::MaxEntries, NumShards) — the requested bound, with
  /// the division remainder spread over the first shards, and a floor
  /// of one slot per shard.
  size_t capacity() const;

  /// Drops every memoized entry. In-flight claims stay claimed.
  void clear();

private:
  struct Shard {
    mutable std::mutex M;
    /// Front = most recently used. Node addresses are stable, so the
    /// map below can key on views into the stored strings.
    std::list<std::pair<std::string, core::Verdict>> Lru;
    std::unordered_map<std::string_view,
                       std::list<std::pair<std::string, core::Verdict>>::iterator>
        Map;
    /// Claimed keys whose verdict is being computed.
    std::unordered_map<std::string, std::shared_ptr<InFlight>> Pending;
    std::condition_variable Ready;
    uint64_t Hits = 0, Misses = 0, Insertions = 0, Evictions = 0;
    /// This shard's entry bound (immutable after construction).
    size_t Cap = 1;
  };

  Shard &shardFor(uint64_t Hash) {
    return *Shards[Hash % Shards.size()];
  }

  /// Returns \p Key's memoized verdict and refreshes its LRU slot,
  /// counting a hit; nullopt (nothing counted) when absent. Requires
  /// S.M held.
  std::optional<core::Verdict> hitLocked(Shard &S, const std::string &Key);

  /// Ends the claim on \p Key in \p S (if any), handing its waiters
  /// \p V; nullopt abandons. Requires S.M held.
  static void settle(Shard &S, const std::string &Key,
                     std::optional<core::Verdict> V);

  std::vector<std::unique_ptr<Shard>> Shards;

  /// Registry mirrors of the shard counters (`cache.*`), accumulated
  /// across every cache instance of the process; the per-instance
  /// stats() above stays the source for per-run accounting.
  obs::Counter &HitsMetric;
  obs::Counter &MissesMetric;
  obs::Counter &InsertionsMetric;
  obs::Counter &EvictionsMetric;
  obs::Gauge &EntriesMetric;
};

} // namespace engine
} // namespace slp

#endif // SLP_ENGINE_RESULTCACHE_H
