//===- engine/ResultCache.cpp - Sharded verdict memo cache --------------------===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//

#include "engine/ResultCache.h"

#include "support/Invariants.h"

#include <algorithm>

using namespace slp;
using namespace slp::engine;

ResultCache::ResultCache(Options Opts)
    : HitsMetric(obs::metrics().counter("cache.hits")),
      MissesMetric(obs::metrics().counter("cache.misses")),
      InsertionsMetric(obs::metrics().counter("cache.insertions")),
      EvictionsMetric(obs::metrics().counter("cache.evictions")),
      EntriesMetric(obs::metrics().gauge("cache.entries")) {
  size_t NumShards = std::max<size_t>(1, Opts.NumShards);
  // Distribute the requested bound across shards, spreading the
  // remainder over the first MaxEntries % NumShards shards so the
  // total capacity is exactly max(MaxEntries, NumShards) — every
  // shard needs at least one slot for the LRU list to make sense.
  size_t Total = std::max(Opts.MaxEntries, NumShards);
  size_t Base = Total / NumShards;
  size_t Remainder = Total % NumShards;
  Shards.reserve(NumShards);
  for (size_t I = 0; I != NumShards; ++I) {
    Shards.push_back(std::make_unique<Shard>());
    Shards.back()->Cap = Base + (I < Remainder ? 1 : 0);
  }
}

std::optional<core::Verdict> ResultCache::hitLocked(Shard &S,
                                                    const std::string &Key) {
  auto It = S.Map.find(Key);
  if (It == S.Map.end())
    return std::nullopt;
  ++S.Hits;
  HitsMetric.inc();
  S.Lru.splice(S.Lru.begin(), S.Lru, It->second);
  return It->second->second;
}

std::optional<core::Verdict> ResultCache::lookup(const CanonicalQuery &Q) {
  Shard &S = shardFor(Q.hash());
  std::lock_guard<std::mutex> Lock(S.M);
  if (std::optional<core::Verdict> Hit = hitLocked(S, Q.key()))
    return Hit;
  ++S.Misses;
  MissesMetric.inc();
  return std::nullopt;
}

ResultCache::Probe ResultCache::probe(const CanonicalQuery &Q) {
  Shard &S = shardFor(Q.hash());
  std::lock_guard<std::mutex> Lock(S.M);
  if (std::optional<core::Verdict> Hit = hitLocked(S, Q.key()))
    return {Probe::Hit, *Hit, nullptr};
  auto [It, Claimed] =
      S.Pending.try_emplace(Q.key(), std::make_shared<InFlight>());
  if (!Claimed)
    return {Probe::Pending, core::Verdict::Unknown, It->second};
  ++S.Misses;
  MissesMetric.inc();
  return {Probe::Claimed, core::Verdict::Unknown, nullptr};
}

std::optional<core::Verdict> ResultCache::wait(const CanonicalQuery &Q,
                                               Probe P) {
  Shard &S = shardFor(Q.hash());
  std::unique_lock<std::mutex> Lock(S.M);
  for (std::shared_ptr<InFlight> Slot = std::move(P.Slot);;) {
    // The slot outlives its Pending entry, and its verdict survives an
    // eviction of the LRU entry insert() made.
    S.Ready.wait(Lock, [&Slot] { return Slot->Done; });
    if (Slot->V) {
      ++S.Hits;
      HitsMetric.inc();
      return Slot->V;
    }
    // Abandoned: the first waiter back under the lock takes the claim
    // over; the others wait on its claim.
    if (std::optional<core::Verdict> Hit = hitLocked(S, Q.key()))
      return Hit;
    auto [It, Claimed] =
        S.Pending.try_emplace(Q.key(), std::make_shared<InFlight>());
    if (Claimed)
      return std::nullopt;
    Slot = It->second;
  }
}

void ResultCache::settle(Shard &S, const std::string &Key,
                         std::optional<core::Verdict> V) {
  auto It = S.Pending.find(Key);
  if (It == S.Pending.end())
    return;
  It->second->V = V;
  It->second->Done = true;
  S.Pending.erase(It);
  S.Ready.notify_all();
}

void ResultCache::abandon(const CanonicalQuery &Q) {
  Shard &S = shardFor(Q.hash());
  std::lock_guard<std::mutex> Lock(S.M);
  settle(S, Q.key(), std::nullopt);
}

void ResultCache::insert(const CanonicalQuery &Q, core::Verdict V) {
  Shard &S = shardFor(Q.hash());
  std::lock_guard<std::mutex> Lock(S.M);
  settle(S, Q.key(), V);
  if (S.Map.count(Q.key()))
    return; // Racing duplicate; identical by construction.
  while (S.Lru.size() >= S.Cap) {
    S.Map.erase(S.Lru.back().first);
    S.Lru.pop_back();
    ++S.Evictions;
    EvictionsMetric.inc();
    EntriesMetric.add(-1);
  }
  S.Lru.emplace_front(Q.key(), V);
  S.Map.emplace(S.Lru.front().first, S.Lru.begin());
  SLP_INVARIANT(S.Lru.size() <= S.Cap,
                "cache shard grew past its capacity");
  SLP_INVARIANT(S.Map.size() == S.Lru.size(),
                "cache shard map and LRU list disagree");
  ++S.Insertions;
  InsertionsMetric.inc();
  EntriesMetric.add(1);
}

CacheStats ResultCache::stats() const {
  CacheStats Out;
  for (const std::unique_ptr<Shard> &S : Shards) {
    std::lock_guard<std::mutex> Lock(S->M);
    Out.Hits += S->Hits;
    Out.Misses += S->Misses;
    Out.Insertions += S->Insertions;
    Out.Evictions += S->Evictions;
    Out.Entries += S->Lru.size();
  }
  return Out;
}

size_t ResultCache::size() const {
  size_t N = 0;
  for (const std::unique_ptr<Shard> &S : Shards) {
    std::lock_guard<std::mutex> Lock(S->M);
    N += S->Lru.size();
  }
  return N;
}

size_t ResultCache::capacity() const {
  size_t N = 0;
  for (const std::unique_ptr<Shard> &S : Shards)
    N += S->Cap;
  return N;
}

void ResultCache::clear() {
  for (const std::unique_ptr<Shard> &S : Shards) {
    std::lock_guard<std::mutex> Lock(S->M);
    EntriesMetric.add(-static_cast<int64_t>(S->Lru.size()));
    S->Map.clear();
    S->Lru.clear();
  }
}
