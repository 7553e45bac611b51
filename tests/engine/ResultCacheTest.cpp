//===- tests/engine/ResultCacheTest.cpp -----------------------------------------===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//
///
/// The memoizing entailment cache: canonical key construction
/// (alpha-invariance, symmetric-atom orientation, normalizations),
/// hit/miss accounting, LRU eviction, concurrent access, and the
/// single-flight claim/wait protocol.
///
//===----------------------------------------------------------------------===//

#include "engine/CanonicalKey.h"
#include "engine/ResultCache.h"
#include "sl/Parser.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

using namespace slp;
using namespace slp::engine;

namespace {

class ResultCacheTest : public ::testing::Test {
protected:
  SymbolTable Symbols;
  TermTable Terms{Symbols};

  CanonicalQuery canon(const char *Input) {
    sl::ParseResult P = sl::parseEntailment(Terms, Input);
    EXPECT_TRUE(P.ok()) << Input;
    return CanonicalQuery::of(*P.Value);
  }
};

/// Long enough for started threads to block on a claimed key. Nothing
/// below depends on it for correctness: a claimed key can never be
/// answered before its claim ends, and a late waiter sees the same
/// outcome as an early one.
void letWaitersBlock() {
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
}

/// Probes \p Q and, when another caller claims it, waits the claim out
/// at once: the verdict (a hit), or nullopt when the caller claims \p Q.
std::optional<core::Verdict> lookupOrClaim(ResultCache &Cache,
                                           const CanonicalQuery &Q) {
  ResultCache::Probe P = Cache.probe(Q);
  switch (P.K) {
  case ResultCache::Probe::Hit:
    return P.V;
  case ResultCache::Probe::Claimed:
    return std::nullopt;
  case ResultCache::Probe::Pending:
    break;
  }
  return Cache.wait(Q, std::move(P));
}

} // namespace

TEST_F(ResultCacheTest, KeyIsStable) {
  EXPECT_EQ(canon("x != y & lseg(x, y) |- lseg(x, y)").key(),
            canon("x != y & lseg(x, y) |- lseg(x, y)").key());
}

TEST_F(ResultCacheTest, KeyIsAlphaInvariant) {
  CanonicalQuery A = canon("x != y & lseg(x, y) * next(y, z) |- lseg(x, z)");
  CanonicalQuery B = canon("a != b & lseg(a, b) * next(b, c) |- lseg(a, c)");
  EXPECT_EQ(A.key(), B.key());
  EXPECT_EQ(A.hash(), B.hash());
}

TEST_F(ResultCacheTest, NilIsNotRenamed) {
  // nil has fixed semantics; a query about nil is not alpha-equivalent
  // to the same shape over an ordinary variable.
  EXPECT_NE(canon("next(x, nil) |- lseg(x, nil)").key(),
            canon("next(x, y) |- lseg(x, y)").key());
}

TEST_F(ResultCacheTest, SymmetricPureAtomsAreOriented) {
  EXPECT_EQ(canon("x != y & lseg(x, y) |- lseg(x, y)").key(),
            canon("y != x & lseg(x, y) |- lseg(x, y)").key());
  EXPECT_EQ(canon("x = nil |- lseg(x, nil)").key(),
            canon("nil = x |- lseg(x, nil)").key());
}

TEST_F(ResultCacheTest, NormalizationsApply) {
  // Duplicate pure conjuncts and trivial lseg(x, x) atoms vanish.
  EXPECT_EQ(canon("x != y & x != y & lseg(x, y) |- lseg(x, y)").key(),
            canon("x != y & lseg(x, y) |- lseg(x, y)").key());
  EXPECT_EQ(canon("lseg(x, x) * next(y, z) |- next(y, z)").key(),
            canon("next(y, z) |- next(y, z)").key());
  EXPECT_EQ(canon("x = x & next(y, z) |- next(y, z)").key(),
            canon("next(y, z) |- next(y, z)").key());
}

TEST_F(ResultCacheTest, DistinctStructuresGetDistinctKeys) {
  EXPECT_NE(canon("next(x, y) |- lseg(x, y)").key(),
            canon("lseg(x, y) |- lseg(x, y)").key());
  EXPECT_NE(canon("next(x, y) |- lseg(x, y)").key(),
            canon("next(x, y) |- next(x, y)").key());
  EXPECT_NE(canon("x = y |- x = y").key(), canon("x != y |- x != y").key());
}

TEST_F(ResultCacheTest, RebuildRoundTripsToSameKey) {
  const char *Inputs[] = {
      "x != y & lseg(x, y) * next(y, z) |- lseg(x, z)",
      "nil = nil |- x = y",
      "b != a & next(a, b) * lseg(b, nil) |- lseg(a, nil)",
  };
  for (const char *In : Inputs) {
    CanonicalQuery Q = canon(In);
    SymbolTable S2;
    TermTable T2(S2);
    sl::Entailment Rebuilt = Q.rebuild(T2);
    EXPECT_EQ(CanonicalQuery::of(Rebuilt).key(), Q.key()) << In;
  }
}

TEST_F(ResultCacheTest, HitAndMissAccounting) {
  ResultCache Cache;
  CanonicalQuery Q = canon("x != y & lseg(x, y) |- lseg(x, y)");
  EXPECT_FALSE(Cache.lookup(Q).has_value());
  Cache.insert(Q, core::Verdict::Valid);
  std::optional<core::Verdict> Hit = Cache.lookup(Q);
  ASSERT_TRUE(Hit.has_value());
  EXPECT_EQ(*Hit, core::Verdict::Valid);

  CacheStats S = Cache.stats();
  EXPECT_EQ(S.Hits, 1u);
  EXPECT_EQ(S.Misses, 1u);
  EXPECT_EQ(S.Insertions, 1u);
  EXPECT_EQ(S.Entries, 1u);
  EXPECT_DOUBLE_EQ(S.hitRate(), 0.5);
}

TEST_F(ResultCacheTest, AlphaEquivalentQueriesCollide) {
  ResultCache Cache;
  Cache.insert(canon("x != y & lseg(x, y) * next(y, z) |- lseg(x, z)"),
               core::Verdict::Valid);
  std::optional<core::Verdict> Hit =
      Cache.lookup(canon("p != q & lseg(p, q) * next(q, r) |- lseg(p, r)"));
  ASSERT_TRUE(Hit.has_value());
  EXPECT_EQ(*Hit, core::Verdict::Valid);
  EXPECT_EQ(Cache.size(), 1u);
}

TEST_F(ResultCacheTest, EvictsLeastRecentlyUsed) {
  ResultCache::Options Opts;
  Opts.NumShards = 1; // Single shard so capacity is exact.
  Opts.MaxEntries = 3;
  ResultCache Cache(Opts);

  std::vector<CanonicalQuery> Queries;
  for (int I = 0; I != 5; ++I) {
    std::string Q = "next(x, y) |- ";
    for (int J = 0; J != I + 1; ++J)
      Q += (J ? " * next(x, y)" : "next(x, y)");
    Queries.push_back(canon(Q.c_str()));
  }

  Cache.insert(Queries[0], core::Verdict::Valid);
  Cache.insert(Queries[1], core::Verdict::Invalid);
  Cache.insert(Queries[2], core::Verdict::Valid);
  EXPECT_EQ(Cache.size(), 3u);

  // Touch query 0 so query 1 becomes the LRU entry, then overflow.
  EXPECT_TRUE(Cache.lookup(Queries[0]).has_value());
  Cache.insert(Queries[3], core::Verdict::Invalid);
  EXPECT_EQ(Cache.size(), 3u);
  EXPECT_TRUE(Cache.lookup(Queries[0]).has_value());
  EXPECT_FALSE(Cache.lookup(Queries[1]).has_value()) << "LRU not evicted";
  Cache.insert(Queries[4], core::Verdict::Valid);
  EXPECT_EQ(Cache.size(), 3u);
  EXPECT_GE(Cache.stats().Evictions, 2u);
}

TEST_F(ResultCacheTest, CapacityEqualsRequestedBound) {
  // The shard split must neither overshoot nor undershoot the
  // requested bound: total capacity is exactly max(MaxEntries,
  // NumShards), with the division remainder spread across shards.
  struct Case {
    size_t Shards, MaxEntries, Want;
  };
  const Case Cases[] = {
      {16, 100, 100}, // 100 % 16 != 0: old code capped at 96.
      {7, 10, 10},    // old code: 7 * max(1, 10/7) = 7.
      {16, 5, 16},    // fewer entries than shards: one slot each.
      {16, 0, 16},
      {1, 3, 3},
      {4, 4, 4},
      {3, 1u << 20, 1u << 20},
  };
  for (const Case &C : Cases) {
    ResultCache::Options Opts;
    Opts.NumShards = C.Shards;
    Opts.MaxEntries = C.MaxEntries;
    ResultCache Cache(Opts);
    EXPECT_EQ(Cache.capacity(), C.Want)
        << C.Shards << " shards, " << C.MaxEntries << " entries";
  }
}

TEST_F(ResultCacheTest, SizeNeverExceedsCapacity) {
  ResultCache::Options Opts;
  Opts.NumShards = 4;
  Opts.MaxEntries = 10; // 10 = 4*2 + 2: two shards hold 3, two hold 2.
  ResultCache Cache(Opts);
  EXPECT_EQ(Cache.capacity(), 10u);
  for (int I = 0; I != 64; ++I) {
    std::string Q = "x != y |- ";
    for (int J = 0; J <= I; ++J)
      Q += (J ? " * next(x, y)" : "next(x, y)");
    Cache.insert(canon(Q.c_str()), core::Verdict::Valid);
    EXPECT_LE(Cache.size(), Cache.capacity());
  }
  EXPECT_GT(Cache.stats().Evictions, 0u);
}

TEST_F(ResultCacheTest, DuplicateInsertIsNoOp) {
  ResultCache Cache;
  CanonicalQuery Q = canon("next(x, y) |- lseg(x, y)");
  Cache.insert(Q, core::Verdict::Valid);
  Cache.insert(Q, core::Verdict::Valid);
  EXPECT_EQ(Cache.size(), 1u);
  EXPECT_EQ(Cache.stats().Insertions, 1u);
}

TEST_F(ResultCacheTest, ClearEmptiesAllShards) {
  ResultCache Cache;
  Cache.insert(canon("next(x, y) |- lseg(x, y)"), core::Verdict::Valid);
  Cache.insert(canon("lseg(x, y) |- lseg(x, y)"), core::Verdict::Valid);
  EXPECT_EQ(Cache.size(), 2u);
  Cache.clear();
  EXPECT_EQ(Cache.size(), 0u);
}

TEST_F(ResultCacheTest, ConcurrentMixedAccessIsSafe) {
  ResultCache Cache;
  // Pre-build distinct canonical queries on the main thread (the
  // shared TermTable is not thread safe; the cache is the subject).
  std::vector<CanonicalQuery> Queries;
  for (int I = 0; I != 16; ++I) {
    std::string Q = "x != y |- ";
    for (int J = 0; J != I + 1; ++J)
      Q += (J ? " * next(x, y)" : "next(x, y)");
    Queries.push_back(canon(Q.c_str()));
  }

  std::vector<std::thread> Threads;
  for (int T = 0; T != 4; ++T)
    Threads.emplace_back([&Cache, &Queries, T] {
      for (int Round = 0; Round != 200; ++Round) {
        const CanonicalQuery &Q = Queries[(T * 7 + Round) % Queries.size()];
        if (!Cache.lookup(Q))
          Cache.insert(Q, core::Verdict::Valid);
      }
    });
  for (std::thread &T : Threads)
    T.join();

  CacheStats S = Cache.stats();
  EXPECT_EQ(S.Entries, Queries.size());
  EXPECT_EQ(S.Hits + S.Misses, 4u * 200u);
  for (const CanonicalQuery &Q : Queries)
    EXPECT_TRUE(Cache.lookup(Q).has_value());
}

TEST_F(ResultCacheTest, ClaimThenInsertIsOneMiss) {
  ResultCache Cache;
  CanonicalQuery Q = canon("next(x, y) |- lseg(x, y)");
  EXPECT_FALSE(lookupOrClaim(Cache, Q).has_value());
  Cache.insert(Q, core::Verdict::Valid);
  std::optional<core::Verdict> Hit = lookupOrClaim(Cache, Q);
  ASSERT_TRUE(Hit.has_value());
  EXPECT_EQ(*Hit, core::Verdict::Valid);
  CacheStats S = Cache.stats();
  EXPECT_EQ(S.Hits, 1u);
  EXPECT_EQ(S.Misses, 1u);
  EXPECT_EQ(S.Insertions, 1u);
}

TEST_F(ResultCacheTest, PlainLookupNeitherClaimsNorWaits) {
  ResultCache Cache;
  CanonicalQuery Q = canon("next(x, y) |- lseg(x, y)");
  EXPECT_FALSE(lookupOrClaim(Cache, Q).has_value());
  // The key is claimed but has no verdict yet: a plain lookup misses at
  // once, as it did before claims existed.
  EXPECT_FALSE(Cache.lookup(Q).has_value());
  Cache.insert(Q, core::Verdict::Invalid);
  EXPECT_EQ(Cache.lookup(Q), core::Verdict::Invalid);
  EXPECT_EQ(Cache.stats().Misses, 2u);
}

TEST_F(ResultCacheTest, WaiterReceivesClaimantsVerdictAsHit) {
  ResultCache Cache;
  CanonicalQuery Q = canon("x != y & lseg(x, y) |- lseg(x, y)");
  ASSERT_FALSE(lookupOrClaim(Cache, Q).has_value());

  std::atomic<bool> Returned{false};
  std::optional<core::Verdict> Got;
  std::thread Waiter([&] {
    Got = lookupOrClaim(Cache, Q);
    Returned = true;
  });
  letWaitersBlock();
  EXPECT_FALSE(Returned) << "a claimed key was answered before its verdict";
  Cache.insert(Q, core::Verdict::Valid);
  Waiter.join();

  ASSERT_TRUE(Got.has_value());
  EXPECT_EQ(*Got, core::Verdict::Valid);
  CacheStats S = Cache.stats();
  EXPECT_EQ(S.Misses, 1u);
  EXPECT_EQ(S.Hits, 1u);
  EXPECT_EQ(S.Insertions, 1u);
}

TEST_F(ResultCacheTest, AbandonHandsTheClaimToExactlyOneWaiter) {
  ResultCache Cache;
  CanonicalQuery Q = canon("next(x, y) * next(y, z) |- lseg(x, z)");
  ASSERT_FALSE(lookupOrClaim(Cache, Q).has_value());

  constexpr int NumWaiters = 4;
  std::atomic<int> Returned{0}, NewClaimants{0};
  std::vector<std::optional<core::Verdict>> Got(NumWaiters);
  std::vector<std::thread> Waiters;
  for (int I = 0; I != NumWaiters; ++I)
    Waiters.emplace_back([&, I] {
      Got[I] = lookupOrClaim(Cache, Q);
      if (!Got[I]) {
        // This waiter now owns the key and must end its claim.
        ++NewClaimants;
        Cache.insert(Q, core::Verdict::Invalid);
      }
      ++Returned;
    });
  letWaitersBlock();
  EXPECT_EQ(Returned, 0) << "a claimed key was answered before its verdict";
  Cache.abandon(Q);
  for (std::thread &T : Waiters)
    T.join(); // A waiter left hanging would hang the test here.

  EXPECT_EQ(NewClaimants, 1);
  for (const std::optional<core::Verdict> &V : Got)
    EXPECT_EQ(V.value_or(core::Verdict::Invalid), core::Verdict::Invalid);
  CacheStats S = Cache.stats();
  // The successor inherits the first claim's miss.
  EXPECT_EQ(S.Misses, 1u);
  EXPECT_EQ(S.Hits, static_cast<uint64_t>(NumWaiters - 1));
  EXPECT_EQ(S.Insertions, 1u);
}

TEST_F(ResultCacheTest, WaiterKeepsVerdictEvictedBeforeItWakes) {
  ResultCache::Options Opts;
  Opts.NumShards = 1;
  Opts.MaxEntries = 1; // The next insert evicts the claimed key's entry.
  ResultCache Cache(Opts);
  CanonicalQuery Q = canon("next(x, y) |- lseg(x, y)");
  CanonicalQuery Other = canon("lseg(x, y) |- next(x, y)");
  ASSERT_FALSE(lookupOrClaim(Cache, Q).has_value());

  std::optional<core::Verdict> Got;
  std::thread Waiter([&] { Got = lookupOrClaim(Cache, Q); });
  letWaitersBlock();
  // Publish and evict back to back: the waiter usually wakes only after
  // the eviction. Either order must hand it the published verdict.
  Cache.insert(Q, core::Verdict::Valid);
  Cache.insert(Other, core::Verdict::Invalid);
  Waiter.join();

  ASSERT_TRUE(Got.has_value()) << "the eviction turned a wait into a miss";
  EXPECT_EQ(*Got, core::Verdict::Valid);
  CacheStats S = Cache.stats();
  EXPECT_EQ(S.Evictions, 1u);
  EXPECT_EQ(S.Hits, 1u);
  EXPECT_EQ(S.Misses, 1u);
  EXPECT_FALSE(Cache.lookup(Q).has_value()) << "Q should have been evicted";
}

TEST_F(ResultCacheTest, ConcurrentClaimsProveEachKeyOnce) {
  ResultCache Cache;
  std::vector<CanonicalQuery> Queries;
  for (int I = 0; I != 8; ++I) {
    std::string Q = "x != y |- ";
    for (int J = 0; J != I + 1; ++J)
      Q += (J ? " * next(x, y)" : "next(x, y)");
    Queries.push_back(canon(Q.c_str()));
  }

  std::atomic<int> Claims{0}, Takeovers{0}, Published{0};
  std::vector<std::thread> Threads;
  for (int T = 0; T != 4; ++T)
    Threads.emplace_back([&, T] {
      for (int Round = 0; Round != 100; ++Round) {
        const CanonicalQuery &Q = Queries[(T * 3 + Round) % Queries.size()];
        ResultCache::Probe P = Cache.probe(Q);
        bool Claimed = P.K == ResultCache::Probe::Claimed;
        if (P.K == ResultCache::Probe::Pending && !Cache.wait(Q, P)) {
          Claimed = true;
          ++Takeovers; // An abandoned claim passed to this thread.
        }
        if (Claimed) {
          ++Claims;
          if (Round % 5 == 0) {
            Cache.abandon(Q); // Leave it for another thread.
          } else {
            Cache.insert(Q, core::Verdict::Valid);
            ++Published;
          }
        }
      }
    });
  for (std::thread &T : Threads)
    T.join();

  // Every lookup is a hit, a fresh claim (a miss), or a takeover of an
  // abandoned claim (counted by the claim it took over).
  CacheStats S = Cache.stats();
  EXPECT_EQ(S.Hits + S.Misses + Takeovers, 4u * 100u);
  EXPECT_EQ(S.Misses + Takeovers, static_cast<uint64_t>(Claims.load()));
  // No key was proved while another claim on it was open.
  EXPECT_EQ(static_cast<uint64_t>(Published.load()), S.Entries);
  EXPECT_LE(S.Entries, Queries.size());
}

TEST_F(ResultCacheTest, ProbeOfClaimedKeyIsPendingAndCountsNothing) {
  ResultCache Cache;
  CanonicalQuery Q = canon("x != y & lseg(x, y) |- lseg(x, y)");
  std::thread Claimant([&] {
    EXPECT_EQ(Cache.probe(Q).K, ResultCache::Probe::Claimed);
  });
  Claimant.join();

  // Another caller's probe neither blocks nor counts.
  ResultCache::Probe P = Cache.probe(Q);
  ASSERT_EQ(P.K, ResultCache::Probe::Pending);
  EXPECT_EQ(Cache.probe(Q).K, ResultCache::Probe::Pending);
  CacheStats S = Cache.stats();
  EXPECT_EQ(S.Hits, 0u);
  EXPECT_EQ(S.Misses, 1u);

  // The later wait takes the claimant's verdict as exactly one hit.
  std::thread Publisher([&] {
    letWaitersBlock();
    Cache.insert(Q, core::Verdict::Valid);
  });
  std::optional<core::Verdict> Got = Cache.wait(Q, P);
  Publisher.join();
  ASSERT_TRUE(Got.has_value());
  EXPECT_EQ(*Got, core::Verdict::Valid);
  S = Cache.stats();
  EXPECT_EQ(S.Hits, 1u);
  EXPECT_EQ(S.Misses, 1u);
  EXPECT_EQ(S.Insertions, 1u);
}

TEST_F(ResultCacheTest, AbandonedClaimPassesToWaiterWithOneMiss) {
  ResultCache Cache;
  CanonicalQuery Q = canon("next(x, y) * next(y, z) |- lseg(x, z)");
  std::thread Claimant([&] {
    EXPECT_EQ(Cache.probe(Q).K, ResultCache::Probe::Claimed);
  });
  Claimant.join();
  ResultCache::Probe P = Cache.probe(Q);
  ASSERT_EQ(P.K, ResultCache::Probe::Pending);

  std::thread Abandoner([&] {
    letWaitersBlock();
    Cache.abandon(Q);
  });
  EXPECT_FALSE(Cache.wait(Q, P).has_value()) << "the claim did not pass";
  Abandoner.join();
  // The waiter now claims the key: others find it pending.
  EXPECT_EQ(Cache.probe(Q).K, ResultCache::Probe::Pending);
  Cache.insert(Q, core::Verdict::Invalid);
  ResultCache::Probe After = Cache.probe(Q);
  EXPECT_EQ(After.K, ResultCache::Probe::Hit);
  EXPECT_EQ(After.V, core::Verdict::Invalid);

  CacheStats S = Cache.stats();
  EXPECT_EQ(S.Misses, 1u);
  EXPECT_EQ(S.Hits, 1u); // The probe after the insert.
  EXPECT_EQ(S.Insertions, 1u);
}
