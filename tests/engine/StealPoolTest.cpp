//===- tests/engine/StealPoolTest.cpp -------------------------------------===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//
///
/// The work-stealing index distributor: every index of [0, size) must
/// be claimed exactly once regardless of worker count and scheduling,
/// imbalanced per-item costs must trigger stealing, cancellation must
/// preempt all workers at an item boundary, and the counters must add
/// up.
///
//===----------------------------------------------------------------------===//

#include "engine/StealPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

using namespace slp;
using namespace slp::engine;

namespace {

/// Busy-waits for a moment: one expensive item.
void spin() {
  std::atomic<unsigned> Spin{0};
  while (Spin.fetch_add(1, std::memory_order_relaxed) != 20000) {
  }
}

/// Runs \p Workers threads popping from \p Pool, bumping a per-index
/// claim count; returns the counts. Indices for which \p Slow holds
/// busy-wait, giving the run a skewed cost profile.
std::vector<unsigned> drain(StealPool &Pool, unsigned Workers,
                            bool (*Slow)(size_t) = nullptr) {
  std::vector<std::atomic<unsigned>> Claims(Pool.size());
  std::vector<std::thread> Threads;
  for (unsigned W = 0; W != Workers; ++W)
    Threads.emplace_back([&, W] {
      size_t I;
      while (Pool.pop(W, I)) {
        Claims[I].fetch_add(1, std::memory_order_relaxed);
        if (Slow && Slow(I))
          spin();
      }
    });
  for (std::thread &T : Threads)
    T.join();
  std::vector<unsigned> Out;
  Out.reserve(Claims.size());
  for (std::atomic<unsigned> &C : Claims)
    Out.push_back(C.load());
  return Out;
}

TEST(StealPoolTest, EveryIndexClaimedExactlyOnce) {
  for (unsigned Workers : {1u, 2u, 3u, 8u}) {
    StealPool Pool(1000, Workers);
    std::vector<unsigned> Claims = drain(Pool, Workers);
    for (size_t I = 0; I != Claims.size(); ++I)
      EXPECT_EQ(Claims[I], 1u) << "index " << I << " with " << Workers
                               << " workers";
    EXPECT_EQ(Pool.remaining(), 0u);
    EXPECT_EQ(Pool.totals().Executed, 1000u);
  }
}

TEST(StealPoolTest, SizeSmallerThanWorkers) {
  StealPool Pool(3, 8);
  std::vector<unsigned> Claims = drain(Pool, 8);
  for (size_t I = 0; I != Claims.size(); ++I)
    EXPECT_EQ(Claims[I], 1u);
  EXPECT_EQ(Pool.totals().Executed, 3u);
}

TEST(StealPoolTest, EmptyPoolPopsFalse) {
  StealPool Pool(0, 4);
  size_t I;
  EXPECT_FALSE(Pool.pop(0, I));
  EXPECT_FALSE(Pool.pop(3, I));
  EXPECT_EQ(Pool.remaining(), 0u);
}

TEST(StealPoolTest, ImbalanceTriggersStealing) {
  // Worker 0's dealt share (the multiples of 4) is entirely slow
  // items, the other three shares are free: workers 1-3 drain quickly
  // and must relieve worker 0 by stealing (the pool still has hundreds
  // of unclaimed indices when they run dry).
  StealPool Pool(2000, 4);
  std::vector<unsigned> Claims =
      drain(Pool, 4, [](size_t I) { return I % 4 == 0; });
  for (size_t I = 0; I != Claims.size(); ++I)
    EXPECT_EQ(Claims[I], 1u);
  StealStats T = Pool.totals();
  EXPECT_EQ(T.Executed, 2000u);
  EXPECT_GT(T.Steals, 0u);
  EXPECT_GE(T.StealAttempts, T.Steals);
}

TEST(StealPoolTest, SequentialDrainIsInputOrder) {
  // One worker, no thieves: pops walk the block front to back, so the
  // engine's single-job path visits tasks in input order.
  StealPool Pool(100, 1);
  size_t I, Expected = 0;
  while (Pool.pop(0, I))
    EXPECT_EQ(I, Expected++);
  EXPECT_EQ(Expected, 100u);
}

TEST(StealPoolTest, CancelPreemptsAllWorkers) {
  CancelToken Cancel;
  StealPool Pool(100000, 4, /*Depth=*/nullptr, &Cancel);
  std::atomic<size_t> Claimed{0};
  std::vector<std::thread> Threads;
  for (unsigned W = 0; W != 4; ++W)
    Threads.emplace_back([&, W] {
      size_t I;
      while (Pool.pop(W, I)) {
        if (Claimed.fetch_add(1, std::memory_order_relaxed) == 50)
          Cancel.cancel();
      }
    });
  for (std::thread &T : Threads)
    T.join();
  // Every worker stopped at an item boundary well short of the pool.
  EXPECT_LT(Claimed.load(), 100000u);
  EXPECT_GT(Pool.remaining(), 0u);
  size_t I;
  EXPECT_FALSE(Pool.pop(0, I)) << "a fired token must stop future pops";
}

TEST(StealPoolTest, CancelledFromStartClaimsNothing) {
  CancelToken Cancel;
  Cancel.cancel();
  StealPool Pool(64, 2, nullptr, &Cancel);
  std::vector<unsigned> Claims = drain(Pool, 2);
  for (unsigned C : Claims)
    EXPECT_EQ(C, 0u);
  EXPECT_EQ(Pool.remaining(), 64u);
}

TEST(StealPoolTest, DepthGaugeDrainsToZero) {
  obs::Gauge Depth;
  StealPool Pool(10, 2, &Depth);
  EXPECT_EQ(Depth.value(), 10);
  std::vector<unsigned> Claims = drain(Pool, 2);
  for (unsigned C : Claims)
    EXPECT_EQ(C, 1u);
  EXPECT_EQ(Depth.value(), 0);
}

TEST(StealPoolTest, PerWorkerStatsSumToTotals) {
  StealPool Pool(500, 3);
  drain(Pool, 3, [](size_t I) { return I < 100; });
  StealStats Sum;
  for (unsigned W = 0; W != 3; ++W)
    Sum += Pool.stats(W);
  StealStats T = Pool.totals();
  EXPECT_EQ(Sum.Executed, T.Executed);
  EXPECT_EQ(Sum.Steals, T.Steals);
  EXPECT_EQ(Sum.StealAttempts, T.StealAttempts);
}

TEST(StealPoolTest, DealtOrderStartsEachWorkerOnAHeaviestItem) {
  // The engine numbers its tasks heaviest first; round-robin dealing
  // must hand every worker one of the Jobs heaviest as its first pop.
  constexpr size_t Size = 400;
  for (unsigned Workers : {2u, 3u, 4u}) {
    StealPool Pool(Size, Workers);
    std::vector<std::atomic<unsigned>> Claims(Size);
    std::vector<size_t> First(Workers, Size);
    std::atomic<unsigned> Started{0};
    std::vector<std::thread> Threads;
    for (unsigned W = 0; W != Workers; ++W)
      Threads.emplace_back([&, W] {
        // Start together, so nobody drains and steals a late starter's
        // deque before its first pop.
        ++Started;
        while (Started.load() != Workers) {
        }
        size_t I;
        while (Pool.pop(W, I)) {
          if (First[W] == Size)
            First[W] = I;
          Claims[I].fetch_add(1, std::memory_order_relaxed);
          spin();
        }
      });
    for (std::thread &T : Threads)
      T.join();
    for (unsigned W = 0; W != Workers; ++W)
      EXPECT_LT(First[W], Workers) << "worker " << W << " of " << Workers;
    for (size_t I = 0; I != Size; ++I)
      EXPECT_EQ(Claims[I].load(), 1u) << "index " << I;
  }
}

} // namespace
