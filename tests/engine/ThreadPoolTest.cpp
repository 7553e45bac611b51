//===- tests/engine/ThreadPoolTest.cpp ------------------------------------===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//
///
/// The fork-join pool every concurrent part of SLP runs on: each run()
/// must call every worker id exactly once, worker 0 on the calling
/// thread; a one-worker pool must spawn nothing; a pool must survive
/// the portfolio's pattern of many short back-to-back runs; and the
/// `engine.pool.threads` gauge must track spawned threads.
///
//===----------------------------------------------------------------------===//

#include "engine/ThreadPool.h"

#include "obs/Metrics.h"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

using namespace slp;
using namespace slp::engine;

namespace {

int64_t poolThreads() {
  return obs::metrics().gauge("engine.pool.threads").value();
}

TEST(ThreadPool, EachWorkerRunsOncePerRun) {
  for (unsigned N : {1u, 2u, 3u, 5u}) {
    ThreadPool Pool(N);
    ASSERT_EQ(Pool.numWorkers(), N);
    std::vector<std::atomic<unsigned>> Calls(N);
    for (unsigned Round = 1; Round != 4; ++Round) {
      Pool.run([&](unsigned W) {
        ASSERT_LT(W, N);
        Calls[W].fetch_add(1, std::memory_order_relaxed);
      });
      for (unsigned W = 0; W != N; ++W)
        EXPECT_EQ(Calls[W].load(), Round) << "workers=" << N << " id=" << W;
    }
  }
}

TEST(ThreadPool, WorkerZeroIsTheCaller) {
  ThreadPool Pool(4);
  const std::thread::id Caller = std::this_thread::get_id();
  std::vector<std::thread::id> Ids(4);
  Pool.run([&](unsigned W) { Ids[W] = std::this_thread::get_id(); });
  EXPECT_EQ(Ids[0], Caller);
  for (unsigned W = 1; W != 4; ++W) {
    EXPECT_NE(Ids[W], Caller) << W;
    for (unsigned V = 1; V != W; ++V)
      EXPECT_NE(Ids[W], Ids[V]) << V << " and " << W;
  }
}

TEST(ThreadPool, OneWorkerSpawnsNoThread) {
  const int64_t Before = poolThreads();
  ThreadPool Pool(1);
  EXPECT_EQ(poolThreads(), Before);
  EXPECT_EQ(Pool.numWorkers(), 1u);
  std::thread::id Ran;
  Pool.run([&](unsigned W) {
    EXPECT_EQ(W, 0u);
    Ran = std::this_thread::get_id();
  });
  EXPECT_EQ(Ran, std::this_thread::get_id());
}

TEST(ThreadPool, ManyBackToBackRuns) {
  ThreadPool Pool(3);
  std::atomic<unsigned> Total{0};
  for (unsigned I = 0; I != 1000; ++I)
    Pool.run([&](unsigned) { Total.fetch_add(1, std::memory_order_relaxed); });
  EXPECT_EQ(Total.load(), 3000u);
}

TEST(ThreadPool, GaugeCountsSpawnedThreads) {
  const int64_t Before = poolThreads();
  {
    ThreadPool A(4);
    EXPECT_EQ(poolThreads(), Before + 3);
    {
      ThreadPool B(2);
      EXPECT_EQ(poolThreads(), Before + 4);
    }
    EXPECT_EQ(poolThreads(), Before + 3);
  }
  EXPECT_EQ(poolThreads(), Before);
}

TEST(ThreadPool, CallerExceptionWaitsForTheOthers) {
  ThreadPool Pool(3);
  std::atomic<unsigned> Finished{0};
  auto ThrowOnCaller = [&](unsigned W) {
    if (W == 0)
      throw std::runtime_error("worker 0");
    Finished.fetch_add(1, std::memory_order_relaxed);
  };
  EXPECT_THROW(Pool.run(ThrowOnCaller), std::runtime_error);
  EXPECT_EQ(Finished.load(), 2u);
  // The pool stays usable.
  Pool.run([&](unsigned) { Finished.fetch_add(1, std::memory_order_relaxed); });
  EXPECT_EQ(Finished.load(), 5u);
}

TEST(ThreadPool, ResolveJobs) {
  EXPECT_EQ(ThreadPool::resolveJobs(3), 3u);
  EXPECT_GE(ThreadPool::resolveJobs(0), 1u);
}

} // namespace
