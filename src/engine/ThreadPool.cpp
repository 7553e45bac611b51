//===- engine/ThreadPool.cpp - Fork-join worker pool --------------------------===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//

#include "engine/ThreadPool.h"

#include "obs/Metrics.h"

using namespace slp;
using namespace slp::engine;

ThreadPool::ThreadPool(unsigned Workers) {
  for (unsigned W = 1; W < Workers; ++W)
    Threads.emplace_back([this, W] { threadLoop(W); });
  obs::metrics().gauge("engine.pool.threads")
      .add(static_cast<int64_t>(Threads.size()));
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> L(M);
    Stopping = true;
  }
  StartCV.notify_all();
  for (std::thread &T : Threads)
    T.join();
  obs::metrics().gauge("engine.pool.threads")
      .add(-static_cast<int64_t>(Threads.size()));
}

void ThreadPool::threadLoop(unsigned Worker) {
  uint64_t Seen = 0;
  for (;;) {
    const std::function<void(unsigned)> *Job;
    {
      std::unique_lock<std::mutex> L(M);
      StartCV.wait(L, [&] { return Stopping || Generation != Seen; });
      if (Stopping)
        return;
      Seen = Generation;
      Job = Fn;
    }
    (*Job)(Worker);
    bool Last;
    {
      std::lock_guard<std::mutex> L(M);
      Last = --Pending == 0;
    }
    if (Last)
      DoneCV.notify_one();
  }
}

void ThreadPool::run(const std::function<void(unsigned)> &F) {
  {
    std::lock_guard<std::mutex> L(M);
    Fn = &F;
    Pending = static_cast<unsigned>(Threads.size());
    ++Generation;
  }
  StartCV.notify_all();
  // The other workers read state in the caller's frame, so wait for
  // them even when worker 0 throws.
  auto Join = [this] {
    std::unique_lock<std::mutex> L(M);
    DoneCV.wait(L, [this] { return Pending == 0; });
  };
  try {
    F(0);
  } catch (...) {
    Join();
    throw;
  }
  Join();
}
