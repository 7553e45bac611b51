//===- engine/ThreadPool.h - Fork-join worker pool --------------*- C++ -*-===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one place SLP starts threads. A pool of N workers spawns N - 1
/// persistent threads once; run(Fn) calls Fn(0) on the calling thread
/// and Fn(1..N-1) on the pool threads, and returns when every call has
/// returned. The prover itself is sequential; everything concurrent
/// around it forks and joins through here: the batch engine (one call
/// per batch, each worker draining a StealPool), the portfolio (one
/// call per race, one worker per member) and the fuzz campaign (one
/// call per campaign).
///
//===----------------------------------------------------------------------===//

#ifndef SLP_ENGINE_THREADPOOL_H
#define SLP_ENGINE_THREADPOOL_H

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace slp {
namespace engine {

/// Fork-join pool: run() fans one call out per worker and joins them.
class ThreadPool {
public:
  /// Spawns \p Workers - 1 threads; the caller of run() is worker 0.
  /// 0 is treated as 1.
  explicit ThreadPool(unsigned Workers);

  /// Joins the pool threads.
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// Calls \p Fn(W) once for every worker W in [0, numWorkers()) —
  /// worker 0 on the calling thread — and returns when all calls have
  /// returned. Not reentrant: one run() at a time per pool. If Fn(0)
  /// throws, the exception is rethrown after the other workers finish.
  void run(const std::function<void(unsigned Worker)> &Fn);

  unsigned numWorkers() const {
    return static_cast<unsigned>(Threads.size()) + 1;
  }

  /// Resolves a requested job count: 0 means hardware concurrency
  /// (with a fallback of 1 when the runtime reports none).
  static unsigned resolveJobs(unsigned Requested) {
    if (Requested)
      return Requested;
    unsigned HW = std::thread::hardware_concurrency();
    return HW ? HW : 1;
  }

private:
  void threadLoop(unsigned Worker);

  std::vector<std::thread> Threads; ///< Workers 1..N-1.
  std::mutex M;
  std::condition_variable StartCV; ///< Wakes threads: new run or stop.
  std::condition_variable DoneCV;  ///< Wakes run(): all threads done.
  /// The in-flight run's function; set under M before the threads are
  /// woken and fixed until they have all reported back.
  const std::function<void(unsigned)> *Fn = nullptr;
  uint64_t Generation = 0; ///< run() number; guards wakeups.
  unsigned Pending = 0;    ///< Threads still inside this run's Fn.
  bool Stopping = false;
};

} // namespace engine
} // namespace slp

#endif // SLP_ENGINE_THREADPOOL_H
